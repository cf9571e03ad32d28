"""Tests for the multi-tenant serving layer (``repro.serve``).

Covers the ISSUE checklist: registry publish/resolve/content-addressing
with ref-counted in-memory sharing and the warm cache; the load-bearing
3-tenant parity guarantee (per-tenant service output byte-identical to a
standalone ``StreamRuntime``); the global session budget (unit,
property-based fairness, and through real trackers); atomic model swap
mid-stream with exactly-once delivery; tenant-namespaced checkpoints and
restart/resume without duplicates; per-tenant health isolation; and the
control plane (tenants files, diff reconciliation, ``/tenants`` route).
"""

from __future__ import annotations

import json
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IntelLog, split_sessions
from repro.core import ServeConfig
from repro.obs import MetricsRegistry, MetricsServer
from repro.parsing.records import LogRecord
from repro.query.store import ModelStore
from repro.serve import (
    BoundedQueueSource,
    DetectionService,
    ModelRegistry,
    RegistryError,
    TenantSpec,
    apply_tenants,
    load_tenants_file,
    parse_model_ref,
    plan_evictions,
)
from repro.simulators import WorkloadGenerator, sessions_of
from repro.stream import (
    IterableSource,
    ListSink,
    StreamRuntime,
    TrackerConfig,
    tenant_checkpoint_name,
)
from repro.stream.checkpoint import default_checkpoint_path

#: Tracker settings that never close early — for exact-parity tests
#: (mirrors ``tests/test_stream.py``; end markers stay at their default
#: on BOTH sides of every parity comparison).
UNBOUNDED = dict(idle_timeout=1e12, max_open_sessions=10**9)


def spark_records(seed: int, jobs: int = 2) -> list[LogRecord]:
    """A deterministic, time-interleaved Spark detection stream."""
    gen = WorkloadGenerator(seed=seed)
    batch = gen.run_batch("spark", jobs)
    records = [r for job in batch for r in job.records]
    records.sort(key=lambda r: r.timestamp)
    return records


def record(ts, message, sid):
    return LogRecord(timestamp=float(ts), level="INFO", source="T",
                     message=message, session_id=sid)


def report_bytes(sink: ListSink) -> dict[str, bytes]:
    return {
        r.session_id: json.dumps(r.to_dict(), sort_keys=True).encode()
        for r in sink.reports
    }


@pytest.fixture(scope="module")
def spark_store(spark_model) -> ModelStore:
    return ModelStore.from_intellog(spark_model)


@pytest.fixture(scope="module")
def spark_store_v2(spark_training_jobs) -> ModelStore:
    """A second, byte-distinct version of the same model family."""
    intellog = IntelLog()
    intellog.train(sessions_of(spark_training_jobs[:6]))
    store = ModelStore.from_intellog(intellog)
    return store


@pytest.fixture()
def registry(tmp_path, spark_store) -> ModelRegistry:
    reg = ModelRegistry(tmp_path / "registry")
    reg.publish(spark_store, "spark-prod")
    return reg


class TestRegistry:
    def test_publish_assigns_sequential_versions(
        self, tmp_path, spark_store, spark_store_v2
    ):
        reg = ModelRegistry(tmp_path / "reg")
        v1, d1 = reg.publish(spark_store, "m")
        v2, d2 = reg.publish(spark_store_v2, "m")
        assert (v1, v2) == (1, 2)
        assert d1 != d2
        assert reg.resolve("m") == (2, d2)
        assert reg.resolve("m", 1) == (1, d1)

    def test_republish_same_bytes_is_idempotent(
        self, tmp_path, spark_store
    ):
        reg = ModelRegistry(tmp_path / "reg")
        first = reg.publish(spark_store, "m")
        again = reg.publish(spark_store, "m")
        assert again == first
        assert reg.stats()["publishes"] == 1

    def test_artifacts_are_content_addressed(self, tmp_path, spark_store):
        import hashlib

        reg = ModelRegistry(tmp_path / "reg")
        _, digest = reg.publish(spark_store, "m")
        body = reg.artifact_path(digest).read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest

    def test_index_survives_reopen(self, tmp_path, spark_store):
        root = tmp_path / "reg"
        v, d = ModelRegistry(root).publish(spark_store, "m")
        assert ModelRegistry(root).resolve("m") == (v, d)

    def test_unknown_model_and_version_raise(self, tmp_path, spark_store):
        reg = ModelRegistry(tmp_path / "reg")
        reg.publish(spark_store, "m")
        with pytest.raises(RegistryError):
            reg.resolve("nope")
        with pytest.raises(RegistryError):
            reg.resolve("m", 7)

    def test_tampered_artifact_is_rejected_on_load(
        self, tmp_path, spark_store
    ):
        reg = ModelRegistry(tmp_path / "reg")
        _, digest = reg.publish(spark_store, "m")
        path = reg.artifact_path(digest)
        path.write_bytes(path.read_bytes() + b" ")
        with pytest.raises(RegistryError, match="digest"):
            reg.acquire("m")

    def test_leases_share_one_in_memory_model(self, tmp_path, spark_store):
        reg = ModelRegistry(tmp_path / "reg")
        _, digest = reg.publish(spark_store, "m")
        a = reg.acquire("m")
        b = reg.acquire("m")
        assert a.intellog is b.intellog
        assert reg.refcount(digest) == 2
        assert reg.stats()["cold_loads"] == 1
        a.release()
        a.release()  # idempotent
        assert reg.refcount(digest) == 1
        b.release()
        assert reg.refcount(digest) == 0

    def test_warm_cache_revives_without_reload(self, tmp_path, spark_store):
        reg = ModelRegistry(tmp_path / "reg")
        reg.publish(spark_store, "m")
        first = reg.acquire("m")
        shared = first.intellog
        first.release()
        assert reg.stats()["warm_models"] == 1
        revived = reg.acquire("m")
        assert revived.intellog is shared
        stats = reg.stats()
        assert stats["warm_hits"] == 1
        assert stats["cold_loads"] == 1
        revived.release()

    def test_warm_capacity_zero_reloads_cold(self, tmp_path, spark_store):
        reg = ModelRegistry(tmp_path / "reg", warm_capacity=0)
        reg.publish(spark_store, "m")
        reg.acquire("m").release()
        assert reg.stats()["warm_models"] == 0
        reg.acquire("m").release()
        assert reg.stats()["cold_loads"] == 2

    def test_detector_views_are_private_per_lease(
        self, tmp_path, spark_store
    ):
        reg = ModelRegistry(tmp_path / "reg")
        reg.publish(spark_store, "m")
        lease = reg.acquire("m")
        v1, v2 = lease.detector_view(), lease.detector_view()
        assert v1 is not v2
        assert v1.spell is not v2.spell
        # The heavy learned state is aliased, not copied.
        assert v1.spell._keys is v2.spell._keys
        lease.release()


class TestMultiTenantParity:
    """The PR's load-bearing invariant: serving == standalone, per byte."""

    SEEDS = {"t-a": 101, "t-b": 202, "t-c": 303}

    def _standalone(self, registry: ModelRegistry, seed: int):
        _, digest = registry.resolve("spark-prod")
        model = ModelStore.load_path(
            registry.artifact_path(digest)
        ).to_intellog()
        sink = ListSink()
        StreamRuntime(
            model, IterableSource(spark_records(seed)), sink=sink,
            tracker=TrackerConfig(**UNBOUNDED),
        ).run(once=True)
        return report_bytes(sink)

    def _serve(self, registry: ModelRegistry):
        svc = DetectionService(registry, ServeConfig(quantum=37))
        sinks = {}
        for tid, seed in self.SEEDS.items():
            sinks[tid] = ListSink()
            svc.attach(
                TenantSpec(tenant_id=tid, model="spark-prod", **UNBOUNDED),
                source=IterableSource(spark_records(seed)),
                sink=sinks[tid],
            )
        return svc, sinks

    def test_three_tenants_byte_identical_to_standalone(self, registry):
        svc, sinks = self._serve(registry)
        _, digest = registry.resolve("spark-prod")
        # One immutable model instance backs the whole fleet.
        tenants = [svc.tenant(tid) for tid in self.SEEDS]
        assert registry.refcount(digest) == 3
        assert tenants[0].lease.intellog is tenants[1].lease.intellog
        assert tenants[1].lease.intellog is tenants[2].lease.intellog

        status = svc.drain()
        assert status["fleet"]["open_sessions"] == 0
        assert (
            status["fleet"]["open_sessions"]
            <= svc.config.global_session_budget
        )
        for tid, seed in self.SEEDS.items():
            assert report_bytes(sinks[tid]) == self._standalone(
                registry, seed
            ), f"tenant {tid} diverged from standalone repro watch"

        svc.close()
        assert registry.refcount(digest) == 0
        stats = registry.stats()
        assert stats["cold_loads"] == 1  # one deserialization for 3 tenants
        assert stats["warm_models"] == 1  # parked for the next attach

    def test_fleet_metrics_are_mirrored(self, registry):
        svc, _ = self._serve(registry)
        svc.drain()

        def sample(name, **labels):
            for got, value in svc.metrics.get(name).samples():
                if got == labels:
                    return value
            raise AssertionError(f"no sample {name} {labels}")

        assert sample("serve_active_tenants") == 3
        assert sample("serve_registry_live_models") == 1
        for tid in self.SEEDS:
            assert sample("serve_tenant_reports", tenant=tid) > 0
        svc.close()

    def test_failed_tenants_gauge_updates_on_the_failing_sweep(
        self, registry
    ):
        svc = DetectionService(registry, ServeConfig())
        svc.attach(
            TenantSpec(tenant_id="bad", model="spark-prod", **UNBOUNDED),
            source=_ExplodingSource(),
            sink=ListSink(),
        )
        failed = svc.metrics.get("serve_failed_tenants")
        assert failed.value == 0
        svc.cycle()
        assert svc.tenant("bad").failure is not None
        # Mirrored by the sweep that failed, not by a later drain/close.
        assert failed.value == 1
        svc.close()


class TestBudget:
    def test_under_budget_plans_nothing(self):
        assert plan_evictions({"a": 3, "b": 4}, 10) == {}

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            plan_evictions({"a": 1}, -1)

    def test_largest_first_and_deterministic(self):
        plan = plan_evictions({"a": 10, "b": 2, "c": 6}, 12)
        assert plan == {"a": 5, "c": 1}
        assert plan == plan_evictions({"c": 6, "b": 2, "a": 10}, 12)

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=1, max_size=3),
            st.integers(min_value=0, max_value=60),
            max_size=8,
        ),
        budget=st.integers(min_value=0, max_value=250),
    )
    def test_plan_properties(self, counts, budget):
        plan = plan_evictions(counts, budget)
        total = sum(counts.values())
        for tenant, evict in plan.items():
            assert 0 < evict <= counts[tenant]
        if total <= budget:
            assert plan == {}
        else:
            # Reaches the budget exactly: never over-evicts, never
            # leaves the fleet over the cap.
            assert total - sum(plan.values()) == budget
        if counts:
            # Fairness: a tenant at or below its fair share is never
            # asked to give sessions back.
            floor = budget // len(counts)
            for tenant, count in counts.items():
                if count <= floor:
                    assert tenant not in plan

    def test_enforced_through_real_trackers(self, registry):
        svc = DetectionService(
            registry,
            ServeConfig(global_session_budget=12),
        )
        sinks = {}
        fleets = {"big-a": 30, "big-b": 20, "small": 3}
        for tid, sessions in fleets.items():
            records = [
                record(i, f"tick {i}", sid=f"{tid}-s{i}")
                for i in range(sessions)
            ]
            sinks[tid] = ListSink()
            svc.attach(
                TenantSpec(tenant_id=tid, model="spark-prod", **UNBOUNDED),
                source=IterableSource(records),
                sink=sinks[tid],
            )
        svc.cycle()
        open_total = sum(
            svc.tenant(tid).open_sessions for tid in fleets
        )
        assert open_total <= 12
        assert svc.budget_evictions >= 30 + 20 + 3 - 12
        # The small tenant sits below the fair share (12 // 3 = 4):
        # pressure lands only on the tenants holding the surplus.
        assert svc.tenant("small").open_sessions == 3
        assert all(
            c.reason != "evicted" for c in sinks["small"].closures
        )
        # Evicted sessions still report, flagged as evictions.
        assert any(
            c.reason == "evicted" for c in sinks["big-a"].closures
        )
        svc.close()


class TestAtomicSwap:
    def test_swap_mid_stream_is_atomic_and_exactly_once(
        self, tmp_path, spark_store, spark_store_v2
    ):
        reg = ModelRegistry(tmp_path / "reg")
        v1, d1 = reg.publish(spark_store, "spark-prod")
        svc = DetectionService(reg, ServeConfig(quantum=25))
        streams = {
            tid: spark_records(seed)
            for tid, seed in (("t-a", 11), ("t-b", 22), ("t-c", 33))
        }
        sinks = {}
        for tid, records in streams.items():
            sinks[tid] = ListSink()
            svc.attach(
                TenantSpec(tenant_id=tid, model="spark-prod", **UNBOUNDED),
                source=IterableSource(list(records)),
                sink=sinks[tid],
            )
        for _ in range(3):  # consume part of every stream on v1
            assert svc.cycle() > 0
        v2, d2 = reg.publish(spark_store_v2, "spark-prod")
        swapped_to = svc.swap("t-a")  # latest == v2
        assert swapped_to == (v2, d2)
        # Parked, not yet applied: the pump installs it between quanta.
        assert svc.tenant("t-a").lease.version == v1
        svc.drain()

        t_a = svc.tenant("t-a")
        assert t_a.lease.version == v2
        assert t_a.swaps == 1
        # Other tenants were never moved...
        assert svc.tenant("t-b").lease.version == v1
        assert svc.tenant("t-c").lease.version == v1
        # ...so both model versions are live, shared correctly.
        assert reg.refcount(d1) == 2
        assert reg.refcount(d2) == 1
        for tid, records in streams.items():
            # No record was lost across the swap...
            assert svc.tenant(tid).runtime.stats.records == len(records)
            # ...and every report went out exactly once.
            fids = sinks[tid].emitted_ids()
            assert len(fids) == len(set(fids))
            assert len(fids) == len(sinks[tid].reports)
        svc.close()

    def test_sessions_open_across_swap_close_under_new_model(
        self, tmp_path, spark_store, mr_model
    ):
        """A session still open at the swap is finalized wholly under
        the new model: matches carried from the old one are dropped."""
        reg = ModelRegistry(tmp_path / "reg")
        reg.publish(spark_store, "spark-prod")
        svc = DetectionService(reg, ServeConfig(quantum=25))
        records = spark_records(11)
        sink = ListSink()
        svc.attach(
            TenantSpec(tenant_id="t", model="spark-prod", **UNBOUNDED),
            source=IterableSource(list(records)), sink=sink,
        )
        for _ in range(3):
            assert svc.cycle() > 0
        before = len(sink.reports)
        # A model of another system: its keys mean other things.
        reg.publish(ModelStore.from_intellog(mr_model), "spark-prod")
        svc.swap("t")
        svc.drain()
        tenant = svc.tenant("t")
        assert tenant.swaps == 1
        after = {r.session_id: r.to_dict() for r in sink.reports[before:]}
        expected = tenant.lease.detector_view().detect_job(
            split_sessions(records)
        )
        assert after and after == {
            r.session_id: r.to_dict()
            for r in expected.sessions if r.session_id in after
        }
        svc.close()

    def test_swap_to_unknown_version_changes_nothing(self, registry):
        svc = DetectionService(registry, ServeConfig())
        sink = ListSink()
        svc.attach(
            TenantSpec(tenant_id="t", model="spark-prod", **UNBOUNDED),
            source=IterableSource(spark_records(5, jobs=1)),
            sink=sink,
        )
        before = svc.tenant("t").lease.version
        with pytest.raises(RegistryError):
            svc.swap("t", version=99)
        svc.cycle()
        assert svc.tenant("t").lease.version == before
        assert svc.tenant("t").swaps == 0
        svc.close()


class TestCheckpointNamespacing:
    def test_distinct_tenants_never_share_a_filename(self):
        assert tenant_checkpoint_name("a/b") != tenant_checkpoint_name(
            "a_b"
        )
        assert "/" not in tenant_checkpoint_name("a/b")
        assert tenant_checkpoint_name("team-a") == "team-a"

    def test_default_path_embeds_the_tenant(self, tmp_path):
        path = default_checkpoint_path(tmp_path / "model.json", "team-a")
        assert path.name == "model.team-a.stream-ckpt.json"

    def test_two_tenants_one_model_write_two_checkpoints(
        self, tmp_path, registry
    ):
        ckpt_dir = tmp_path / "ckpt"
        svc = DetectionService(
            registry, ServeConfig(), checkpoint_dir=ckpt_dir
        )
        for tid, seed in (("team/a", 41), ("team_a", 42)):
            svc.attach(
                TenantSpec(tenant_id=tid, model="spark-prod", **UNBOUNDED),
                source=IterableSource(spark_records(seed, jobs=1)),
                sink=ListSink(),
            )
        svc.drain()
        svc.close()
        checkpoints = sorted(
            p.name for p in ckpt_dir.glob("*.stream-ckpt.json")
        )
        assert len(checkpoints) == 2, checkpoints


class TestRestartResume:
    def test_bounded_queue_position_round_trip(self):
        records = spark_records(9, jobs=1)
        first = BoundedQueueSource(
            IterableSource(records), capacity=10_000, ingest_batch=64
        )
        consumed = first.poll(10)
        assert len(consumed) == 10
        assert first.queue_depth == 54  # one 64-record gulp minus 10
        position = first.position()
        # JSON round-trip: positions must survive the checkpoint file.
        position = json.loads(json.dumps(position))

        second = BoundedQueueSource(
            IterableSource(records), capacity=10_000, ingest_batch=64
        )
        second.seek(position)
        rest = []
        while True:
            batch = second.poll(50)
            if not batch:
                break
            rest.extend(batch)
        assert [r.message for r in rest] == [
            r.message for r in records[10:]
        ]

    def test_queue_sheds_oldest_and_counts(self):
        records = [record(i, f"tick {i}", sid=f"s{i}") for i in range(100)]
        queue = BoundedQueueSource(
            IterableSource(records), capacity=8, ingest_batch=100
        )
        got = queue.poll(8)
        assert queue.shed == 92
        # Newest data wins: the survivors are the tail of the gulp.
        assert [r.message for r in got] == [
            f"tick {i}" for i in range(92, 100)
        ]

    def test_service_restart_emits_no_duplicate_reports(
        self, tmp_path, registry
    ):
        records = spark_records(55)
        spec = TenantSpec(
            tenant_id="riser", model="spark-prod", **UNBOUNDED
        )
        ckpt_dir = tmp_path / "ckpt"

        first = DetectionService(
            registry, ServeConfig(quantum=40),
            checkpoint_dir=ckpt_dir,
        )
        sink1 = ListSink()
        first.attach(
            spec, source=IterableSource(records), sink=sink1
        )
        for _ in range(3):
            first.cycle()
        first.detach("riser", flush=False)  # checkpoint, keep sessions

        second = DetectionService(
            registry, ServeConfig(quantum=40),
            checkpoint_dir=ckpt_dir,
        )
        sink2 = ListSink()
        second.attach(
            spec, source=IterableSource(records), sink=sink2
        )
        second.drain()
        second.close()

        fids = sink1.emitted_ids() + sink2.emitted_ids()
        assert len(fids) == len(set(fids)), "duplicate report delivery"
        reported = {r.session_id for r in sink1.reports} | {
            r.session_id for r in sink2.reports
        }
        assert reported == {r.session_id for r in records}


class _ExplodingSource:
    """Non-IO failure: bypasses retry and must park only its tenant."""

    def poll(self, max_records):
        raise RuntimeError("boom: tenant-local disaster")

    def exhausted(self):
        return False

    def backlog(self):
        return None

    def position(self):
        return {}

    def seek(self, position):
        pass


class TestHealthIsolation:
    def test_one_failing_tenant_does_not_stall_the_fleet(self, registry):
        svc = DetectionService(registry, ServeConfig())
        good_sink = ListSink()
        svc.attach(
            TenantSpec(tenant_id="good", model="spark-prod", **UNBOUNDED),
            source=IterableSource(spark_records(8, jobs=1)),
            sink=good_sink,
        )
        svc.attach(
            TenantSpec(tenant_id="bad", model="spark-prod", **UNBOUNDED),
            source=_ExplodingSource(),
            sink=ListSink(),
        )
        svc.drain()
        assert svc.tenant("bad").failure is not None
        assert "boom" in svc.tenant("bad").failure
        assert len(good_sink.reports) > 0
        status = svc.tenants_status()
        by_id = {t["tenant"]: t for t in status["tenants"]}
        assert by_id["bad"]["failure"]
        assert by_id["good"]["failure"] is None
        svc.close()


class TestAdmin:
    def test_parse_model_ref(self):
        assert parse_model_ref("m") == ("m", None)
        assert parse_model_ref("m@3") == ("m", 3)
        with pytest.raises(ValueError):
            parse_model_ref("@3")
        with pytest.raises(ValueError):
            parse_model_ref("m@latest")

    def test_load_json_tenants_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({
            "tenants": [
                {"id": "a", "model": "m@2", "log": "a.log"},
                {"id": "b", "model": "m", "formatter": "spark"},
            ]
        }))
        specs = load_tenants_file(path)
        assert [s.tenant_id for s in specs] == ["a", "b"]
        assert (specs[0].model, specs[0].version) == ("m", 2)
        assert specs[0].log_path == "a.log"
        assert specs[1].formatter == "spark"

    def test_load_toml_tenants_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "tenants.toml"
        path.write_text(
            '[[tenants]]\nid = "a"\nmodel = "m@1"\nlog = "a.log"\n'
            '\n[[tenants]]\nid = "b"\nmodel = "m"\n'
        )
        specs = load_tenants_file(path)
        assert [(s.tenant_id, s.version) for s in specs] == [
            ("a", 1), ("b", None),
        ]

    def test_duplicate_tenant_id_rejected(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({"tenants": [
            {"id": "a", "model": "m"}, {"id": "a", "model": "m"},
        ]}))
        with pytest.raises(ValueError, match="twice"):
            load_tenants_file(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(["not", "a", "dict"]))
        with pytest.raises(ValueError, match="tenants"):
            load_tenants_file(path)

    def _spec(self, tid, ref, log_path):
        name, version = parse_model_ref(ref)
        return TenantSpec(
            tenant_id=tid, model=name, version=version,
            log_path=str(log_path), **UNBOUNDED,
        )

    def test_apply_tenants_diffs_the_fleet(
        self, tmp_path, spark_store, spark_store_v2
    ):
        reg = ModelRegistry(tmp_path / "reg")
        reg.publish(spark_store, "adm")
        reg.publish(spark_store_v2, "adm")   # adm@2 is latest
        reg.publish(spark_store, "other")
        log_file = tmp_path / "empty.log"
        log_file.touch()
        svc = DetectionService(reg, ServeConfig())

        first = apply_tenants(svc, [
            self._spec("a", "adm", log_file),
            self._spec("b", "adm@1", log_file),
        ])
        assert first["attached"] == ["a", "b"]
        assert svc.tenant("a").lease.version == 2
        assert svc.tenant("b").lease.version == 1

        second = apply_tenants(svc, [
            self._spec("a", "adm@1", log_file),   # pin back to v1
            self._spec("c", "adm", log_file),     # new tenant
        ])                                        # b disappears
        assert second == {
            "attached": ["c"], "detached": ["b"],
            "swapped": ["a"], "kept": [],
        }
        svc.cycle()  # the pump applies the parked swap
        assert svc.tenant("a").lease.version == 1
        assert svc.tenant_ids == ["a", "c"]

        # Model *renames* are refused (kept) — they need detach/attach.
        third = apply_tenants(svc, [
            self._spec("a", "other", log_file),
            self._spec("c", "adm", log_file),
        ])
        assert third["swapped"] == []
        assert set(third["kept"]) == {"a", "c"}
        assert svc.tenant("a").lease.name == "adm"
        svc.close()

    def test_one_bad_entry_does_not_poison_a_reload(self, registry):
        svc = DetectionService(registry, ServeConfig())
        good = TenantSpec(
            tenant_id="ok", model="spark-prod", **UNBOUNDED
        )
        bad = TenantSpec(tenant_id="bad", model="unpublished")
        good.log_path = None  # no source either: attach must fail
        summary = apply_tenants(svc, [bad, good])
        assert summary["attached"] == []
        assert svc.tenant_ids == []


class TestTenantsRoute:
    def test_tenants_json_route_reflects_the_fleet(self, registry):
        svc = DetectionService(registry, ServeConfig())
        svc.attach(
            TenantSpec(tenant_id="t", model="spark-prod", **UNBOUNDED),
            source=IterableSource(spark_records(3, jobs=1)),
            sink=ListSink(),
        )
        svc.drain()
        server = MetricsServer(
            svc.metrics, port=0,
            json_routes={"/tenants": svc.tenants_status},
        )
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(
                base + "/tenants", timeout=5
            ) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
            assert payload["fleet"]["active"] == 1
            assert payload["tenants"][0]["tenant"] == "t"
            assert payload["tenants"][0]["reports"] > 0
            assert "spark-prod" in payload["registry"]["models"]
            with urllib.request.urlopen(
                base + "/metrics", timeout=5
            ) as resp:
                body = resp.read().decode("utf-8")
            assert "serve_active_tenants 1" in body
        finally:
            server.close()
            svc.close()
