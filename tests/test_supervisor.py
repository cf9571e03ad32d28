"""Tests for the self-healing layer (``repro.serve.supervisor``).

Covers the supervisor policy in isolation (deterministic seeded
backoff, rolling restart budget, quarantine escalation) and wired into
``DetectionService``: a transient-error tenant auto-restarts with
backoff and keeps its exactly-once guarantees; a persistent offender
lands in ``quarantined`` with the exception type and traceback tail on
``/tenants``; a fully quarantined fleet stops the serve loop and exits
the CLI with status 2 (the satellite regression for silent ``str(exc)``
failure notes lives here too).
"""

from __future__ import annotations

import json

import pytest

from repro.core import ServeConfig, SupervisorConfig
from repro.parsing.records import LogRecord
from repro.query.store import ModelStore
from repro.serve import (
    DetectionService,
    ModelRegistry,
    TenantSpec,
    TenantSupervisor,
    apply_tenants,
)
from repro.serve.supervisor import BACKOFF, QUARANTINED, RUNNING
from repro.simulators import WorkloadGenerator
from repro.stream import IterableSource, ListSink

UNBOUNDED = dict(idle_timeout=1e12, max_open_sessions=10**9)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def spark_records(seed: int, jobs: int = 2) -> list[LogRecord]:
    gen = WorkloadGenerator(seed=seed)
    batch = gen.run_batch("spark", jobs)
    records = [r for job in batch for r in job.records]
    records.sort(key=lambda r: r.timestamp)
    return records


class FlakySource:
    """Raises for the first ``failures`` polls, then streams cleanly."""

    def __init__(self, records, failures: int = 1) -> None:
        self._inner = IterableSource(records)
        self.failures = failures
        self.polls = 0

    def poll(self, max_records):
        self.polls += 1
        if self.polls <= self.failures:
            raise RuntimeError(f"transient blip #{self.polls}")
        return self._inner.poll(max_records)

    def exhausted(self):
        return self._inner.exhausted()

    def backlog(self):
        return self._inner.backlog()

    def position(self):
        return self._inner.position()

    def seek(self, position):
        self._inner.seek(position)


@pytest.fixture()
def registry(tmp_path, spark_model) -> ModelRegistry:
    reg = ModelRegistry(tmp_path / "registry")
    reg.publish(ModelStore.from_intellog(spark_model), "spark-prod")
    return reg


def service_with(registry, clock, **sup) -> DetectionService:
    return DetectionService(
        registry,
        ServeConfig(quantum=64, poll_interval=1.0),
        supervisor=TenantSupervisor(
            SupervisorConfig(**sup), clock=clock
        ),
        clock=clock,
        sleep=lambda s: clock.advance(s),
    )


class TestSupervisorPolicy:
    def test_backoff_is_deterministic_per_tenant(self):
        clock = FakeClock()
        cfg = SupervisorConfig(backoff_base=1.0, backoff_seed=42)
        a = TenantSupervisor(cfg, clock=clock)
        b = TenantSupervisor(cfg, clock=clock)
        a.record_failure("t1", "x")
        b.record_failure("t1", "x")
        assert (
            a.status("t1")["next_restart_in"]
            == b.status("t1")["next_restart_in"]
        )
        # Different tenants get de-synchronized (different seeds).
        b.record_failure("t2", "x")
        history_t1 = b.status("t1")["restart_history"][0]["delay_s"]
        history_t2 = b.status("t2")["restart_history"][0]["delay_s"]
        assert history_t1 != history_t2

    def test_consecutive_failures_grow_the_delay(self):
        clock = FakeClock()
        sup = TenantSupervisor(
            SupervisorConfig(
                backoff_base=1.0, backoff_jitter=0.0, restart_budget=10
            ),
            clock=clock,
        )
        delays = []
        for _ in range(4):
            sup.record_failure("t1", "x")
            delays.append(
                sup.status("t1")["restart_history"][-1]["delay_s"]
            )
            sup.record_restart("t1")
            clock.advance(0.001)
        assert delays == sorted(delays)
        assert delays[-1] > delays[0]

    def test_due_only_after_backoff_elapses(self):
        clock = FakeClock()
        sup = TenantSupervisor(
            SupervisorConfig(backoff_base=1.0), clock=clock
        )
        sup.record_failure("t1", "x")
        assert sup.due() == []
        clock.advance(2.0)  # past base * (1 + jitter)
        assert sup.due() == ["t1"]
        sup.record_restart("t1")
        assert sup.state("t1") == RUNNING
        assert sup.total_restarts() == 1

    def test_budget_exhaustion_quarantines_with_reason_and_trace(self):
        clock = FakeClock()
        sup = TenantSupervisor(
            SupervisorConfig(restart_budget=2, restart_window=100.0),
            clock=clock,
        )
        assert sup.record_failure("t1", "boom 1", "tb1") == BACKOFF
        clock.advance(1.0)
        assert sup.record_failure("t1", "boom 2", "tb2") == BACKOFF
        clock.advance(1.0)
        state = sup.record_failure("t1", "boom 3", "tb3")
        assert state == QUARANTINED
        status = sup.status("t1")
        assert status["state"] == QUARANTINED
        assert status["quarantine_reason"] == "boom 3"
        assert status["quarantine_trace"] == "tb3"
        assert sup.quarantined() == ["t1"]
        assert sup.due() == []  # quarantined tenants never come due

    def test_window_pruning_forgives_old_failures(self):
        clock = FakeClock()
        sup = TenantSupervisor(
            SupervisorConfig(restart_budget=2, restart_window=10.0),
            clock=clock,
        )
        for _ in range(5):  # one failure every 60s: never quarantines
            assert sup.record_failure("t1", "x") == BACKOFF
            sup.record_restart("t1")
            clock.advance(60.0)
        assert sup.state("t1") == RUNNING

    def test_success_resets_backoff_exponent_not_window(self):
        clock = FakeClock()
        sup = TenantSupervisor(
            SupervisorConfig(
                backoff_base=1.0,
                backoff_jitter=0.0,
                restart_budget=2,
                restart_window=1000.0,
            ),
            clock=clock,
        )
        sup.record_failure("t1", "x")
        sup.record_restart("t1")
        sup.record_success("t1")
        clock.advance(1.0)
        sup.record_failure("t1", "x")
        # Exponent reset: second spell starts back at the base delay.
        history = sup.status("t1")["restart_history"]
        delays = [
            e["delay_s"] for e in history if e["event"] == "backoff"
        ]
        assert delays[0] == delays[1]
        # Window not reset: a third failure still exhausts the budget.
        sup.record_restart("t1")
        clock.advance(1.0)
        assert sup.record_failure("t1", "x") == QUARANTINED

    def test_forget_drops_all_state(self):
        sup = TenantSupervisor(SupervisorConfig(), clock=FakeClock())
        sup.record_failure("t1", "x")
        sup.forget("t1")
        assert sup.state("t1") == RUNNING
        assert sup.status("t1")["restarts"] == 0


class TestServiceSelfHealing:
    def test_transient_failure_restarts_with_backoff(self, registry):
        clock = FakeClock()
        svc = service_with(
            registry, clock, backoff_base=1.0, restart_budget=5
        )
        records = spark_records(55)
        sink = ListSink()
        spec = TenantSpec(
            tenant_id="flaky", model="spark-prod", **UNBOUNDED
        )
        svc.attach(
            spec, source=FlakySource(records, failures=1), sink=sink
        )
        svc.cycle()  # pump raises -> failure recorded, backoff starts
        tenant = svc.tenant("flaky")
        assert tenant.failure is not None
        assert svc.supervisor.state("flaky") == BACKOFF
        svc.cycle()  # backoff not elapsed: tenant stays parked
        assert tenant.restarts == 0
        clock.advance(3.0)
        svc.cycle()  # due -> restart -> healthy pump
        assert tenant.restarts == 1
        assert tenant.failure is None
        assert svc.supervisor.state("flaky") == RUNNING
        svc.drain()
        assert {r.session_id for r in sink.reports} == {
            r.session_id for r in records
        }
        fids = sink.emitted_ids()
        assert len(fids) == len(set(fids))
        [(labels, value)] = svc.metrics.get(
            "serve_restarts_total"
        ).samples()
        assert labels == {"tenant": "flaky"} and value == 1
        status = svc.tenants_status()
        sup = status["tenants"][0]["supervisor"]
        assert sup["restarts"] == 1
        events = [e["event"] for e in sup["restart_history"]]
        assert events == ["backoff", "restart"]

    def test_budget_exhaustion_lands_in_quarantine_with_traceback(
        self, registry
    ):
        clock = FakeClock()
        svc = service_with(
            registry, clock,
            backoff_base=1.0, restart_budget=2, restart_window=1000.0,
        )
        spec = TenantSpec(
            tenant_id="doomed", model="spark-prod", **UNBOUNDED
        )
        svc.attach(
            spec,
            source=FlakySource(spark_records(55), failures=10**9),
            sink=ListSink(),
        )
        for _ in range(12):
            svc.cycle()
            clock.advance(5.0)
        tenant = svc.tenant("doomed")
        assert tenant.quarantined is not None
        status = svc.tenants_status()
        entry = status["tenants"][0]
        assert entry["health"] == "quarantined"
        assert "RuntimeError" in entry["failure"]
        assert "RuntimeError" in entry["failure_trace"]
        sup = entry["supervisor"]
        assert sup["state"] == QUARANTINED
        assert "RuntimeError" in sup["quarantine_trace"]
        assert status["fleet"]["quarantined"] == ["doomed"]
        [(_, value)] = svc.metrics.get(
            "serve_quarantined_tenants"
        ).samples()
        assert value == 1
        # Quarantine is permanent: no further restarts are scheduled.
        restarts = tenant.restarts
        clock.advance(1000.0)
        svc.cycle()
        assert tenant.restarts == restarts

    def test_pump_failure_keeps_exception_type_and_trace(
        self, registry
    ):
        # Regression: the failure note used to be the bare str(exc),
        # which for ValueError("") rendered as 'pump: ' — type gone,
        # traceback gone, /tenants useless for diagnosis.
        clock = FakeClock()
        svc = service_with(registry, clock)

        class _Empty(Exception):
            pass

        class _Source(IterableSource):
            def poll(self, max_records):
                raise _Empty("")

        spec = TenantSpec(
            tenant_id="t1", model="spark-prod", **UNBOUNDED
        )
        svc.attach(spec, source=_Source([]), sink=ListSink())
        svc.cycle()
        tenant = svc.tenant("t1")
        assert tenant.failure.startswith("pump: _Empty:")
        assert "_Empty" in tenant.failure_trace
        assert tenant.status()["failure_trace"] == tenant.failure_trace

    def test_all_quarantined_stops_the_run_loop(self, registry):
        clock = FakeClock()
        svc = service_with(
            registry, clock,
            backoff_base=0.5, restart_budget=1, restart_window=1000.0,
        )
        spec = TenantSpec(
            tenant_id="t1", model="spark-prod", **UNBOUNDED
        )
        svc.attach(
            spec,
            source=FlakySource(spark_records(55), failures=10**9),
            sink=ListSink(),
        )
        status = svc.run(max_cycles=100)
        assert svc.fleet_dead
        assert status["fleet"]["dead"] is True
        assert status["fleet"]["quarantined"] == ["t1"]

    def test_changed_spec_revives_a_quarantined_tenant(
        self, registry, spark_training_jobs, tmp_path
    ):
        from repro import IntelLog
        from repro.simulators import sessions_of

        # A byte-distinct v2 so the reload sees a real version change.
        v2_model = IntelLog()
        v2_model.train(sessions_of(spark_training_jobs[:6]))
        registry.publish(
            ModelStore.from_intellog(v2_model), "spark-prod"
        )
        clock = FakeClock()
        svc = service_with(registry, clock, restart_budget=1)
        spec = TenantSpec(
            tenant_id="t1", model="spark-prod", version=1, **UNBOUNDED
        )
        svc.attach(
            spec,
            source=FlakySource(spark_records(55), failures=10**9),
            sink=ListSink(),
        )
        for _ in range(6):
            svc.cycle()
            clock.advance(5.0)
        assert svc.tenant("t1").quarantined is not None
        log_path = tmp_path / "t1.log"
        log_path.write_text("")
        new_spec = TenantSpec(
            tenant_id="t1", model="spark-prod", version=2,
            log_path=str(log_path), **UNBOUNDED
        )
        summary = apply_tenants(svc, [new_spec])
        assert set(summary) == {
            "attached", "detached", "swapped", "kept"
        }
        tenant = svc.tenant("t1")
        assert tenant.quarantined is None
        assert svc.supervisor.state("t1") == RUNNING


class TestServeExitCodes:
    def test_dead_fleet_exits_2_with_fleet_line(
        self, tmp_path, spark_model, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.serve.tenant import Tenant

        reg = ModelRegistry(tmp_path / "registry")
        reg.publish(ModelStore.from_intellog(spark_model), "prod")
        log_path = tmp_path / "app.log"
        log_path.write_text("")
        tenants = tmp_path / "tenants.json"
        tenants.write_text(json.dumps({
            "tenants": [{
                "id": "t1", "model": "prod",
                "log": str(log_path),
                "reports": str(tmp_path / "t1.jsonl"),
            }],
        }))

        def explode(self, quantum):
            raise RuntimeError("wedged")

        monkeypatch.setattr(Tenant, "pump", explode)
        code = main([
            "serve",
            "--tenants", str(tenants),
            "--registry", str(tmp_path / "registry"),
            "--drain",
            "--restart-budget", "1",
            "--poll-interval", "0.01",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "FLEET dead" in err
        assert "error: tenant t1 is parked" in err

    def test_metrics_out_holds_the_fleet_as_the_run_left_it(
        self, tmp_path, spark_model, monkeypatch
    ):
        """The snapshot is written after the tenants are detached, and
        still reads the drained fleet: both tenants, one quarantined."""
        from repro.cli import main
        from repro.serve.tenant import Tenant

        reg = ModelRegistry(tmp_path / "registry")
        reg.publish(ModelStore.from_intellog(spark_model), "prod")
        entries = []
        for tid in ("bad", "good"):
            log_path = tmp_path / f"{tid}.log"
            log_path.write_text("")
            entries.append({
                "id": tid, "model": "prod", "log": str(log_path),
                "reports": str(tmp_path / f"{tid}.jsonl"),
            })
        tenants = tmp_path / "tenants.json"
        tenants.write_text(json.dumps({"tenants": entries}))
        pump = Tenant.pump

        def explode_bad(self, quantum):
            if self.tenant_id == "bad":
                raise RuntimeError("wedged")
            return pump(self, quantum)

        monkeypatch.setattr(Tenant, "pump", explode_bad)
        metrics_out = tmp_path / "metrics.json"
        code = main([
            "serve",
            "--tenants", str(tenants),
            "--registry", str(tmp_path / "registry"),
            "--drain",
            "--restart-budget", "1",
            "--poll-interval", "0.01",
            "--metrics-out", str(metrics_out),
        ])
        assert code == 3
        metrics = json.loads(metrics_out.read_text())["metrics"]

        def value(name):
            [sample] = metrics[name]["samples"]
            return sample["value"]

        assert value("serve_active_tenants") == 2
        assert value("serve_quarantined_tenants") == 1
        assert value("serve_failed_tenants") == 1
        assert value("serve_registry_live_models") == 1
