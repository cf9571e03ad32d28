"""Hot-reload failure paths for the control plane (``repro.serve.admin``).

The tenants-file reload runs inside a serving loop, so every failure
mode must leave the previous fleet intact: an unreadable file, a file
that turns syntactically invalid mid-run, and a reload that races a
pending (not-yet-applied) model swap.
"""

from __future__ import annotations

import json

import pytest

from repro.core import ServeConfig
from repro.parsing.records import LogRecord
from repro.query.store import ModelStore
from repro.serve import (
    DetectionService,
    ModelRegistry,
    TenantSpec,
    apply_tenants,
    apply_tenants_file,
)
from repro.simulators import WorkloadGenerator
from repro.stream import IterableSource, ListSink

UNBOUNDED = dict(idle_timeout=1e12, max_open_sessions=10**9)


def spark_records(seed: int) -> list[LogRecord]:
    gen = WorkloadGenerator(seed=seed)
    batch = gen.run_batch("spark", 2)
    records = [r for job in batch for r in job.records]
    records.sort(key=lambda r: r.timestamp)
    return records


@pytest.fixture()
def registry(tmp_path, spark_model, spark_training_jobs):
    from repro import IntelLog
    from repro.simulators import sessions_of

    reg = ModelRegistry(tmp_path / "registry")
    reg.publish(ModelStore.from_intellog(spark_model), "spark-prod")
    v2 = IntelLog()
    v2.train(sessions_of(spark_training_jobs[:6]))
    reg.publish(ModelStore.from_intellog(v2), "spark-prod")
    return reg


@pytest.fixture()
def service(registry):
    svc = DetectionService(registry, ServeConfig(quantum=64))
    spec = TenantSpec(
        tenant_id="t1", model="spark-prod", version=1, **UNBOUNDED
    )
    svc.attach(
        spec, source=IterableSource(spark_records(55)), sink=ListSink()
    )
    return svc


class TestReloadFailurePaths:
    def test_unreadable_file_raises_and_fleet_survives(
        self, service, tmp_path
    ):
        with pytest.raises(OSError):
            apply_tenants_file(service, tmp_path / "missing.toml")
        assert service.tenant_ids == ["t1"]
        assert service.tenant("t1").failure is None

    def test_invalid_toml_mid_run_keeps_previous_fleet(
        self, service, tmp_path, registry
    ):
        # The run() loop applies a changed tenants file; when the new
        # contents are garbage the reload must log-and-keep, never
        # detach the running fleet or kill the loop.
        path = tmp_path / "tenants.toml"
        path.write_text('[[tenants]]\nid = "t1"\nmodel = "spark')
        with pytest.raises(Exception):
            apply_tenants_file(service, path)
        assert service.tenant_ids == ["t1"]
        # And through the serving loop's catch-all: mtime changed to a
        # still-broken file, loop keeps cycling.
        status = service.run(
            max_cycles=2,
            tenants_file=path,
            apply_tenants_file=apply_tenants_file,
        )
        assert [t["tenant"] for t in status["tenants"]] == ["t1"]

    def test_reload_survives_one_bad_entry(self, service, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({"tenants": [
            {"id": "t1", "model": "spark-prod", "version": 1},
            {"id": "ghost", "model": "no-such-model"},
        ]}))
        summary = apply_tenants_file(service, path)
        assert summary["kept"] == ["t1"]
        assert summary["attached"] == []  # ghost failed, logged, skipped
        assert service.tenant_ids == ["t1"]

    def test_reload_racing_a_pending_swap(self, service):
        # An operator swap is parked on the tenant but not yet applied
        # (no pump ran).  A reload that *pins the same target version*
        # must not double-swap or error; the pending lease still
        # installs on the next pump.
        version, _digest = service.swap("t1", 2)
        assert version == 2
        tenant = service.tenant("t1")
        assert tenant.swap_pending
        summary = apply_tenants(service, [TenantSpec(
            tenant_id="t1", model="spark-prod", version=2, **UNBOUNDED
        )])
        assert set(summary) == {
            "attached", "detached", "swapped", "kept"
        }
        service.cycle()  # applies whichever lease won the race
        assert tenant.lease.version == 2
        assert not tenant.swap_pending
        assert tenant.failure is None

    def test_reload_with_unchanged_spec_keeps_pending_swap(
        self, service
    ):
        service.swap("t1", 2)
        summary = apply_tenants(service, [TenantSpec(
            tenant_id="t1", model="spark-prod", version=1, **UNBOUNDED
        )])
        # Spec still names v1 (the tenant's current lease): kept, and
        # the operator's pending swap is not cancelled by the reload.
        assert summary["kept"] == ["t1"]
        tenant = service.tenant("t1")
        assert tenant.swap_pending
        service.cycle()
        assert tenant.lease.version == 2
