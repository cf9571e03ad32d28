"""Multi-tenant serving soak: chaos-injected tenants, one sweep loop.

The serving analogue of ``test_stream_resilience``'s end-to-end chaos
run: three tenants, each following its own :class:`ChaosLogWriter`-
damaged hadoop-layout log file through a flaky source, scheduled by one
:class:`DetectionService` sweep thread sharing one registry model.  The
invariants:

* the service drains without any tenant failing;
* every tenant's reports are exactly-once (unique finalization ids);
* injected binary/encoding garbage lands in that tenant's quarantine;
* sessions untouched by injected faults match the batch pipeline
  byte-for-byte (clean-subset parity, per tenant);
* the ``/metrics`` and ``/tenants`` endpoints serve throughout.

Seeded via ``REPRO_CHAOS_SEED``; when ``REPRO_SERVE_ARTIFACTS`` names a
directory, the ``/metrics`` text, ``/tenants`` JSON and each tenant's
chaos log are copied there for CI upload.
"""

from __future__ import annotations

import datetime
import json
import os
import shutil
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro import IntelLog
from repro.core import ResilienceConfig, ServeConfig
from repro.obs import MetricsServer
from repro.parsing.formatters import default_registry
from repro.parsing.records import split_sessions
from repro.query.store import ModelStore
from repro.serve import DetectionService, ModelRegistry, TenantSpec
from repro.simulators import MapReduceConfig, MapReduceSimulator
from repro.stream import (
    ChaosLogWriter,
    FileFollowSource,
    FlakySource,
    ListSink,
    yarn_session_key,
)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))
_ARTIFACT_DIR = os.environ.get("REPRO_SERVE_ARTIFACTS")

FAST = dict(retry_base_delay=0.0, retry_max_delay=0.0, retry_jitter=0.0)

#: Close only on end markers / final flush — parity without timing.
UNBOUNDED = dict(idle_timeout=1e12, max_open_sessions=10**9)


def _artifact(name: str, content: str | bytes | Path) -> None:
    if not _ARTIFACT_DIR:
        return
    dest = Path(_ARTIFACT_DIR)
    dest.mkdir(parents=True, exist_ok=True)
    if isinstance(content, Path):
        if content.exists():
            shutil.copy(content, dest / name)
        return
    mode = "wb" if isinstance(content, bytes) else "w"
    with open(dest / name, mode) as fp:
        fp.write(content)


def render_hadoop_lines(job) -> list[str]:
    lines = []
    for session in job.sessions:
        for record in session.records:
            stamp = datetime.datetime.utcfromtimestamp(
                record.timestamp + 1_500_000_000
            )
            text = stamp.strftime("%Y-%m-%d %H:%M:%S")
            ms = int((record.timestamp % 1) * 1000)
            lines.append(
                f"{text},{ms:03d} {record.level} "
                f"[{session.session_id}] "
                f"org.apache.hadoop.{record.source}: {record.message}"
            )
    return lines


@pytest.fixture(scope="module")
def hadoop_model():
    sim = MapReduceSimulator(seed=29)
    lines: list[str] = []
    for i in range(4):
        job = sim.run_job(
            "wordcount", MapReduceConfig(input_gb=2.0),
            base_time=i * 3600.0,
        )
        lines.extend(render_hadoop_lines(job))
    intellog = IntelLog()
    intellog.train_lines(lines, formatter="hadoop")
    return intellog


def batch_reports(model: IntelLog, lines: list[str]) -> dict[str, dict]:
    formatter = default_registry().get("hadoop")
    records = [yarn_session_key(r) for r in formatter.parse_lines(lines)]
    detector = model.detector()
    return {
        s.session_id: detector.detect_session(s).to_dict()
        for s in split_sessions(records)
    }


def test_three_chaos_tenants_soak(hadoop_model, tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    _, digest = registry.publish(
        ModelStore.from_intellog(hadoop_model), "hadoop-prod"
    )

    # Per-tenant chaos-damaged log files with disjoint seeded streams.
    tenants: dict[str, dict] = {}
    for i, tid in enumerate(("team-a", "team-b", "team-c")):
        sim = MapReduceSimulator(seed=100 + 7 * i)
        lines: list[str] = []
        for j in range(2):
            job = sim.run_job(
                "wordcount", MapReduceConfig(input_gb=2.0),
                base_time=90_000.0 + j * 3600.0,
            )
            lines.extend(render_hadoop_lines(job))
        rng = np.random.default_rng(CHAOS_SEED * 1000 + i)
        log_path = tmp_path / f"{tid}.log"
        writer = ChaosLogWriter(
            log_path, rng,
            torn_rate=0.01, duplicate_rate=0.01,
            binary_rate=0.01, encoding_rate=0.01,
        )
        writer.write_lines(lines)
        tenants[tid] = {
            "lines": lines, "writer": writer, "rng": rng,
            "log_path": log_path, "sink": ListSink(),
        }

    service = DetectionService(
        registry,
        ServeConfig(quantum=256),
        checkpoint_dir=tmp_path / "ckpt",
        resilience=ResilienceConfig(
            retry_attempts=4, failed_after=50, **FAST
        ),
    )
    for tid, ctx in tenants.items():
        service.attach(
            TenantSpec(
                tenant_id=tid, model="hadoop-prod", **UNBOUNDED
            ),
            source=FlakySource(
                FileFollowSource(ctx["log_path"], formatter="hadoop"),
                rng=ctx["rng"], fail_rate=0.05,
            ),
            sink=ctx["sink"],
        )

    server = MetricsServer(
        service.metrics, port=0,
        json_routes={"/tenants": service.tenants_status},
    )
    try:
        service.drain()
        base = f"http://127.0.0.1:{server.port}"
        with urllib.request.urlopen(base + "/metrics", timeout=5) as r:
            metrics_text = r.read().decode("utf-8")
        with urllib.request.urlopen(base + "/tenants", timeout=5) as r:
            tenants_doc = json.loads(r.read().decode("utf-8"))
    finally:
        server.close()

    _artifact(f"metrics-seed{CHAOS_SEED}.txt", metrics_text)
    _artifact(
        f"tenants-seed{CHAOS_SEED}.json",
        json.dumps(tenants_doc, indent=2, sort_keys=True),
    )
    for tid, ctx in tenants.items():
        _artifact(f"{tid}-seed{CHAOS_SEED}.log", ctx["log_path"])

    # Invariant: the chaos actually injected faults, and no tenant fell
    # over — flaky IO degrades and recovers, it never kills a stream.
    by_id = {t["tenant"]: t for t in tenants_doc["tenants"]}
    assert tenants_doc["fleet"]["active"] == 3
    assert registry.refcount(digest) == 3
    batch_model = ModelStore.load_path(
        registry.artifact_path(digest)
    ).to_intellog()
    for tid, ctx in tenants.items():
        writer = ctx["writer"]
        assert sum(writer.injected.values()) > 0, (
            f"{tid}: chaos injected nothing — raise rates or line count"
        )
        tenant = service.tenant(tid)
        stats = tenant.runtime.stats
        assert tenant.failure is None
        assert stats.health != "failed"
        assert by_id[tid]["failure"] is None

        # Exactly-once delivery per tenant despite retries.
        fids = ctx["sink"].emitted_ids()
        assert len(fids) == len(set(fids)), f"{tid}: duplicate report"
        assert stats.undelivered_reports == 0

        # Injected garbage is quarantined with a reason, per tenant.
        counts = stats.quarantined
        assert counts.get("binary", 0) == writer.injected["binary"]
        assert counts.get("decode_error", 0) == \
            writer.injected["encoding"]

        # Clean-subset parity: sessions the chaos never touched match
        # the batch pipeline byte-for-byte.
        batch = batch_reports(batch_model, ctx["lines"])
        clean = set(batch) - writer.affected_sessions
        assert clean, f"{tid}: every session was hit — lower the rates"
        streamed = {
            r.session_id: r.to_dict()
            for r in ctx["sink"].reports
            if r.session_id in clean
        }
        assert streamed == {sid: batch[sid] for sid in clean}, (
            f"{tid}: clean-subset divergence from batch"
        )

    # The fleet metrics text names every tenant.
    for tid in tenants:
        assert f'serve_tenant_reports{{tenant="{tid}"}}' in metrics_text
    service.close()
    assert registry.refcount(digest) == 0
