#!/usr/bin/env python3
"""Multi-tenant serving: many streams, one process, one shared model.

Where ``streaming_live_detection.py`` runs one stream in one runtime,
this example drives the serving layer (``repro.serve``):

1. train a model on normal Spark runs and **publish** it into a
   versioned, content-addressed registry;
2. **attach three tenants** — each its own record stream — and watch
   them share a single in-memory model (ref-counted);
3. drain the fleet with the sweep scheduler — one thread pumping every
   tenant in id order (``service.run()`` would serve live instead,
   sweeping again as soon as a tenant's source reports a backlog and
   waiting at most ``ServeConfig.poll_interval`` otherwise) — then
   publish a v2 model and **atomically swap** one tenant onto it while
   the others keep their lease;
4. print the fleet status document the ``/tenants`` endpoint serves.

Run:  python examples/serve_multitenant.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro import IntelLog
from repro.core import ServeConfig
from repro.query.store import ModelStore
from repro.serve import DetectionService, ModelRegistry, TenantSpec
from repro.simulators import WorkloadGenerator, sessions_of
from repro.stream import IterableSource, ListSink


def train(seed: int, jobs: int) -> IntelLog:
    gen = WorkloadGenerator(seed=seed)
    intellog = IntelLog()
    intellog.train(sessions_of(gen.run_batch("spark", jobs)))
    return intellog


def tenant_stream(seed: int):
    gen = WorkloadGenerator(seed=seed)
    records = [
        r for job in gen.run_batch("spark", 2) for r in job.records
    ]
    records.sort(key=lambda r: r.timestamp)
    return records


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-serve-"))

    # --- 1. publish a model ------------------------------------------------
    registry = ModelRegistry(workdir / "registry")
    v1, d1 = registry.publish(
        ModelStore.from_intellog(train(seed=7, jobs=8)), "spark-prod"
    )
    print(f"published spark-prod@{v1} ({d1[:12]}...)")

    # --- 2. attach three tenants against the one shared model -------------
    service = DetectionService(
        registry,
        ServeConfig(quantum=128),
        checkpoint_dir=workdir / "ckpt",
    )
    sinks: dict[str, ListSink] = {}
    for tid, seed in (("team-a", 101), ("team-b", 202), ("team-c", 303)):
        sinks[tid] = ListSink()
        service.attach(
            TenantSpec(
                tenant_id=tid, model="spark-prod",
                idle_timeout=1e12, max_open_sessions=10**9,
            ),
            source=IterableSource(tenant_stream(seed)),
            sink=sinks[tid],
        )
    print(f"attached 3 tenants; model refcount = "
          f"{registry.refcount(d1)} (one in-memory copy)\n")

    # --- 3. drain, then swap one tenant to a new version ------------------
    service.drain()
    for tid, sink in sinks.items():
        anomalous = sum(1 for r in sink.reports if r.anomalous)
        print(f"  {tid}: {len(sink.reports)} reports, "
              f"{anomalous} anomalous, on "
              f"{service.tenant(tid).lease.ref}")

    v2, d2 = registry.publish(
        ModelStore.from_intellog(train(seed=7, jobs=6)), "spark-prod"
    )
    service.swap("team-a")          # parks the new lease...
    service.cycle()                 # ...the pump installs it between quanta
    print(f"\nswapped team-a -> spark-prod@{v2}; "
          f"refcounts v1={registry.refcount(d1)} "
          f"v2={registry.refcount(d2)} (others kept their lease)")

    # --- 4. the fleet document the /tenants endpoint serves ---------------
    status = service.tenants_status()
    print("\n/tenants:")
    print(json.dumps(status["fleet"], indent=2, sort_keys=True))
    service.close()


if __name__ == "__main__":
    main()
