"""Parallel training benchmark: wall speedup, model equality, honesty.

Trains the same corpus with the default ``train()`` (the sharded
pipeline run inline, ``workers=1``) as the baseline, then with
``workers`` = 1, 2, 4, and writes ``BENCH_train.json``
(``benchmarks/results/``) with:

* ``cpu_count`` — the benchmark host's core count, and ``gate`` — an
  explicit marker saying whether the wall-speedup bar was ``enforced``
  or ``skipped (cores<4)``.  CI fails the job when the marker is
  missing or inconsistent (``tools/check_train_gate.py``), so an
  under-provisioned runner can never silently skip the real gate;
* ``inline_wall`` and per-worker-count wall times / wall speedups over
  it.  On hosts with >= 4 cores the **measured** wall speedup is
  asserted: >= 1.5x at 4 workers and >= 1.0x at 2 (parallel must
  actually win, not just model a win);
* ``modeled_speedup`` — the critical-path speedup obtained by
  LPT-scheduling the measured per-batch CPU seconds onto N ideal cores
  and adding the parent's serial stages (merge, extraction, apply) —
  asserted >= 1.8x at 4 workers on every host, and recomputable from
  the serialized per-run ``report`` artifacts;
* ``model_equality`` — inline vs per-worker-count canonical model
  digests (asserted: byte-identical for every worker count);
* extraction-cache accounting (asserted conserved across worker
  counts) and per-batch payload bytes shipped over IPC.
"""

from __future__ import annotations

import json
import os
import time

from repro import IntelLog
from repro.parallel import ParallelReport
from repro.query.store import ModelStore
from repro.simulators import WorkloadGenerator, sessions_of

from bench_common import RESULTS_DIR, SCALE, write_result

TRAIN_JOBS = 10 * SCALE
WORKER_COUNTS = (1, 2, 4)
MODELED_SPEEDUP_FLOOR = 1.8
WALL_SPEEDUP_FLOOR_4 = 1.5
WALL_SPEEDUP_FLOOR_2 = 1.0
GATE_ENFORCED = "enforced"
GATE_SKIPPED = "skipped (cores<4)"


def _corpus():
    sessions = []
    for i, system in enumerate(("spark", "mapreduce")):
        gen = WorkloadGenerator(seed=500 + i)
        sessions.extend(sessions_of(gen.run_batch(system, TRAIN_JOBS)))
    return sessions


def _train(sessions, **kwargs):
    intellog = IntelLog()
    start = time.perf_counter()
    intellog.train(sessions, **kwargs)
    wall = time.perf_counter() - start
    return intellog, wall


def test_parallel_training_speedup_and_equality():
    sessions = _corpus()
    cpu_count = os.cpu_count() or 1

    # One untimed warm-up run builds the process-wide extractor (lexicon
    # + POS tagger) and fills the per-process NLP caches, so the timed
    # baseline does not pay that one-time cost alone.
    _train(sessions)
    inline, inline_wall = _train(sessions)
    inline_digest = ModelStore.from_intellog(inline).digest()

    results = {
        "scale": SCALE,
        "cpu_count": cpu_count,
        "gate": GATE_ENFORCED if cpu_count >= 4 else GATE_SKIPPED,
        "wall_speedup_floors": {
            "2": WALL_SPEEDUP_FLOOR_2,
            "4": WALL_SPEEDUP_FLOOR_4,
        },
        "corpus": {
            "systems": ["spark", "mapreduce"],
            "jobs_per_system": TRAIN_JOBS,
            "sessions": len(sessions),
            "records": sum(len(s.records) for s in sessions),
        },
        "inline_wall": inline_wall,
        "runs": {},
        "model_equality": {},
    }

    reports = {}
    for workers in WORKER_COUNTS:
        parallel, wall = _train(sessions, workers=workers)
        digest = ModelStore.from_intellog(parallel).digest()
        equal = digest == inline_digest
        results["model_equality"][str(workers)] = equal
        assert equal, (
            f"workers={workers}: model diverged from the inline run "
            f"({digest[:12]} != {inline_digest[:12]})"
        )
        report = parallel.last_parallel_report
        reports[workers] = report
        results["runs"][str(workers)] = {
            "wall": wall,
            "wall_speedup_vs_inline": inline_wall / wall,
            "pool_workers": report.pool_workers,
            "batches": report.batches,
            "batch_target_records": report.batch_target_records,
            "shards": report.shards,
            "distinct_forms": report.distinct_forms,
            "serial_overhead_s": report.serial_overhead,
            "payload_bytes_total": report.payload_bytes_total,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "cache_lookups": report.cache_lookups,
            # The complete artifact: modeled_speedup is recomputable
            # offline via ParallelReport.from_dict.
            "report": report.to_dict(),
        }

    # Cache accounting must be conserved: same corpus, same batch
    # layout, so hits + misses cannot depend on the worker count.
    lookup_totals = {w: r.cache_lookups for w, r in reports.items()}
    assert len(set(lookup_totals.values())) == 1, (
        f"extraction-cache lookups leak across worker counts: "
        f"{lookup_totals}"
    )

    # Modeled critical-path speedups from the workers=1 run, whose
    # per-batch CPU timings are free of pool oversubscription noise.
    base = reports[1]
    restored = ParallelReport.from_dict(
        json.loads(json.dumps(results["runs"]["1"]["report"]))
    )
    results["modeled_speedup"] = {
        str(n): base.modeled_speedup(n) for n in (2, 4, 8)
    }
    assert restored.modeled_speedup(4) == base.modeled_speedup(4), (
        "modeled speedup is not recomputable from the serialized report"
    )
    modeled_4 = base.modeled_speedup(4)
    assert modeled_4 >= MODELED_SPEEDUP_FLOOR, (
        f"modeled 4-worker speedup {modeled_4:.2f}x is below the "
        f"{MODELED_SPEEDUP_FLOOR}x floor — the pipeline's serial "
        f"fraction grew"
    )

    # The honest gate: on a host that can actually run 4 workers,
    # parallel training must WIN wall-clock, not just model a win.
    if results["gate"] == GATE_ENFORCED:
        wall_4 = results["runs"]["4"]["wall_speedup_vs_inline"]
        assert wall_4 >= WALL_SPEEDUP_FLOOR_4, (
            f"wall 4-worker speedup {wall_4:.2f}x on a {cpu_count}-core "
            f"host is below the {WALL_SPEEDUP_FLOOR_4}x floor"
        )
        wall_2 = results["runs"]["2"]["wall_speedup_vs_inline"]
        assert wall_2 >= WALL_SPEEDUP_FLOOR_2, (
            f"wall 2-worker speedup {wall_2:.2f}x on a {cpu_count}-core "
            f"host is below the {WALL_SPEEDUP_FLOOR_2}x floor"
        )

    text = json.dumps(results, indent=2)
    (RESULTS_DIR / "BENCH_train.json").write_text(text + "\n")

    lines = [
        f"corpus: {results['corpus']['sessions']} sessions / "
        f"{results['corpus']['records']} records "
        f"({results['corpus']['jobs_per_system']} jobs x "
        f"{len(results['corpus']['systems'])} systems), "
        f"host cpu_count={cpu_count}, wall gate: {results['gate']}",
        f"inline wall: {inline_wall:.3f}s",
    ]
    for workers in WORKER_COUNTS:
        run = results["runs"][str(workers)]
        lines.append(
            f"workers={workers}: wall {run['wall']:.3f}s "
            f"({run['wall_speedup_vs_inline']:.2f}x), "
            f"{run['batches']} batches (pool {run['pool_workers']}), "
            f"{run['payload_bytes_total']} payload bytes, "
            f"model identical: "
            f"{results['model_equality'][str(workers)]}"
        )
    lines.append(
        "modeled critical-path speedup: "
        + ", ".join(
            f"{n}w={results['modeled_speedup'][str(n)]:.2f}x"
            for n in (2, 4, 8)
        )
    )
    write_result("BENCH_train.txt", "\n".join(lines))
