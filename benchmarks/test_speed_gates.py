"""Timing gates: the speed floors no count-based check can express.

Three gates, each with a fixed bound; the module writes no file.

* **Modeled training speedup** — the critical-path speedup of the
  ``workers=1`` run's per-batch CPU seconds scheduled onto 4 ideal
  cores must reach ``MODELED_SPEEDUP_FLOOR``.  It does not depend on the
  host's cores, so it runs everywhere.
* **Wall training speedup** — real process pools must beat the inline
  run by ``WALL_SPEEDUP_FLOORS``.  It is only meaningful with 4 cores,
  so it is skipped below that with the reason ``gate: skipped
  (cores<4)``, visible under ``pytest -rs``.
* **Detect floor** — batch ``detect_job`` on an instrumented detector
  over a 3-job replay must run at least ``SPEEDUP_FLOOR`` times the
  recorded pre-index linear-scan baseline, in records/s, best of
  ``REPEATS`` timed runs after one warm-up.

The training gates come first in the file, but their order no longer
matters: the stage timings leave out full garbage collections, whose
length follows the process's whole heap, so the modeled speedup reads
the same with the detect gate's session-scoped models alive.

Run with ``python -m pytest benchmarks/test_speed_gates.py -rs``.
Correctness of the same paths (registry counts, stream parity, session
cap, model identity at any worker count) is pinned by tier-1 tests.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import IntelLog
from repro.obs import MetricsRegistry
from repro.parsing.records import split_sessions
from repro.simulators import WorkloadGenerator, sessions_of

from bench_common import SCALE, TRAIN_JOBS

REPLAY_JOBS = 3 * SCALE

#: Timing repeats per system; the fastest run is checked (the replay
#: takes tens of milliseconds, so one sample sits inside scheduler
#: noise).  One extra untimed warm-up run precedes the timed ones.
REPEATS = 5

#: Extra timed runs allowed when the first batch lands under the
#: floor — a shared CI runner can steal the whole first batch, and a
#: genuine regression fails all of these too.
MAX_EXTRA_REPEATS = 4

#: records/s of the pre-index linear-scan matcher on this workload
#: (REPRO_SCALE=1) — the denominator of the detect floor.
BASELINE_RECORDS_PER_S = {"spark": 8190, "mapreduce": 11731}
SPEEDUP_FLOOR = 5.0

MODELED_SPEEDUP_FLOOR = 1.8
WALL_SPEEDUP_FLOORS = {2: 1.0, 4: 1.5}


def _train(sessions, **kwargs):
    intellog = IntelLog()
    start = time.perf_counter()
    intellog.train(sessions, **kwargs)
    return intellog, time.perf_counter() - start


@pytest.fixture(scope="module")
def train_corpus():
    """2 systems x ``TRAIN_JOBS`` jobs, after one untimed warm-up run
    that builds the process-wide extractor and fills the NLP caches."""
    sessions = []
    for i, system in enumerate(("spark", "mapreduce")):
        gen = WorkloadGenerator(seed=500 + i)
        sessions.extend(sessions_of(gen.run_batch(system, TRAIN_JOBS)))
    _train(sessions)
    return sessions


def test_modeled_training_speedup(train_corpus):
    # The workers=1 run's per-batch CPU timings carry no pool
    # oversubscription noise.
    model, _ = _train(train_corpus, workers=1)
    modeled = model.last_parallel_report.modeled_speedup(4)
    assert modeled >= MODELED_SPEEDUP_FLOOR, (
        f"modeled 4-worker speedup {modeled:.2f}x is below the "
        f"{MODELED_SPEEDUP_FLOOR}x floor — the pipeline's serial "
        f"fraction grew"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="gate: skipped (cores<4)"
)
def test_wall_training_speedup(train_corpus):
    _, inline_wall = _train(train_corpus)
    for workers, floor in WALL_SPEEDUP_FLOORS.items():
        _, wall = _train(train_corpus, workers=workers)
        speedup = inline_wall / wall
        assert speedup >= floor, (
            f"wall {workers}-worker speedup {speedup:.2f}x on a "
            f"{os.cpu_count()}-core host is below the {floor}x floor"
        )


def _detect_elapsed(model, sessions):
    detector = model.detector().instrument(MetricsRegistry())
    start = time.perf_counter()
    detector.detect_job(sessions)
    return time.perf_counter() - start


@pytest.mark.parametrize("system", ["spark", "mapreduce"])
def test_detect_records_per_s_floor(models, generators, system):
    model = models[system]
    jobs = generators[system].run_batch(system, REPLAY_JOBS)
    records = sorted(
        (r for job in jobs for r in job.records), key=lambda r: r.timestamp
    )
    sessions = list(split_sessions(records))
    floor = SPEEDUP_FLOOR * BASELINE_RECORDS_PER_S[system]
    floor_elapsed = len(records) / floor

    _detect_elapsed(model, sessions)  # warm-up (allocator, OS caches)
    best = min(_detect_elapsed(model, sessions) for _ in range(REPEATS))
    for _ in range(MAX_EXTRA_REPEATS):
        if best <= floor_elapsed:
            break
        best = min(best, _detect_elapsed(model, sessions))

    records_per_s = round(len(records) / max(best, 1e-9))
    assert records_per_s >= floor, (
        f"{system}: {records_per_s} records/s is below the "
        f"{SPEEDUP_FLOOR}x floor ({floor:.0f}) over the "
        f"{BASELINE_RECORDS_PER_S[system]} records/s scan baseline"
    )
