"""Timing gate: the speed floor no count-based check can express.

One gate with a fixed bound; the module writes no file.

* **Detect floor** — batch ``detect_job`` on an instrumented detector
  over a 3-job replay must run at least ``SPEEDUP_FLOOR`` times the
  recorded pre-index linear-scan baseline, in records/s, best of
  ``REPEATS`` timed runs after one warm-up.

Run with ``python -m pytest benchmarks/test_speed_gates.py -rs``.
Correctness of the same path (registry counts, stream parity, session
cap) is pinned by tier-1 tests.
"""

from __future__ import annotations

import time

import pytest

from repro.obs import MetricsRegistry
from repro.parsing.records import split_sessions

from bench_common import SCALE

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
