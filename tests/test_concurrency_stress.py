"""Threaded stress tests for the shared runtime surfaces.

The static gate (``tests/test_concurrency.py::TestRepoGate``) proves
the analyzer finds nothing to flag; these tests prove the fixed code
actually behaves under contention: eight threads hammer the metrics
registry, the span recorder, the quarantines, and a live
``StreamRuntime``'s stats view, and every total must come out exactly
conserved — a torn read or lost update fails deterministically on the
final count, not probabilistically on a sleep.

Regression anchors for the races fixed in this change:

* ``Histogram._configure`` vs ``observe`` (atomic bounds/counts swap);
* quarantine ``put``/``snapshot`` (lock-guarded counts);
* ``CircuitBreaker.degraded_seconds`` (stale-read TOCTOU on
  ``_unhealthy_since``).
"""

from __future__ import annotations

import json
import math
import sys
import threading

import pytest

from repro.obs import MetricsRegistry, TraceRecorder, Tracer
from repro.simulators import WorkloadGenerator
from repro.stream import (
    CircuitBreaker,
    IterableSource,
    JsonLinesQuarantine,
    ListQuarantine,
    ListSink,
    StreamRuntime,
)

THREADS = 8
N = 400


def hammer(fn, threads=THREADS):
    """Run ``fn(i)`` on ``threads`` threads, released together.

    Collects exceptions instead of dying in the worker so a failure
    shows up as an assertion with the traceback, not a hung test.
    """
    barrier = threading.Barrier(threads)
    errors: list[BaseException] = []

    def runner(i: int) -> None:
        try:
            barrier.wait()
            fn(i)
        except BaseException as exc:  # noqa: PY002 - re-raised below
            errors.append(exc)

    workers = [
        threading.Thread(target=runner, args=(i,)) for i in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert not errors, errors


class TestMetricsRegistry:
    def test_counter_increments_conserved(self):
        registry = MetricsRegistry()
        counter = registry.counter("stress_total", "")
        hammer(lambda i: [counter.inc() for _ in range(N)])
        assert counter.value == THREADS * N

    def test_labeled_counter_concurrent_child_creation(self):
        # labels() creates children on demand; four shards churned by
        # eight threads exercises creation racing with increments.
        registry = MetricsRegistry()
        counter = registry.counter("stress_shards", "")

        def work(i: int) -> None:
            child = counter.labels(shard=str(i % 4))
            for _ in range(N):
                child.inc()

        hammer(work)
        totals = {
            labels["shard"]: value for labels, value in counter.samples()
        }
        assert totals == {str(s): 2 * N for s in range(4)}

    def test_labels_lookup_racing_child_creation(self):
        # Every increment looks its child up again, in both keyword
        # orders, while other threads create the same children: the
        # unlocked raw-key lookup must never hand out a second child
        # for one label set or lose an increment.
        registry = MetricsRegistry()
        counter = registry.counter("stress_lookup_total", "")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(i: int) -> None:
                for k in range(N):
                    a, b = str(k % 16), str(i % 2)
                    if (i + k) % 2:
                        counter.labels(a=a, b=b).inc()
                    else:
                        counter.labels(b=b, a=a).inc()

            hammer(work)
        finally:
            sys.setswitchinterval(interval)
        samples = counter.samples()
        assert len(samples) == len(counter._children) == 32
        assert sum(value for _, value in samples) == THREADS * N
        for labels, _ in samples:
            child = counter._children[tuple(sorted(labels.items()))]
            assert counter.labels(**labels) is child
            assert counter.labels(**dict(reversed(labels.items()))) is child

    def test_histogram_totals_conserved(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "stress_lat", "", buckets=[1.0, 2.0, 4.0, 8.0]
        )
        hammer(lambda i: [hist.observe(float(k % 10)) for k in range(N)])
        assert hist.count == THREADS * N
        per_thread = sum(k % 10 for k in range(N))
        assert hist.sum == pytest.approx(THREADS * per_thread)
        # Cumulative buckets end at the exact total: no lost updates.
        assert hist.bucket_counts()[-1] == (math.inf, THREADS * N)

    def test_configure_racing_observe_does_not_tear(self):
        # Regression: _configure used to swap _bounds and _counts
        # without the lock, so a concurrent observe() could index the
        # new bounds against the old counts list (IndexError / lost
        # update).  Eight observers run against repeated reconfigures;
        # the invariant is simply "no exception, shapes consistent".
        registry = MetricsRegistry()
        hist = registry.histogram("stress_cfg", "", buckets=[1.0, 2.0])
        stop = threading.Event()

        def reconfigure() -> None:
            widths = ([1.0, 2.0], [0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
            k = 0
            while not stop.is_set():
                hist._configure(widths[k % 2])
                k += 1

        flipper = threading.Thread(target=reconfigure)
        flipper.start()
        try:
            hammer(lambda i: [hist.observe(float(k % 20))
                              for k in range(N)])
        finally:
            stop.set()
            flipper.join()
        assert len(hist._counts) == len(hist._bounds) + 1
        # Post-race sanity: the histogram still works.
        hist.observe(1.5)
        assert hist.count >= 1


class TestTracerNesting:
    def test_nested_spans_stay_thread_local(self):
        recorder = TraceRecorder(capacity=THREADS * N * 3)
        tracer = Tracer(recorder)

        def work(i: int) -> None:
            for _ in range(N):
                with tracer.span("outer"):
                    with tracer.span("mid"):
                        with tracer.span("inner"):
                            pass

        hammer(work)
        records = recorder.records()
        assert recorder.total == THREADS * N * 3
        assert recorder.dropped == 0
        by_name = {}
        for rec in records:
            by_name.setdefault(rec.name, []).append(rec)
        # Parent/depth must reflect each thread's own stack even though
        # all eight threads interleave into one recorder.
        assert all(r.parent is None and r.depth == 0
                   for r in by_name["outer"])
        assert all(r.parent == "outer" and r.depth == 1
                   for r in by_name["mid"])
        assert all(r.parent == "mid" and r.depth == 2
                   for r in by_name["inner"])
        assert {len(v) for v in by_name.values()} == {THREADS * N}


class TestQuarantines:
    def test_list_quarantine_counts_conserved(self):
        quarantine = ListQuarantine()

        def work(i: int) -> None:
            reason = f"reason_{i % 4}"
            for k in range(N):
                quarantine.put(reason, f"line {i}/{k}", source=f"t{i}")
                # Interleave reads with writes: snapshot() must never
                # raise or see a half-updated dict.
                snap = quarantine.snapshot()
                assert all(v >= 0 for v in snap.values())

        hammer(work)
        assert quarantine.snapshot() == {
            f"reason_{s}": 2 * N for s in range(4)
        }
        assert len(quarantine.entries) == THREADS * N

    def test_jsonl_quarantine_file_intact(self, tmp_path):
        path = tmp_path / "dead_letters.jsonl"
        quarantine = JsonLinesQuarantine(path)

        def work(i: int) -> None:
            for k in range(N):
                quarantine.put(f"reason_{i % 2}", f"line {i}/{k}")

        hammer(work)
        quarantine.close()
        assert quarantine.snapshot() == {
            "reason_0": THREADS * N // 2, "reason_1": THREADS * N // 2,
        }
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == THREADS * N
        # Every line is individually parseable: concurrent appends may
        # interleave lines but never split one.
        assert all(json.loads(line)["reason"].startswith("reason_")
                   for line in lines)


class TestStreamRuntimeStats:
    def test_stats_view_safe_during_live_run(self, spark_model):
        gen = WorkloadGenerator(seed=77)
        jobs = gen.run_batch("spark", 2)
        records = sorted(
            (r for job in jobs for r in job.records),
            key=lambda r: r.timestamp,
        )
        runtime = StreamRuntime(
            spark_model, IterableSource(records), sink=ListSink()
        )
        done = threading.Event()
        errors: list[BaseException] = []

        def read_stats() -> None:
            try:
                while not done.is_set():
                    stats = runtime.stats
                    payload = stats.to_dict()
                    assert payload["records"] >= 0
                    assert stats.degraded_s >= 0.0
                    assert all(v >= 0
                               for v in stats.quarantined.values())
            except BaseException as exc:
                errors.append(exc)

        readers = [
            threading.Thread(target=read_stats) for _ in range(THREADS)
        ]
        for r in readers:
            r.start()
        try:
            final = runtime.run(once=True)
        finally:
            done.set()
            for r in readers:
                r.join()
        assert not errors, errors
        assert final.records == len(records)


class TestCircuitBreakerClockRace:
    def test_degraded_seconds_survives_concurrent_reset(self):
        # Regression: degraded_seconds() read _unhealthy_since twice —
        # None-check, then subtraction — so a record_success() between
        # the two raised TypeError in the stats thread.  The adversarial
        # clock simulates that exact interleaving deterministically by
        # clearing the field *during* the read.
        state: dict = {"breaker": None, "sabotage": False}

        def clock() -> float:
            breaker = state["breaker"]
            if breaker is not None and state["sabotage"]:
                breaker._unhealthy_since = None
            return 10.0

        breaker = CircuitBreaker(degraded_after=1, clock=clock)
        state["breaker"] = breaker
        breaker.record_failure()
        assert breaker.state != "healthy"
        state["sabotage"] = True
        # Old code: TypeError (float - None).  Fixed code: the single
        # snapshot read makes this a plain number either way.
        assert breaker.degraded_seconds() >= 0.0

    def test_degraded_seconds_under_contention(self):
        ticks = {"t": 0.0}

        def clock() -> float:
            ticks["t"] += 0.001
            return ticks["t"]

        breaker = CircuitBreaker(degraded_after=1, clock=clock)

        def work(i: int) -> None:
            for k in range(N):
                if (i + k) % 3:
                    breaker.record_failure()
                else:
                    breaker.record_success()
                assert breaker.degraded_seconds() >= 0.0

        hammer(work)
        assert breaker.total_failures > 0
