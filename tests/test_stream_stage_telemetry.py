"""Stage telemetry of the stream and serve runtimes.

A :class:`~repro.stream.StreamRuntime` times its own pipeline stages
into ``stream_stage_seconds{stage}``, one observation per stage per
batch that ran it, and each delivered report's age into
``stream_report_delay_seconds``.  The detector it instruments keeps its
``detect_*`` counters but records no ``detect.*`` spans; only a detector
handed a tracer (``repro detect --metrics-out``) does.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import IntelLog
from repro.cli import main
from repro.core import ServeConfig
from repro.obs import SPAN_HISTOGRAM
from repro.query.store import ModelStore
from repro.serve import DetectionService, ModelRegistry, TenantSpec
from repro.simulators import (
    MapReduceConfig,
    MapReduceSimulator,
    WorkloadGenerator,
    sessions_of,
)
from repro.stream import IterableSource, ListSink, StreamRuntime
from repro.stream.runtime import STAGES
from test_cli import render_hadoop_lines

DETECT_SPANS = ("detect.session", "detect.match", "detect.extract",
                "detect.subroutines", "detect.hierarchy")


def mr_records(seed: int, jobs: int = 3):
    batch = WorkloadGenerator(seed=seed).run_batch("mapreduce", jobs)
    return sorted(
        (r for job in batch for r in job.records), key=lambda r: r.timestamp
    )


def stage_counts(registry) -> dict[str, int]:
    histogram = registry.get("stream_stage_seconds")
    return {stage: histogram.labels(stage=stage).count for stage in STAGES}


def stage_sums(registry) -> dict[str, float]:
    histogram = registry.get("stream_stage_seconds")
    return {stage: histogram.labels(stage=stage).sum for stage in STAGES}


def detect_span_counts(registry) -> dict[str, int]:
    spans = registry.get(SPAN_HISTOGRAM)
    if spans is None:
        return dict.fromkeys(DETECT_SPANS, 0)
    return {name: spans.labels(span=name).count for name in DETECT_SPANS}


class BatchLog:
    """The stages each batch of a runtime ran, seen from outside it.

    A batch is a cycle that polled records, or the close-out at the end
    of ``run``.  The wrappers only note which stage's work happened."""

    def __init__(self, runtime: StreamRuntime) -> None:
        self.batches: list[set[str]] = []
        self._current: set[str] = set()
        self._wrap(runtime, "_cycle", self._cycle)
        self._wrap(runtime, "_close_out", self._close_out)
        self._wrap(runtime.source, "poll", self._poll)
        self._wrap(runtime.tracker, "flush", self._note("track"))
        self._wrap(runtime.detector, "finalize", self._note("finalize"))
        self._wrap(runtime.sink, "emit", self._note("sink"))
        self._wrap(runtime._journal, "append", self._note("checkpoint"))
        self._wrap(runtime, "_save_snapshot", self._note("checkpoint"))

    @staticmethod
    def _wrap(obj, name, make):
        setattr(obj, name, make(getattr(obj, name)))

    def _note(self, stage):
        def make(fn):
            def wrapper(*args, **kwargs):
                self._current.add(stage)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _poll(self, fn):
        def poll(*args):
            batch = fn(*args)
            if batch:
                self._current |= {"poll", "match", "track"}
            return batch
        return poll

    def _cycle(self, fn):
        def cycle(*args):
            self._current = set()
            got = fn(*args)
            if got:
                self.batches.append(self._current)
            return got
        return cycle

    def _close_out(self, fn):
        def close_out(*args, **kwargs):
            self._current = set()
            stats = fn(*args, **kwargs)
            self.batches.append(self._current)
            return stats
        return close_out

    def expected_counts(self) -> dict[str, int]:
        return {
            stage: sum(stage in batch for batch in self.batches)
            for stage in STAGES
        }


@pytest.fixture()
def mr_detector(mr_model):
    # A reloaded copy, so the shared fixture model stays uninstrumented.
    return ModelStore.from_intellog(mr_model).to_intellog().detector()


class TestStreamRuntime:
    def test_each_stage_observed_once_per_batch_that_ran_it(
        self, tmp_path, mr_detector
    ):
        records = mr_records(seed=77)
        runtime = StreamRuntime(
            mr_detector, IterableSource(records),
            checkpoint_path=tmp_path / "ckpt.json",
            poll_batch=64, checkpoint_every=700,
        )
        log = BatchLog(runtime)
        t0 = time.perf_counter()
        stats = runtime.run(once=True)
        wall = time.perf_counter() - t0

        counts = stage_counts(runtime.registry)
        assert counts == log.expected_counts()
        # Every stage ran, in some batches only: closures, deliveries
        # and journal appends do not happen in every poll batch.
        polled = counts["poll"]
        assert polled == -(-len(records) // 64)
        assert all(counts[stage] > 0 for stage in STAGES)
        assert counts["finalize"] < polled + 1
        assert counts["checkpoint"] < polled + 1
        sums = stage_sums(runtime.registry)
        assert all(seconds > 0 for seconds in sums.values())
        assert sum(sums.values()) <= wall

        delay = runtime.registry.get("stream_report_delay_seconds")
        assert stats.reports > 0
        assert delay.count == stats.reports
        assert 0 < delay.sum <= wall * stats.reports

    def test_no_detect_spans_and_counters_kept(self, mr_detector):
        records = mr_records(seed=78)
        runtime = StreamRuntime(mr_detector, IterableSource(records))
        stats = runtime.run(once=True)
        registry = runtime.registry
        assert registry.get(SPAN_HISTOGRAM) is None
        assert detect_span_counts(registry) == dict.fromkeys(DETECT_SPANS, 0)
        assert registry.get("detect_sessions_total").value == stats.reports
        assert registry.get("detect_records_total").value == len(records)
        anomalies = sum(
            value
            for _, value in registry.get("detect_anomalies_total").samples()
        )
        assert anomalies == sum(stats.anomalies_by_kind.values())

    def test_cycles_that_poll_nothing_observe_nothing(
        self, tmp_path, mr_detector
    ):
        runtime = StreamRuntime(
            mr_detector, IterableSource([]),
            checkpoint_path=tmp_path / "ckpt.json",
        )
        for _ in range(5):
            assert runtime.step() == 0
        assert stage_counts(runtime.registry) == dict.fromkeys(STAGES, 0)
        assert runtime.registry.get("stream_report_delay_seconds").count == 0

    def test_forced_eviction_is_one_batch(self, mr_detector):
        records = mr_records(seed=79, jobs=1)
        runtime = StreamRuntime(
            mr_detector, IterableSource(records), poll_batch=len(records),
        )
        # One poll of everything: whatever the tracker left open is
        # force-closed as one more batch.
        assert runtime.step() == len(records)
        before = stage_counts(runtime.registry)
        open_sessions = runtime.tracker.open_count
        assert open_sessions > 0
        assert runtime.force_evict(open_sessions) == open_sessions
        after = stage_counts(runtime.registry)
        assert {s: after[s] - before[s] for s in STAGES} == {
            "poll": 0, "match": 0, "track": 1,
            "finalize": 1, "sink": 1, "checkpoint": 0,
        }


class TestServe:
    def test_service_records_no_detect_spans(
        self, tmp_path, spark_model, spark_training_jobs
    ):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(ModelStore.from_intellog(spark_model), "spark")
        svc = DetectionService(registry, ServeConfig(quantum=25))
        streams = {}
        for tid, seed in (("t-a", 11), ("t-b", 22)):
            batch = WorkloadGenerator(seed=seed).run_batch("spark", 2)
            streams[tid] = sorted(
                (r for job in batch for r in job.records),
                key=lambda r: r.timestamp,
            )
            svc.attach(
                TenantSpec(tenant_id=tid, model="spark"),
                source=IterableSource(streams[tid]), sink=ListSink(),
            )
        for _ in range(3):
            assert svc.cycle() > 0
        # A swapped-in detector is instrumented the same way.
        v2 = IntelLog()
        v2.train(sessions_of(spark_training_jobs[:6]))
        registry.publish(ModelStore.from_intellog(v2), "spark")
        svc.swap("t-a")
        svc.drain()
        assert svc.tenant("t-a").swaps == 1
        assert svc.metrics.get(SPAN_HISTOGRAM) is None
        for tid, records in streams.items():
            tenant = svc.tenant(tid)
            stats = tenant.runtime.stats
            assert stats.records == len(records)
            assert tenant.registry.get(SPAN_HISTOGRAM) is None
            assert tenant.registry.get(
                "detect_sessions_total"
            ).value == stats.reports
            counts = stage_counts(tenant.registry)
            assert counts["poll"] > 0 and counts["finalize"] > 0
            assert tenant.registry.get(
                "stream_report_delay_seconds"
            ).count == stats.reports
        svc.close()


def test_cli_detect_metrics_out_keeps_detect_spans(tmp_path, capsys):
    sim = MapReduceSimulator(seed=9)
    train_lines = []
    for i in range(3):
        job = sim.run_job("wordcount", MapReduceConfig(input_gb=2.0),
                          base_time=i * 3600.0)
        train_lines.extend(render_hadoop_lines(job))
    train_file = tmp_path / "train.log"
    train_file.write_text("\n".join(train_lines))
    detect_job = sim.run_job("wordcount", MapReduceConfig(input_gb=2.0),
                             base_time=90_000.0)
    detect_file = tmp_path / "detect.log"
    detect_file.write_text("\n".join(render_hadoop_lines(detect_job)))
    model_path = tmp_path / "model.json"
    main(["train", str(train_file), "--model", str(model_path),
          "--formatter", "hadoop"])
    snap_path = tmp_path / "detect-metrics.json"
    capsys.readouterr()
    main(["detect", str(detect_file), "--model", str(model_path),
          "--metrics-out", str(snap_path)])
    report = json.loads(capsys.readouterr().out)
    metrics = json.loads(snap_path.read_text())["metrics"]
    spans = {
        sample["labels"]["span"]: sample["count"]
        for sample in metrics[SPAN_HISTOGRAM]["samples"]
    }
    sessions = len(report["sessions"])
    assert sessions > 0
    assert spans["detect.session"] == sessions
    assert spans["detect.subroutines"] == sessions
    assert spans["detect.match"] == 1  # the one cross-session batch
