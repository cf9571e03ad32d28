"""Chaos and resilience tests for the streaming runtime.

Exercises the failure paths the resilience layer exists for: log
rotation/truncation mid-tail, malformed input quarantine, transient and
persistent IO failures through the retry/backoff/circuit-breaker
machinery, checkpoint corruption and the ``.bak`` recovery ladder,
exactly-once report emission across kill/resume, and a seeded
end-to-end chaos run (simulator job → corrupted log file → flaky
source/sink) asserting the core invariants:

* the runtime never crashes;
* every malformed line lands in quarantine with a reason code;
* no session report is lost or emitted twice;
* sessions untouched by injected faults match the batch pipeline
  byte-for-byte.

All randomness is seeded (``REPRO_CHAOS_SEED`` selects the seed, CI
runs several), so any failure is reproducible from the seed alone.
When ``REPRO_CHAOS_ARTIFACTS`` names a directory, the chaos run's log
file, quarantine and report stream are copied there for upload.
"""

from __future__ import annotations

import datetime
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import IntelLog
from repro.core import (
    CheckpointCorruptError,
    ResilienceConfig,
    StreamFailedError,
)
from repro.parsing.formatters import default_registry
from repro.parsing.records import split_sessions
from repro.simulators import (
    FaultPlan,
    FaultSpec,
    LOG_DUPLICATE,
    LOG_KINDS,
    LOG_TORN,
    LOG_TRUNCATE,
    MapReduceConfig,
    MapReduceSimulator,
    corrupt_log_lines,
)
from repro.stream import (
    ChaosLogWriter,
    FileFollowSource,
    FlakySink,
    FlakySource,
    IterableSource,
    JsonLinesQuarantine,
    JsonLinesSink,
    ListQuarantine,
    ListSink,
    StreamCheckpoint,
    StreamRuntime,
    TrackerConfig,
    backup_checkpoint_path,
    corrupt_checkpoint,
    yarn_session_key,
)

#: One chaos run per seed; CI sweeps several seeds via this env var.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))
_ARTIFACT_DIR = os.environ.get("REPRO_CHAOS_ARTIFACTS")

#: Tracker settings that only close on end markers / final flush, so
#: stream reports compare against batch without timing effects.
PARITY_TRACKER = TrackerConfig(idle_timeout=1e12, max_open_sessions=10**9)

#: Fast, twitchy resilience: no real sleeping in tests, degrade on the
#: first failure, fail after a handful.
FAST = dict(
    retry_base_delay=0.0, retry_max_delay=0.0, retry_jitter=0.0,
)

NO_SLEEP = {"sleep": lambda _s: None}


def _artifact(name: str, path: str | Path) -> None:
    if _ARTIFACT_DIR and Path(path).exists():
        dest = Path(_ARTIFACT_DIR)
        dest.mkdir(parents=True, exist_ok=True)
        shutil.copy(path, dest / name)


def render_hadoop_lines(job) -> list[str]:
    """Serialize a simulated job's records in the hadoop log4j layout."""
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


class FakeClock:
    """Monotonic clock advancing a fixed step per reading."""

    def __init__(self, step: float = 0.25) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@pytest.fixture(scope="module")
def hadoop_model(tmp_path_factory):
    """Model trained on clean hadoop-rendered MapReduce logs."""
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


@pytest.fixture(scope="module")
def detect_lines():
    """Clean rendered lines for two detection jobs (one seeded sim)."""
    sim = MapReduceSimulator(seed=31)
    lines: list[str] = []
    for i in range(2):
        job = sim.run_job(
            "wordcount", MapReduceConfig(input_gb=2.0),
            base_time=90_000.0 + i * 3600.0,
        )
        lines.extend(render_hadoop_lines(job))
    return lines


def batch_reports(model: IntelLog, lines: list[str]) -> dict[str, dict]:
    """Batch-pipeline verdicts keyed by session id, with the same
    yarn session attribution the file follower applies."""
    formatter = default_registry().get("hadoop")
    records = [yarn_session_key(r) for r in formatter.parse_lines(lines)]
    detector = model.detector()
    return {
        s.session_id: detector.detect_session(s).to_dict()
        for s in split_sessions(records)
    }


def stream_reports_from_jsonl(path: Path) -> list[dict]:
    return [
        json.loads(line) for line in path.read_text().splitlines()
    ]


def strip_delivery_keys(payload: dict) -> dict:
    return {
        k: v for k, v in payload.items()
        if k not in ("closed_reason", "finalization_id")
    }


# -- file follower: rotation / truncation / quarantine ---------------------


HEADER = "2017-07-14 02:40:0{i},000 INFO [container_01_{n:06d}] " \
         "org.apache.hadoop.Task: message number {n}"


def _lines(start: int, count: int) -> str:
    return "".join(
        HEADER.format(i=(start + j) % 10, n=start + j) + "\n"
        for j in range(count)
    )


class TestFileFollowerFaults:
    def test_rotation_mid_tail_reseeks_and_keeps_records(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text(_lines(0, 5))
        source = FileFollowSource(path, formatter="hadoop")
        first = source.poll(100)
        assert len(first) == 4  # fifth record held back pending

        # Rotate: a brand-new file (new inode) appears under the path.
        rotated = tmp_path / "app.log.new"
        rotated.write_text(_lines(100, 3))
        os.replace(rotated, path)
        second = source.poll(100)
        assert source.rotations == 1
        # The held-back old record is released, then the new content
        # is read from offset 0 — nothing lost, nothing stale.
        assert [r.message for r in second[:1]] == ["message number 4"]
        assert [r.message for r in second[1:]] == [
            "message number 100", "message number 101",
        ]

    def test_truncation_mid_tail_restarts_from_new_start(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text(_lines(0, 6))
        source = FileFollowSource(path, formatter="hadoop")
        source.poll(100)
        # Writer truncated and started over with fewer bytes.
        path.write_text(_lines(200, 2))
        batch = source.poll(100)
        assert source.truncations == 1
        messages = [r.message for r in batch]
        assert "message number 200" in messages[1]

    def test_quarantine_reasons(self, tmp_path):
        path = tmp_path / "app.log"
        with open(path, "wb") as fp:
            fp.write(b"orphan continuation with no header\n")
            fp.write(_lines(0, 2).encode())
            fp.write(b"\x00\x01binary\x00garbage\n")
            fp.write(b"\xff\xfe bad utf8 \xc3\x28\n")
            fp.write(_lines(10, 1).encode())
            fp.write(b"2017-07-14 02:40:09,000 INFO [container_x] trunc")
        source = FileFollowSource(path, formatter="hadoop")
        source.poll(100)
        tail = source.finalize()
        assert tail  # pending record released at end of input
        counts = source.quarantine.counts
        assert counts["unparseable"] == 1
        assert counts["binary"] == 1
        assert counts["decode_error"] == 1
        assert counts["truncated_record"] == 1
        reasons = {e["reason"] for e in source.quarantine.entries}
        assert reasons == {
            "unparseable", "binary", "decode_error", "truncated_record",
        }
        # Quarantined lines keep their text and byte offset.
        assert all("line" in e for e in source.quarantine.entries)

    def test_jsonl_quarantine_writes_reason_records(self, tmp_path):
        qpath = tmp_path / "quarantine.jsonl"
        quarantine = JsonLinesQuarantine(qpath)
        path = tmp_path / "app.log"
        path.write_bytes(b"garbage first line\n" + _lines(0, 2).encode())
        source = FileFollowSource(
            path, formatter="hadoop", quarantine=quarantine
        )
        source.poll(100)
        entries = [
            json.loads(line) for line in qpath.read_text().splitlines()
        ]
        assert entries[0]["reason"] == "unparseable"
        assert entries[0]["line"] == "garbage first line"
        assert entries[0]["offset"] == 0


# -- checkpoint corruption and recovery ------------------------------------


def _make_checkpoint(position: int = 5) -> StreamCheckpoint:
    return StreamCheckpoint(
        source_position={"kind": "iterable", "index": position},
        tracker_state={"watermark": None, "open": []},
        counters={"records": position},
        finalized=[f"fid{position}"],
    )


class TestCheckpointRecovery:
    @pytest.mark.parametrize("mode", ["truncate", "garble", "shape"])
    def test_corrupt_live_falls_back_to_bak(self, tmp_path, mode):
        path = tmp_path / "ckpt.json"
        _make_checkpoint(5).save(path)
        _make_checkpoint(9).save(path)  # rotates 5 -> .bak
        corrupt_checkpoint(path, np.random.default_rng(CHAOS_SEED), mode)
        checkpoint, origin, notes = StreamCheckpoint.recover(path)
        assert origin == "backup"
        assert checkpoint is not None
        assert checkpoint.counters["records"] == 5
        assert any("unusable" in n for n in notes)
        assert any("recovered from backup" in n for n in notes)

    def test_both_corrupt_is_loud_cold_start(self, tmp_path):
        path = tmp_path / "ckpt.json"
        _make_checkpoint(5).save(path)
        _make_checkpoint(9).save(path)
        rng = np.random.default_rng(CHAOS_SEED)
        corrupt_checkpoint(path, rng, "truncate")
        corrupt_checkpoint(backup_checkpoint_path(path), rng, "truncate")
        checkpoint, origin, notes = StreamCheckpoint.recover(path)
        assert checkpoint is None
        assert origin == "cold"
        assert any("COLD START" in n for n in notes)

    def test_fresh_start_is_silent(self, tmp_path):
        checkpoint, origin, notes = StreamCheckpoint.recover(
            tmp_path / "never-written.json"
        )
        assert (checkpoint, origin, notes) == (None, "fresh", [])

    def test_checksum_mismatch_raises_typed_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        _make_checkpoint(5).save(path)
        payload = json.loads(path.read_text())
        payload["counters"]["records"] = 999  # tamper
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            StreamCheckpoint.load(path)

    def test_shape_mismatch_raises_typed_error(self):
        with pytest.raises(CheckpointCorruptError, match="tracker_state"):
            StreamCheckpoint.from_dict(
                {"version": 1, "tracker_state": []}
            )
        with pytest.raises(CheckpointCorruptError, match="version"):
            StreamCheckpoint.from_dict({"version": 99})
        with pytest.raises(CheckpointCorruptError, match="expected an"):
            StreamCheckpoint.from_dict([1, 2, 3])

    def test_save_is_atomic_with_rolling_bak(self, tmp_path):
        path = tmp_path / "ckpt.json"
        _make_checkpoint(1).save(path)
        assert not backup_checkpoint_path(path).exists()
        _make_checkpoint(2).save(path)
        bak = StreamCheckpoint.load(backup_checkpoint_path(path))
        live = StreamCheckpoint.load(path)
        assert bak.counters["records"] == 1
        assert live.counters["records"] == 2


# -- retry / circuit breaker / health machine ------------------------------


class TestHealthStateMachine:
    def _runtime(self, model, source, sink=None, **kwargs):
        resilience = kwargs.pop("resilience", None) or ResilienceConfig(
            retry_attempts=3, degraded_after=1, failed_after=6, **FAST
        )
        return StreamRuntime(
            model, source, sink=sink or ListSink(),
            tracker=PARITY_TRACKER, resilience=resilience,
            clock=FakeClock(), **NO_SLEEP, **kwargs,
        )

    def test_transient_outage_degrades_then_recovers(
        self, spark_model, tmp_path
    ):
        gen_records = _spark_records(seed=61)
        source = FlakySource(IterableSource(gen_records), fail_first=2)
        transitions: list[tuple[str, str]] = []
        runtime = self._runtime(
            spark_model, source,
            on_health=lambda old, new, why: transitions.append((old, new)),
        )
        stats = runtime.run(once=True)
        assert stats.health == "healthy"
        assert stats.io_failures == 2
        assert stats.degraded_s > 0.0
        assert ("healthy", "degraded") in transitions
        assert ("degraded", "healthy") in transitions
        # The outage lost nothing: full batch parity afterwards.
        batch = spark_model.detect_job(split_sessions(gen_records))
        assert stats.reports == len(batch.sessions)

    def test_persistent_outage_fails_safe_without_raising(
        self, spark_model, tmp_path
    ):
        source = FlakySource(
            IterableSource(_spark_records(seed=61)), fail_first=10**6
        )
        ckpt = tmp_path / "ckpt.json"
        runtime = self._runtime(spark_model, source, checkpoint_path=ckpt)
        stats = runtime.run(once=True)  # must not raise
        assert stats.health == "failed"
        assert "source.poll" in stats.failure
        assert stats.reports == 0
        # The runtime parked at a checkpoint for a later resume.
        assert ckpt.exists()

    def test_fail_fast_raises_typed_error(self, spark_model):
        source = FlakySource(
            IterableSource(_spark_records(seed=61)), fail_first=10**6
        )
        resilience = ResilienceConfig(
            retry_attempts=2, failed_after=4, fail_fast=True, **FAST
        )
        runtime = self._runtime(
            spark_model, source, resilience=resilience
        )
        with pytest.raises(StreamFailedError):
            runtime.run(once=True)

    def test_flaky_sink_parks_reports_in_outbox_then_delivers(
        self, spark_model
    ):
        records = _spark_records(seed=61)
        sink = FlakySink(ListSink(), fail_first=4)
        runtime = self._runtime(
            spark_model, IterableSource(records), sink=sink
        )
        stats = runtime.run(once=True)
        # Retries + outbox redelivery: every report arrives exactly once.
        batch = spark_model.detect_job(split_sessions(records))
        assert len(sink.inner.reports) == len(batch.sessions)
        fids = sink.inner.emitted_ids()
        assert len(fids) == len(set(fids))
        assert stats.health in ("healthy", "degraded")


def _spark_records(seed: int):
    from repro.simulators import WorkloadGenerator

    gen = WorkloadGenerator(seed=seed)
    jobs = gen.run_batch("spark", 2)
    records = [r for job in jobs for r in job.records]
    records.sort(key=lambda r: r.timestamp)
    return records


# -- exactly-once finalization across kill/resume --------------------------


class TestExactlyOnce:
    def _run(self, model, records, ckpt, out, max_records=None,
             checkpoint_every=50):
        runtime = StreamRuntime(
            model,
            IterableSource(records),
            sink=JsonLinesSink(out),
            tracker=PARITY_TRACKER,
            checkpoint_path=ckpt,
            checkpoint_every=checkpoint_every,
            resilience=ResilienceConfig(**FAST),
            **NO_SLEEP,
        )
        stats = runtime.run(once=True, max_records=max_records)
        return runtime, stats

    def test_kill_resume_emits_every_report_exactly_once(
        self, spark_model, tmp_path
    ):
        records = _spark_records(seed=67)
        ckpt = tmp_path / "ckpt.json"
        out = tmp_path / "reports.jsonl"
        # "Kill" mid-job: pause after half the records (state is only
        # what the checkpoint captured), then resume in a new runtime.
        self._run(spark_model, records, ckpt, out,
                  max_records=len(records) // 2)
        runtime2, _ = self._run(spark_model, records, ckpt, out)
        assert runtime2.resumed and runtime2.resume_origin == "checkpoint"

        payloads = stream_reports_from_jsonl(out)
        fids = [p["finalization_id"] for p in payloads]
        assert len(fids) == len(set(fids)), "a report was emitted twice"
        batch = spark_model.detect_job(split_sessions(records))
        assert {p["session_id"] for p in payloads} == {
            s.session_id for s in batch.sessions
        }
        by_sid = {
            p["session_id"]: strip_delivery_keys(p) for p in payloads
        }
        assert by_sid == {
            s.session_id: s.to_dict() for s in batch.sessions
        }

    def test_corrupt_checkpoint_resume_still_exactly_once(
        self, spark_model, tmp_path
    ):
        records = _spark_records(seed=67)
        ckpt = tmp_path / "ckpt.json"
        out = tmp_path / "reports.jsonl"
        # Small checkpoint_every so a .bak exists by the pause point.
        self._run(spark_model, records, ckpt, out,
                  max_records=len(records) * 2 // 3, checkpoint_every=20)
        assert backup_checkpoint_path(ckpt).exists()
        corrupt_checkpoint(
            ckpt, np.random.default_rng(CHAOS_SEED), "garble"
        )
        runtime2, _ = self._run(spark_model, records, ckpt, out)
        assert runtime2.resume_origin == "backup"
        assert runtime2.resume_notes

        payloads = stream_reports_from_jsonl(out)
        fids = [p["finalization_id"] for p in payloads]
        assert len(fids) == len(set(fids)), (
            "backup rewind re-emitted a report"
        )
        batch = spark_model.detect_job(split_sessions(records))
        assert {p["session_id"] for p in payloads} == {
            s.session_id for s in batch.sessions
        }

    def test_cold_start_dedupes_via_sink_delivery_log(
        self, spark_model, tmp_path
    ):
        records = _spark_records(seed=67)
        ckpt = tmp_path / "ckpt.json"
        out = tmp_path / "reports.jsonl"
        self._run(spark_model, records, ckpt, out, checkpoint_every=20)
        first = stream_reports_from_jsonl(out)
        assert first
        # Lose BOTH checkpoint and backup: full cold-start replay.
        rng = np.random.default_rng(CHAOS_SEED)
        corrupt_checkpoint(ckpt, rng, "truncate")
        corrupt_checkpoint(backup_checkpoint_path(ckpt), rng, "truncate")
        runtime2, stats2 = self._run(spark_model, records, ckpt, out)
        assert runtime2.resume_origin == "cold"
        # The sink's own output is the delivery log: the replay is
        # suppressed entirely.
        payloads = stream_reports_from_jsonl(out)
        fids = [p["finalization_id"] for p in payloads]
        assert len(fids) == len(set(fids))
        assert len(payloads) == len(first)
        assert stats2.deduped_reports == len(first)


# -- simulator log-fault kinds ---------------------------------------------


class TestLogFaultKinds:
    def test_corrupt_log_lines_truncate(self):
        rng = np.random.default_rng(CHAOS_SEED)
        lines = [f"line number {i} with some text" for i in range(6)]
        out = corrupt_log_lines(lines, LOG_TRUNCATE, rng)
        assert len(out) == len(lines)
        assert out[:-1] == lines[:-1]
        assert lines[-1].startswith(out[-1]) and out[-1] != lines[-1]

    def test_corrupt_log_lines_duplicate(self):
        rng = np.random.default_rng(CHAOS_SEED)
        lines = [f"line number {i}" for i in range(6)]
        out = corrupt_log_lines(lines, LOG_DUPLICATE, rng)
        assert len(out) > len(lines)
        # Same multiset plus the duplicated chunk; order preserved.
        assert [l for l in out if out.count(l) == 1] == [
            l for l in lines if out.count(l) == 1
        ]

    def test_corrupt_log_lines_torn(self):
        rng = np.random.default_rng(CHAOS_SEED)
        lines = [f"line number {i} padding padding" for i in range(6)]
        out = corrupt_log_lines(lines, LOG_TORN, rng)
        assert len(out) == len(lines) - 1
        merged = [l for l in out if l not in lines]
        assert len(merged) == 1
        # The fused line is a short prefix of one line + all of the next.
        idx = out.index(merged[0])
        assert merged[0].endswith(lines[idx + 1])

    def test_corrupt_log_lines_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown log fault"):
            corrupt_log_lines(["x"], "sigkill",
                              np.random.default_rng(CHAOS_SEED))

    def test_fault_plan_picks_log_victim(self):
        sim = MapReduceSimulator(seed=CHAOS_SEED)
        for kind in LOG_KINDS:
            job = sim.run_job(
                "wordcount", MapReduceConfig(input_gb=1.0),
                fault=FaultSpec(kind),
            )
            assert job.fault == kind
            assert len(job.affected_sessions) == 1
            # Log faults damage files, not processes: the victim's
            # in-memory session still ran to completion.
            victim = next(iter(job.affected_sessions))
            assert any(
                s.session_id == victim and len(s.records) > 0
                for s in job.sessions
            )

    def test_fault_spec_accepts_log_kinds(self):
        for kind in LOG_KINDS:
            assert FaultSpec(kind).kind == kind

    def test_fault_plan_query_api(self):
        plan = FaultPlan(
            FaultSpec(LOG_TORN), np.random.default_rng(CHAOS_SEED)
        )
        assert plan.log_victim is None
        assert plan.affected_session_ids() == set()


# -- end-to-end chaos run --------------------------------------------------


class TestChaosEndToEnd:
    def test_seeded_chaos_run_holds_all_invariants(
        self, hadoop_model, detect_lines, tmp_path
    ):
        rng = np.random.default_rng(CHAOS_SEED)
        log_path = tmp_path / "chaos.log"
        writer = ChaosLogWriter(
            log_path, rng,
            torn_rate=0.015, duplicate_rate=0.015,
            binary_rate=0.01, encoding_rate=0.01,
        )
        writer.write_lines(detect_lines)

        qpath = tmp_path / "quarantine.jsonl"
        out = tmp_path / "reports.jsonl"
        source = FlakySource(
            FileFollowSource(
                log_path, formatter="hadoop",
                quarantine=JsonLinesQuarantine(qpath),
            ),
            rng=rng, fail_rate=0.05,
        )
        sink = FlakySink(JsonLinesSink(out), rng=rng, fail_rate=0.05)
        runtime = StreamRuntime(
            hadoop_model, source, sink=sink,
            tracker=PARITY_TRACKER,
            checkpoint_path=tmp_path / "ckpt.json",
            resilience=ResilienceConfig(
                retry_attempts=4, failed_after=50, **FAST
            ),
            **NO_SLEEP,
        )
        stats = runtime.run(once=True)  # invariant 1: never crashes
        _artifact(f"chaos-seed{CHAOS_SEED}.log", log_path)
        _artifact(f"quarantine-seed{CHAOS_SEED}.jsonl", qpath)
        _artifact(f"reports-seed{CHAOS_SEED}.jsonl", out)

        assert stats.health != "failed"
        assert sum(writer.injected.values()) > 0, (
            "chaos run injected nothing — raise rates or line count"
        )

        # Invariant 2: injected garbage is quarantined with a reason,
        # never folded into a session or silently dropped.
        counts = stats.quarantined
        assert counts.get("binary", 0) == writer.injected["binary"]
        assert counts.get("decode_error", 0) == \
            writer.injected["encoding"]

        # Invariant 3: exactly-once delivery despite the flaky sink.
        payloads = stream_reports_from_jsonl(out)
        fids = [p["finalization_id"] for p in payloads]
        assert len(fids) == len(set(fids))
        assert stats.undelivered_reports == 0

        # Invariant 4: sessions untouched by injected faults match the
        # batch pipeline byte-for-byte.
        batch = batch_reports(hadoop_model, detect_lines)
        clean = set(batch) - writer.affected_sessions
        assert clean, "every session was hit — lower the fault rates"
        streamed = {
            p["session_id"]: strip_delivery_keys(p) for p in payloads
            if p["session_id"] in clean
        }
        assert streamed == {sid: batch[sid] for sid in clean}

    def test_chaos_truncated_tail_is_quarantined(
        self, hadoop_model, detect_lines, tmp_path
    ):
        rng = np.random.default_rng(CHAOS_SEED + 1000)
        log_path = tmp_path / "chaos.log"
        writer = ChaosLogWriter(log_path, rng, torn_rate=0.0,
                                duplicate_rate=0.0, binary_rate=0.0,
                                encoding_rate=0.0)
        writer.write_lines(detect_lines)
        writer.truncate_tail(30)  # writer crashed mid-record

        quarantine = ListQuarantine()
        source = FileFollowSource(
            log_path, formatter="hadoop", quarantine=quarantine
        )
        runtime = StreamRuntime(
            hadoop_model, source, sink=ListSink(),
            tracker=PARITY_TRACKER, **NO_SLEEP,
        )
        stats = runtime.run(once=True)
        assert quarantine.counts.get("truncated_record") == 1
        assert stats.quarantined.get("truncated_record") == 1
        # Only the torn session differs from batch.
        batch = batch_reports(hadoop_model, detect_lines)
        clean = set(batch) - writer.affected_sessions
        streamed = {
            c.session.session_id: r.to_dict()
            for r, c in zip(runtime.sink.reports, runtime.sink.closures)
            if c.session.session_id in clean
        }
        assert streamed == {sid: batch[sid] for sid in clean}


# -- outbox parking: O(1) dedup + checkpoint-consistent parked set ---------


class TestOutboxParking:
    """Regression for the O(outbox) duplicate scan in ``_finalize``.

    Parked finalization ids are mirrored in a set kept consistent with
    the outbox across delivery, drain and checkpoint resume, so replayed
    closures dedup without walking every parked entry.
    """

    def _runtime(self, model, records, sink, ckpt=None):
        return StreamRuntime(
            model, IterableSource(records), sink=sink,
            tracker=PARITY_TRACKER,
            checkpoint_path=ckpt,
            resilience=ResilienceConfig(
                retry_attempts=2, failed_after=10**6, **FAST
            ),
            **NO_SLEEP,
        )

    def test_outage_parks_every_report_and_dedups_in_constant_time(
        self, spark_model, tmp_path
    ):
        from repro.stream import ClosedSession

        records = _spark_records(seed=67)
        ckpt = tmp_path / "ckpt.json"
        sink = FlakySink(ListSink(), fail_first=10**6)  # permanent outage
        runtime = self._runtime(spark_model, records, sink, ckpt)
        stats = runtime.run(once=True)

        batch = spark_model.detect_job(split_sessions(records))
        assert len(batch.sessions) > 1
        assert not sink.inner.reports  # nothing got through
        assert stats.undelivered_reports == len(batch.sessions)
        # The parked set mirrors the outbox exactly.
        assert runtime._parked_fids == {
            e["finalization_id"] for e in runtime._outbox
        }

        # Replay a closure for a session whose report is parked: the
        # duplicate must be suppressed via the parked-fid set without
        # touching the outbox or emitting anything.
        deduped = stats.deduped_reports
        outbox_len = len(runtime._outbox)
        for session in split_sessions(records):
            runtime._finalize(
                ClosedSession(session=session, reason="flush")
            )
        assert len(runtime._outbox) == outbox_len
        assert runtime.stats.deduped_reports == deduped + len(
            batch.sessions
        )

    def test_parked_set_rebuilt_on_resume_then_drained(
        self, spark_model, tmp_path
    ):
        records = _spark_records(seed=67)
        ckpt = tmp_path / "ckpt.json"
        outage = FlakySink(ListSink(), fail_first=10**6)
        runtime = self._runtime(spark_model, records, outage, ckpt)
        runtime.run(once=True)
        parked = set(runtime._parked_fids)
        assert parked
        runtime.checkpoint()

        # Resume with a healthy sink: the parked set is rebuilt from the
        # checkpointed outbox, then emptied as the outbox drains.
        healthy = ListSink()
        runtime2 = self._runtime(spark_model, [], healthy, ckpt)
        assert runtime2.resumed
        assert runtime2._parked_fids == {
            e["finalization_id"] for e in runtime2._outbox
        }
        assert runtime2._parked_fids == parked
        runtime2.run(once=True)
        assert not runtime2._outbox
        assert not runtime2._parked_fids
        fids = healthy.emitted_ids()
        assert sorted(fids) == sorted(parked)
        assert len(fids) == len(set(fids))

    def test_full_ledger_keeps_newest_ids_and_encodes_like_lists(
        self, spark_model, tmp_path
    ):
        cap = 8
        ckpt = tmp_path / "ckpt.json"
        resilience = ResilienceConfig(
            retry_attempts=2, failed_after=10**6, finalized_cap=cap, **FAST
        )
        outage = FlakySink(ListSink(), fail_first=10**6)
        runtime = StreamRuntime(
            spark_model, IterableSource(_spark_records(seed=67)),
            sink=outage, tracker=PARITY_TRACKER, checkpoint_path=ckpt,
            resilience=resilience, **NO_SLEEP,
        )
        runtime.run(once=True)
        assert runtime._outbox
        ids = [f"fid-{i:03d}" for i in range(3 * cap + 1)]
        for fid in ids:
            runtime._remember_finalized(fid)
        # At the cap the ledger keeps exactly the newest ids, in order.
        assert list(runtime._finalized_order) == ids[-cap:]
        assert runtime._finalized_ids == set(ids[-cap:])

        runtime.checkpoint()
        saved = StreamCheckpoint.load(ckpt)
        assert saved.finalized == ids[-cap:]
        assert saved.outbox == [dict(e) for e in runtime._outbox]
        as_lists = StreamCheckpoint(
            source_position=saved.source_position,
            tracker_state=saved.tracker_state,
            counters=saved.counters,
            finalized=list(ids[-cap:]),
            outbox=list(saved.outbox),
        )
        assert ckpt.read_bytes() == as_lists._encoded()

        # A resume restores both in order and keeps them bounded.
        resumed = StreamRuntime(
            spark_model, IterableSource([]), sink=ListSink(),
            tracker=PARITY_TRACKER, checkpoint_path=ckpt,
            resilience=resilience, **NO_SLEEP,
        )
        assert resumed.resumed
        assert list(resumed._finalized_order) == ids[-cap:]
        assert list(resumed._outbox) == saved.outbox
        resumed._remember_finalized("fid-next")
        assert list(resumed._finalized_order) == ids[-cap + 1:] + [
            "fid-next"
        ]
