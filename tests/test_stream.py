"""Tests for the online streaming runtime (``repro.stream``).

Covers the ISSUE checklist: batch-vs-stream report parity on seeded
simulator logs, out-of-order timestamps within a session, idle-timeout
vs. end-marker closure, LRU eviction under the session cap, and the
checkpoint/resume round-trip — plus the file-follower source and the
``split_sessions`` default-bucket regression.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import IntelLog, split_sessions
from repro.parsing.records import LogRecord, session_bucket
from repro.simulators import WorkloadGenerator
from repro.stream import (
    FileFollowSource,
    IterableSource,
    ListSink,
    SessionTracker,
    StreamRuntime,
    TrackerConfig,
)

#: Tracker settings that never close early — for exact-parity tests.
#: (End markers stay off: in an arbitrarily reordered stream a marker
#: can arrive mid-session and legitimately split it; the markers get
#: their own parity test on time-ordered input.)
UNBOUNDED = dict(
    idle_timeout=1e12, max_open_sessions=10**9, end_markers=(),
)


def record(ts, message, sid="", app=""):
    return LogRecord(timestamp=float(ts), level="INFO", source="T",
                     message=message, session_id=sid, app_id=app)


def replay_records(system):
    """Seeded detection workload: three jobs, time-interleaved."""
    jobs = WorkloadGenerator(seed=77).run_batch(system, 3)
    records = [r for job in jobs for r in job.records]
    records.sort(key=lambda r: r.timestamp)
    return records


@pytest.fixture(scope="module")
def detection_records(spark_model):
    return replay_records("spark")


@pytest.fixture(scope="module")
def mr_detection_records():
    return replay_records("mapreduce")


def run_stream(model, records, **tracker_kwargs):
    sink = ListSink()
    runtime = StreamRuntime(
        model, IterableSource(records), sink=sink,
        tracker=TrackerConfig(**tracker_kwargs),
    )
    stats = runtime.run(once=True)
    return sink, stats


def reports_by_session(reports):
    return {r.session_id: r.to_dict() for r in reports}


class TestBatchParity:
    def test_stream_equals_batch_reports(self, spark_model,
                                         detection_records):
        batch = spark_model.detect_job(split_sessions(detection_records))
        sink, stats = run_stream(spark_model, detection_records,
                                 **UNBOUNDED)
        assert reports_by_session(sink.reports) == reports_by_session(
            batch.sessions
        )
        assert stats.reports == len(batch.sessions)

    def test_parity_with_default_end_markers(self, spark_model,
                                             detection_records):
        """Built-in end markers must only fire on true final messages,
        so they close sessions early without ever splitting one."""
        batch = spark_model.detect_job(split_sessions(detection_records))
        sink, stats = run_stream(spark_model, detection_records,
                                 idle_timeout=1e12)
        assert reports_by_session(sink.reports) == reports_by_session(
            batch.sessions
        )
        assert stats.closed_by_reason.get("end_marker", 0) > 0

    def test_out_of_order_timestamps_within_session(self, spark_model,
                                                    detection_records):
        """Records arriving out of order still yield batch-identical
        reports: sessions are time-sorted at close, exactly like
        ``split_sessions`` sorts its buckets."""
        rng = np.random.default_rng(5)
        shuffled = list(detection_records)
        rng.shuffle(shuffled)
        batch = spark_model.detect_job(split_sessions(shuffled))
        sink, _ = run_stream(spark_model, shuffled, **UNBOUNDED)
        assert reports_by_session(sink.reports) == reports_by_session(
            batch.sessions
        )


class TestSessionTracker:
    def test_end_marker_closes_immediately(self):
        tracker = SessionTracker(TrackerConfig(
            idle_timeout=1e9, end_markers=(r"session over",),
        ))
        assert tracker.observe(record(1.0, "working", sid="a")) == []
        closed = tracker.observe(record(2.0, "session over", sid="a"))
        assert [c.reason for c in closed] == ["end_marker"]
        assert closed[0].session.session_id == "a"
        assert len(closed[0].session) == 2
        assert tracker.open_count == 0

    def test_idle_timeout_closes_in_event_time(self):
        tracker = SessionTracker(TrackerConfig(
            idle_timeout=10.0, end_markers=(),
        ))
        tracker.observe(record(0.0, "m1", sid="a"))
        tracker.observe(record(5.0, "m1", sid="b"))
        # Watermark jumps far past a's last activity; b stays fresh.
        closed = tracker.observe(record(100.0, "m2", sid="b"))
        assert [c.session.session_id for c in closed] == ["a"]
        assert [c.reason for c in closed] == ["idle"]
        assert tracker.open_count == 1

    def test_idle_scan_handles_lru_order_mismatch(self):
        """A session can be LRU-recent but event-time stale (late replay
        of an old record); the idle scan must still find older entries
        behind it."""
        tracker = SessionTracker(TrackerConfig(
            idle_timeout=10.0, end_markers=(),
        ))
        tracker.observe(record(100.0, "new", sid="fresh"))
        # "stale" is most-recently-active in LRU terms but already
        # beyond the event-time horizon; a front-of-LRU-only scan would
        # miss it behind the fresh session.
        closed = tracker.observe(record(1.0, "old straggler", sid="stale"))
        assert [c.session.session_id for c in closed] == ["stale"]
        assert [c.reason for c in closed] == ["idle"]
        assert tracker.open_count == 1

    def test_eviction_keeps_open_sessions_under_cap(self):
        cap = 5
        tracker = SessionTracker(TrackerConfig(
            idle_timeout=1e9, max_open_sessions=cap, end_markers=(),
        ))
        closed = []
        for i in range(50):
            closed += tracker.observe(
                record(float(i), "m", sid=f"s{i:02d}")
            )
        assert tracker.peak_open <= cap
        assert tracker.open_count == cap
        assert tracker.evictions == 45
        assert all(c.reason == "evicted" for c in closed)
        # Least-recently-active evicted first.
        assert closed[0].session.session_id == "s00"

    def test_sessions_sorted_at_close(self):
        tracker = SessionTracker(TrackerConfig(end_markers=()))
        tracker.observe(record(3.0, "c", sid="a"))
        tracker.observe(record(1.0, "a", sid="a"))
        tracker.observe(record(2.0, "b", sid="a"))
        (closed,) = tracker.flush()
        assert [r.message for r in closed.session] == ["a", "b", "c"]

    def test_state_roundtrip(self):
        tracker = SessionTracker(TrackerConfig(end_markers=()))
        tracker.observe(record(1.0, "x", sid="a", app="app1"))
        tracker.observe(record(2.0, "y", sid="b"))
        restored = SessionTracker(TrackerConfig(end_markers=()))
        restored.load_state(tracker.state_dict())
        assert restored.open_count == 2
        assert restored.watermark == tracker.watermark
        a, b = (c.session for c in restored.flush())
        assert (a.session_id, a.app_id) == ("a", "app1")
        assert [r.message for r in b] == ["y"]


class TestBoundedMemory:
    def test_peak_sessions_bounded_under_10x_load(
        self, spark_model, detection_records, mr_model, mr_detection_records
    ):
        """Acceptance: with 10x more containers than the cap, the
        runtime's peak tracked-session count stays under the cap, on
        the Spark and the MapReduce model."""
        for model, records in ((spark_model, detection_records),
                               (mr_model, mr_detection_records)):
            n_sessions = len(split_sessions(records))
            cap = max(1, n_sessions // 10)
            sink, stats = run_stream(
                model, records,
                idle_timeout=1e12, max_open_sessions=cap, end_markers=(),
            )
            assert n_sessions >= 10 * cap
            assert stats.peak_open_sessions <= cap
            assert stats.evictions > 0
            # Every session still gets at least one report (evicted
            # slices re-open), and every record is accounted for.
            assert sum(
                r.message_count for r in sink.reports
            ) == len(records)


class TestCheckpointResume:
    def test_pause_resume_roundtrip(self, spark_model, detection_records,
                                    tmp_path):
        ckpt = tmp_path / "model.stream-ckpt.json"
        batch = spark_model.detect_job(split_sessions(detection_records))

        sink1 = ListSink()
        first = StreamRuntime(
            spark_model, IterableSource(detection_records), sink=sink1,
            tracker=TrackerConfig(**UNBOUNDED), checkpoint_path=ckpt,
        )
        assert not first.resumed
        half = len(detection_records) // 2
        first.run(once=True, max_records=half)
        assert first.stats.records == half
        assert first.tracker.open_count > 0  # paused mid-job, not flushed

        # A brand-new process: fresh runtime over the same input file.
        sink2 = ListSink()
        second = StreamRuntime(
            spark_model, IterableSource(detection_records), sink=sink2,
            tracker=TrackerConfig(**UNBOUNDED), checkpoint_path=ckpt,
        )
        assert second.resumed
        stats = second.run(once=True)

        # No record replayed, no report re-emitted, exact batch parity.
        assert stats.records == len(detection_records)
        combined = sink1.reports + sink2.reports
        assert len(combined) == len(batch.sessions)
        assert reports_by_session(combined) == reports_by_session(
            batch.sessions
        )

    def test_resume_without_checkpoint_file_starts_fresh(
        self, spark_model, detection_records, tmp_path
    ):
        runtime = StreamRuntime(
            spark_model, IterableSource(detection_records),
            checkpoint_path=tmp_path / "none.json",
        )
        assert not runtime.resumed


class TestLiveAlerts:
    def test_unexpected_message_alerts_immediately(self, spark_model,
                                                   detection_records):
        alerts = []
        novel = record(
            detection_records[-1].timestamp + 1.0,
            "flux capacitor desynchronized beyond repair",
            sid=detection_records[-1].session_id,
        )
        runtime = StreamRuntime(
            spark_model, IterableSource(detection_records + [novel]),
            tracker=TrackerConfig(**UNBOUNDED),
            on_alert=alerts.append,
        )
        stats = runtime.run(once=True)
        assert stats.live_alerts == len(alerts) == 1
        assert alerts[0].kind == "unexpected_message"
        assert "flux capacitor" in alerts[0].message
        # The authoritative anomaly also lands in the session report.
        assert stats.anomalies_by_kind.get("unexpected_message", 0) >= 1


class TestIterableSource:
    @pytest.mark.parametrize("backing", [list, iter])
    def test_poll_zero_returns_nothing_and_consumes_nothing(self, backing):
        """``poll(n)`` returns *up to* ``n`` records for both backings:
        ``poll(0)`` takes no record, not even from an iterator."""
        records = [record(i, f"m{i}") for i in range(3)]
        source = IterableSource(backing(records))
        assert source.poll(0) == []
        assert source.position() == {"kind": "iterable", "index": 0}
        assert not source.exhausted()
        assert [r.message for r in source.poll(2)] == ["m0", "m1"]
        assert source.poll(0) == []
        assert [r.message for r in source.poll(5)] == ["m2"]
        assert source.poll(5) == []
        assert source.exhausted()


class TestFileFollowSource:
    HEADER ="2019-06-22 10:15:{s:02d},000 INFO [t] org.x.Worker: {msg}"

    def test_follow_parses_appends_and_attributes_sessions(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text(
            self.HEADER.format(s=1, msg="start container_e01_0001") + "\n"
        )
        source = FileFollowSource(path, formatter="hadoop")
        assert source.poll(10) == []  # record held back for continuations
        with path.open("a") as fp:
            fp.write(
                "  at java.lang.Thread.run(Thread.java:748)\n"
                + self.HEADER.format(s=2, msg="done container_e01_0001")
                + "\n"
            )
        (first,) = source.poll(10)
        assert first.session_id == "container_e01_0001"
        assert "Thread.run" in first.message  # continuation folded in
        (second,) = source.flush_pending()
        assert second.message == "done container_e01_0001"

    def test_partial_lines_wait_for_newline(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text(self.HEADER.format(s=1, msg="one") + "\n")
        source = FileFollowSource(path, formatter="hadoop")
        source.poll(10)
        with path.open("a") as fp:
            fp.write(self.HEADER.format(s=2, msg="tw"))  # no newline yet
        assert source.poll(10) == []
        assert source.flush_pending()[0].message == "one"
        with path.open("a") as fp:
            fp.write("o\n" + self.HEADER.format(s=3, msg="three") + "\n")
        (two,) = source.poll(10)
        assert two.message == "two"

    def test_position_seek_roundtrip(self, tmp_path):
        path = tmp_path / "app.log"
        lines = [self.HEADER.format(s=i, msg=f"m{i}") for i in range(5)]
        path.write_text("\n".join(lines) + "\n")
        source = FileFollowSource(path, formatter="hadoop")
        got = source.poll(2)
        position = source.position()
        resumed = FileFollowSource(path, formatter="hadoop")
        resumed.seek(position)
        rest = resumed.poll(10) + resumed.flush_pending()
        assert [r.message for r in got + rest] == [
            f"m{i}" for i in range(5)
        ]


class TestSplitSessionsDefaultBucket:
    def test_default_bucket_keyed_by_app(self):
        """Regression: empty session_ids from different apps must not be
        merged into one ``<default>`` session."""
        records = [
            record(1.0, "a1", app="app_1"),
            record(2.0, "b1", app="app_2"),
            record(3.0, "a2", app="app_1"),
            record(4.0, "c1"),  # no app either
        ]
        sessions = {s.session_id: s for s in split_sessions(records)}
        assert set(sessions) == {
            "<default:app_1>", "<default:app_2>", "<default>",
        }
        assert sessions["<default:app_1>"].messages() == ["a1", "a2"]
        assert sessions["<default:app_1>"].app_id == "app_1"
        assert sessions["<default>"].messages() == ["c1"]

    def test_tracker_uses_same_bucketing(self):
        records = [
            record(1.0, "a1", app="app_1"),
            record(2.0, "b1", app="app_2"),
        ]
        tracker = SessionTracker(TrackerConfig(end_markers=()))
        for r in records:
            assert tracker.observe(r) == []
        stream_ids = sorted(
            c.session.session_id for c in tracker.flush()
        )
        batch_ids = sorted(
            s.session_id for s in split_sessions(records)
        )
        assert stream_ids == batch_ids

    def test_explicit_session_ids_unchanged(self):
        records = [
            record(1.0, "x", sid="c1", app="app_1"),
            record(2.0, "y", sid="c1", app="app_2"),
        ]
        (session,) = split_sessions(records)
        assert session.session_id == "c1"
        assert session_bucket(records[0]) == (("", "c1"), "c1")


class TestIdleStats:
    class _IdleSource:
        """Always-empty source that exhausts after a few sleeps."""

        def __init__(self):
            self.sleeps = 0
            self._done = False

        def poll(self, max_records):
            return []

        def exhausted(self):
            return self._done

        def backlog(self):
            return 0

        def position(self):
            return {"kind": "idle"}

        def seek(self, position):
            pass

    def test_idle_polls_do_not_spam_stats(self, spark_model):
        source = self._IdleSource()

        def fake_sleep(_interval):
            source.sleeps += 1
            if source.sleeps >= 5:
                source._done = True

        emissions = []
        runtime = StreamRuntime(
            spark_model, source,
            stats_callback=lambda stats: emissions.append(stats.records),
            sleep=fake_sleep,
        )
        runtime.run()
        # Five idle polls produce one quiet-stream emission (plus the
        # unconditional end-of-run one) — not one line per poll.
        assert source.sleeps == 5
        assert len(emissions) == 2


class TestModelAccessor:
    def test_untrained_detector_raises(self):
        from repro import NotTrainedError

        with pytest.raises(NotTrainedError):
            IntelLog().detector()

    def test_runtime_accepts_raw_detector(self, spark_model,
                                          detection_records):
        sink = ListSink()
        runtime = StreamRuntime(
            spark_model.detector(),
            IterableSource(detection_records[:50]),
            sink=sink, tracker=TrackerConfig(**UNBOUNDED),
        )
        runtime.run(once=True)
        assert sink.reports
