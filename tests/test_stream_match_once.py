"""Each per-record job of the streaming path runs once.

* **Match once:** the live match of every record rides with it to close
  time, so a drained stream performs exactly one Spell match per record.
* **Heap expiry:** idle sessions are found by popping a min-heap of
  ``last_seen`` times.  A hypothesis suite pins it against
  :class:`ScanTracker`, a copy of the tracker that scanned every open
  session on every record: same closed sessions, reasons and order.
* **Encode once:** a checkpoint is JSON-encoded once; files in the
  older ``json.dumps(to_dict())`` form still load.
"""

from __future__ import annotations

import json
import re
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import split_sessions
from repro.core.errors import CheckpointCorruptError
from repro.parsing.records import LogRecord, Session, session_bucket
from repro.simulators import WorkloadGenerator
from repro.stream import (
    ClosedSession,
    IterableSource,
    ListSink,
    SessionTracker,
    StreamCheckpoint,
    StreamRuntime,
    TrackerConfig,
)
from repro.stream.tracker import _record_from_dict, _record_to_dict


@pytest.fixture(scope="module")
def detection_records():
    """Three MapReduce jobs, time-interleaved."""
    jobs = WorkloadGenerator(seed=31).run_batch("mapreduce", 3)
    return sorted(
        (r for job in jobs for r in job.records), key=lambda r: r.timestamp
    )


def reports_by_session(reports):
    return {r.session_id: r.to_dict() for r in reports}


def spell_matches(runtime: StreamRuntime) -> int:
    """Messages the runtime's Spell parser has matched (hit or miss)."""
    metric = runtime.registry.get("spell_match_attempts_total")
    return int(sum(value for _, value in metric.samples()))


# -- match once --------------------------------------------------------------


class TestMatchOnce:
    def test_drained_run_matches_each_record_once(
        self, mr_model, detection_records
    ):
        sink = ListSink()
        runtime = StreamRuntime(
            mr_model, IterableSource(detection_records), sink=sink,
            tracker=TrackerConfig(idle_timeout=1e12),
        )
        stats = runtime.run(once=True)
        assert stats.records == len(detection_records)
        assert spell_matches(runtime) == stats.records
        batch = mr_model.detect_job(split_sessions(detection_records))
        assert reports_by_session(sink.reports) == reports_by_session(
            batch.sessions
        )

    def test_resume_rematches_only_restored_sessions(
        self, mr_model, detection_records, tmp_path
    ):
        """Pause mid-job, resume a fresh runtime from the checkpoint and
        finish: reports equal batch ``detect_job``.  Restored sessions
        carry no matches, so they alone are matched again at close."""
        ckpt = tmp_path / "model.stream-ckpt.json"
        config = TrackerConfig(idle_timeout=1e12)
        sink1 = ListSink()
        first = StreamRuntime(
            mr_model, IterableSource(detection_records), sink=sink1,
            tracker=config, checkpoint_path=ckpt,
        )
        first.run(once=True, max_records=len(detection_records) // 2)
        assert first.tracker.open_count > 0
        restored = {
            item["session_id"]
            for item in StreamCheckpoint.load(ckpt).tracker_state["open"]
        }

        sink2 = ListSink()
        second = StreamRuntime(
            mr_model, IterableSource(detection_records), sink=sink2,
            tracker=config, checkpoint_path=ckpt,
        )
        assert second.resumed
        consumed = len(detection_records) - len(detection_records) // 2
        stats = second.run(once=True)
        assert stats.records == len(detection_records)
        rematched = sum(
            r.message_count for r in sink2.reports if r.session_id in restored
        )
        assert 0 < rematched < consumed
        assert spell_matches(second) == consumed + rematched

        batch = mr_model.detect_job(split_sessions(detection_records))
        combined = sink1.reports + sink2.reports
        assert len(combined) == len(batch.sessions)
        assert reports_by_session(combined) == reports_by_session(
            batch.sessions
        )


# -- heap expiry vs the per-record scan ---------------------------------------


class ScanTracker:
    """The tracker before heap expiry: every record scans all open
    sessions for idle ones.  Kept as the reference for the heap."""

    def __init__(self, config: TrackerConfig) -> None:
        self.config = config
        self._open: OrderedDict = OrderedDict()
        self._markers = [re.compile(p) for p in config.end_markers]
        self.watermark = float("-inf")
        self.evictions = 0

    def observe(self, record: LogRecord) -> list[ClosedSession]:
        closed = []
        key, sid = session_bucket(record)
        entry = self._open.get(key)
        if entry is None:
            entry = self._open[key] = [
                Session(session_id=sid, app_id=record.app_id),
                record.timestamp,
            ]
        entry[0].append(record)
        entry[1] = max(entry[1], record.timestamp)
        self._open.move_to_end(key)
        self.watermark = max(self.watermark, record.timestamp)
        if any(m.search(record.message) for m in self._markers):
            del self._open[key]
            closed.append(self._close(entry, "end_marker"))
        horizon = self.watermark - self.config.idle_timeout
        for key in [k for k, e in self._open.items() if e[1] <= horizon]:
            closed.append(self._close(self._open.pop(key), "idle"))
        while len(self._open) > self.config.max_open_sessions:
            closed.append(self._evict())
        return closed

    def evict_lru(self, count: int) -> list[ClosedSession]:
        return [self._evict() for _ in range(min(count, len(self._open)))]

    def flush(self) -> list[ClosedSession]:
        closed = [self._close(e, "flush") for e in self._open.values()]
        self._open.clear()
        return closed

    def _evict(self) -> ClosedSession:
        _, entry = self._open.popitem(last=False)
        self.evictions += 1
        return self._close(entry, "evicted")

    @staticmethod
    def _close(entry: list, reason: str) -> ClosedSession:
        entry[0].sort()
        return ClosedSession(session=entry[0], reason=reason)

    def state_dict(self) -> dict:
        return {
            "watermark": None if self.watermark == float("-inf")
            else self.watermark,
            "evictions": self.evictions,
            "open": [
                {"key": list(key), "session_id": e[0].session_id,
                 "app_id": e[0].app_id, "last_seen": e[1],
                 "records": [_record_to_dict(r) for r in e[0].records]}
                for key, e in self._open.items()
            ],
        }

    def load_state(self, state: dict) -> None:
        watermark = state.get("watermark")
        self.watermark = float("-inf") if watermark is None else watermark
        self.evictions = state["evictions"]
        self._open = OrderedDict()
        for item in state["open"]:
            session = Session(session_id=item["session_id"],
                              app_id=item["app_id"])
            for rec in item["records"]:
                session.append(_record_from_dict(rec))
            self._open[tuple(item["key"])] = [session, item["last_seen"]]


def _closed_view(closed: list[ClosedSession]) -> list:
    return [
        (c.reason, c.session.session_id,
         [(r.timestamp, r.message) for r in c.session.records])
        for c in closed
    ]


def _check_matches(closed: list[ClosedSession]) -> None:
    """Carried matches stay aligned with the sorted records."""
    for c in closed:
        if c.matches is not None:
            assert c.matches == [
                f"match:{r.message}" for r in c.session.records
            ]


_record_op = st.tuples(
    st.integers(0, 5),                      # session
    st.integers(-3, 4),                     # event-time step (ties too)
    st.booleans(),                          # end marker?
)


@settings(max_examples=1000, deadline=None)
@given(
    ops=st.lists(_record_op, max_size=80),
    evictions=st.dictionaries(st.integers(0, 79), st.integers(1, 3),
                              max_size=4),
    roundtrips=st.sets(st.integers(0, 79), max_size=2),
    idle_timeout=st.sampled_from([0.0, 3.0, 10.0, 1e12]),
    cap=st.sampled_from([1, 3, 10**9]),
    markers=st.booleans(),
)
def test_heap_expiry_matches_scan(ops, evictions, roundtrips,
                                  idle_timeout, cap, markers):
    """Random out-of-order times (a random walk, mostly forward),
    timeouts and caps, with ``evict_lru`` calls and ``state_dict``/
    ``load_state`` round-trips mid-stream."""
    config = TrackerConfig(
        idle_timeout=idle_timeout, max_open_sessions=cap,
        end_markers=(r"\bEND\b",) if markers else (),
    )
    heap, scan = SessionTracker(config), ScanTracker(config)
    ts = 0.0
    for n, (sid, step, end) in enumerate(ops):
        if n in roundtrips:
            state = heap.state_dict()
            assert {k: state[k] for k in ("watermark", "evictions",
                                          "open")} == scan.state_dict()
            heap = SessionTracker(config)
            heap.load_state(json.loads(json.dumps(state)))
            scan_state = scan.state_dict()
            scan = ScanTracker(config)
            scan.load_state(scan_state)
        if n in evictions:
            got = heap.evict_lru(evictions[n])
            assert _closed_view(got) == _closed_view(
                scan.evict_lru(evictions[n])
            )
        ts += step
        message = f"m{n}" + (" END" if end else "")
        rec = LogRecord(timestamp=ts, level="INFO", source="T",
                        message=message, session_id=f"s{sid}")
        got = heap.observe(rec, f"match:{message}")
        assert _closed_view(got) == _closed_view(scan.observe(rec))
        _check_matches(got)
        assert heap.open_count == len(scan._open)
        assert len(heap._heap) <= 2 * heap.open_count
    got, want = heap.flush(), scan.flush()
    assert _closed_view(got) == _closed_view(want)
    _check_matches(got)


def test_expired_sessions_close_in_lru_order():
    """Two sessions expire on one record.  They share ``last_seen``, so
    the heap cannot order them; "a" was touched last, so "b" closes
    first, as the scan closed them."""
    tracker = SessionTracker(TrackerConfig(idle_timeout=3.0, end_markers=()))
    for sid in ("a", "b", "a"):
        tracker.observe(LogRecord(timestamp=5.0, level="INFO", source="T",
                                  message="m", session_id=sid), None)
    closed = tracker.observe(LogRecord(timestamp=9.0, level="INFO",
                                       source="T", message="m",
                                       session_id="c"), None)
    assert [(c.session.session_id, c.reason) for c in closed] == [
        ("b", "idle"), ("a", "idle"),
    ]


def test_session_seen_again_is_rekeyed_not_lost():
    """"a"'s item still holds its first time when it reaches the
    horizon; "a" was seen since, so it goes back under its new time and
    closes once that idles out."""
    tracker = SessionTracker(TrackerConfig(idle_timeout=10.0, end_markers=()))

    def observe(ts, sid):
        closed = tracker.observe(LogRecord(
            timestamp=ts, level="INFO", source="T", message="m",
            session_id=sid), None)
        return [c.session.session_id for c in closed]

    assert observe(0.0, "a") == []
    assert observe(10.0, "a") == []
    assert observe(15.0, "b") == []
    assert observe(21.0, "b") == ["a"]


def test_heap_stays_bounded_without_expiry():
    """Nothing ever idles out, but every session closes on its end
    marker after ten records and leaves its heap item behind; compaction
    keeps the heap within twice the open sessions over a long stream."""
    tracker = SessionTracker(TrackerConfig(
        idle_timeout=1e12, max_open_sessions=10**9, end_markers=("END",),
    ))
    closed = 0
    for i in range(20_000):
        lane, turn = i % 37, i // 37
        closed += len(tracker.observe(
            LogRecord(timestamp=float(i), level="INFO", source="T",
                      message="END" if turn % 10 == 9 else "tick",
                      session_id=f"s{lane}-{turn // 10}"),
            None,
        ))
        assert len(tracker._heap) <= 2 * tracker.open_count
    assert closed > 1_900
    assert tracker.open_count <= 37


def test_record_without_match_drops_the_sessions_matches():
    tracker = SessionTracker(TrackerConfig(end_markers=()))
    rec = LogRecord(timestamp=1.0, level="INFO", source="T",
                    message="a", session_id="s")
    tracker.observe(rec, None)
    tracker.observe(rec)
    (closed,) = tracker.flush()
    assert closed.matches is None


# -- checkpoint encode-once ---------------------------------------------------


def _checkpoint() -> StreamCheckpoint:
    return StreamCheckpoint(
        source_position={"kind": "iterable", "index": 12},
        tracker_state={"watermark": 3.5, "open": [{"key": ["", "s"]}]},
        counters={"records": 12, "closed_by_reason": {"idle": 2}},
        finalized=["fid-a", "fid-b"],
        outbox=[{"report": {"session_id": "s"}, "reason": "flush"}],
    )


class TestCheckpointEncoding:
    def test_saved_file_is_one_sorted_encoding(self, tmp_path):
        path = tmp_path / "ckpt.json"
        checkpoint = _checkpoint()
        checkpoint.save(path)
        text = path.read_text()
        assert json.loads(text) == checkpoint.to_dict()
        body = {k: v for k, v in checkpoint.to_dict().items()
                if k != "checksum"}
        assert text.startswith(json.dumps(body, sort_keys=True)[:-1])
        assert StreamCheckpoint.load(path).to_dict() == checkpoint.to_dict()

    def test_older_form_still_loads(self, tmp_path):
        path = tmp_path / "ckpt.json"
        checkpoint = _checkpoint()
        path.write_text(json.dumps(checkpoint.to_dict()))
        assert StreamCheckpoint.load(path).to_dict() == checkpoint.to_dict()

    def test_any_flipped_byte_is_corrupt(self, tmp_path):
        path = tmp_path / "ckpt.json"
        _checkpoint().save(path)
        data = path.read_bytes()
        for i in range(len(data)):
            flipped = bytearray(data)
            flipped[i] ^= 0x01
            path.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointCorruptError):
                StreamCheckpoint.load(path)
