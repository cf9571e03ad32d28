"""The batched session tracker, against a frozen per-record tracker.

:class:`PerRecordTracker` keeps a frozen copy of ``SessionTracker.observe``
as it was when the runtime fed the tracker one record per call.  A
hypothesis test drives it and a plain :class:`SessionTracker` over the
same random records: the frozen one record by record, the other through
``observe_batch`` under random batch cuts, with ``evict_lru`` calls
between batches.  After every step both must have closed the same
sessions, at the same record, in the same order, for the same reason,
with the same records and matches; ``peak_open``, ``evictions``,
``watermark`` and ``state_dict()`` must agree too.

The records cover end markers, idle expiry, a small
``max_open_sessions`` and records without a ``session_id`` (which
``session_bucket`` keys per application, or into one default bucket).
Some records come without their live match, which makes their session
be matched again at close.

``REPRO_CHAOS_SEED`` seeds the examples, as in the chaos suite.
"""

from __future__ import annotations

import os

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.parsing.records import LogRecord, Session, session_bucket
from repro.stream import SessionTracker, TrackerConfig
from repro.stream import tracker as tracker_module
from repro.stream.tracker import ClosedSession, _Open

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))

_UNMATCHED = tracker_module._UNMATCHED


class PerRecordTracker(SessionTracker):
    """A tracker whose ``observe`` is the frozen per-record copy."""

    def observe(self, record, match=_UNMATCHED) -> list[ClosedSession]:
        sid = record.session_id
        if sid:  # the common case: session_bucket's first branch
            key: tuple[str, str] = ("", sid)
        else:
            key, sid = session_bucket(record)
        open_ = self._open
        entry = open_.get(key)
        timestamp = record.timestamp
        if entry is None:
            entry = _Open(
                session=Session(session_id=sid, app_id=record.app_id),
                last_seen=timestamp,
            )
            open_[key] = entry
            self._push(key, entry)
        else:
            if timestamp > entry.last_seen:
                entry.last_seen = timestamp
            open_.move_to_end(key)
        entry.session.records.append(record)
        if entry.matches is not None:
            if match is _UNMATCHED:
                entry.matches = None
            else:
                entry.matches.append(match)
        entry.touched = next(self._seq)
        if timestamp > self.watermark:
            self.watermark = timestamp

        closed: list[ClosedSession] = []
        if self._marker is not None and self._marker.search(record.message):
            del open_[key]
            closed.append(self._close(entry, "end_marker"))

        heap = self._heap
        if heap and heap[0][0] <= self.watermark - self.config.idle_timeout:
            closed.extend(self._expire_idle())
        if len(open_) > self.config.max_open_sessions:
            closed.extend(self._evict_over_cap())
        if len(open_) > self.peak_open:
            self.peak_open = len(open_)
        if len(heap) > 2 * len(open_):
            self._compact()
        return closed


_MESSAGES = [
    "task attempt started",
    "fetching map output",
    "metrics system shutdown complete",  # an end marker
    "Deleting directory /tmp/spark-1",  # another
    "heartbeat",
]

# One step of a record: (container, app, time step, message, match kind).
_RECORD = st.tuples(
    st.sampled_from(["", "", "c1", "c2", "c3", "c4", "c5", "c6"]),
    st.sampled_from(["", "app_1", "app_2"]),
    st.one_of(st.floats(-3.0, 8.0), st.sampled_from([0.0, 50.0])),
    st.sampled_from(_MESSAGES),
    st.sampled_from(["match", "none", "unmatched"]),
)

# A script step: a batch of records, or an evict_lru(count) call.
_STEP = st.one_of(
    st.tuples(st.just("batch"), st.lists(_RECORD, max_size=12)),
    st.tuples(st.just("evict"), st.integers(0, 3)),
)


def _records(raw, clock: list[float], counter: list[int]):
    records, matches = [], []
    for container, app, step, message, kind in raw:
        clock[0] += step
        counter[0] += 1
        records.append(LogRecord(
            timestamp=clock[0], level="INFO", source="X",
            message=f"{message} #{counter[0]}",
            session_id=container, app_id=app,
        ))
        matches.append({"match": f"m{counter[0]}", "none": None,
                        "unmatched": _UNMATCHED}[kind])
    return records, matches


def _closure(item: ClosedSession) -> tuple:
    session = item.session
    return (item.reason, session.session_id, session.app_id,
            [id(record) for record in session.records], item.matches)


def _same_state(frozen: SessionTracker, batched: SessionTracker) -> None:
    assert batched.peak_open == frozen.peak_open
    assert batched.evictions == frozen.evictions
    assert batched.watermark == frozen.watermark
    assert batched.open_count == frozen.open_count
    assert batched.state_dict() == frozen.state_dict()


@seed(CHAOS_SEED)
@settings(max_examples=300, deadline=None)
@given(
    idle=st.sampled_from([5.0, 20.0, 1e9]),
    cap=st.sampled_from([1, 2, 3, 10_000]),
    script=st.lists(_STEP, max_size=12),
)
def test_observe_batch_matches_per_record_tracker(idle, cap, script):
    config = TrackerConfig(idle_timeout=idle, max_open_sessions=cap)
    frozen, batched = PerRecordTracker(config), SessionTracker(config)
    clock, counter = [0.0], [0]
    for kind, arg in script:
        if kind == "evict":
            want = [_closure(c) for c in frozen.evict_lru(arg)]
            got = [_closure(c) for c in batched.evict_lru(arg)]
        else:
            records, matches = _records(arg, clock, counter)
            want = [
                (i, _closure(c))
                for i, (record, match) in enumerate(zip(records, matches))
                for c in frozen.observe(record, match)
            ]
            got = [
                (i, _closure(c))
                for i, c in batched.observe_batch(records, matches)
            ]
        assert got == want
        _same_state(frozen, batched)
    want = [_closure(c) for c in frozen.flush()]
    assert [_closure(c) for c in batched.flush()] == want
    _same_state(frozen, batched)


def test_observe_is_a_one_record_batch():
    """``observe`` without a match leaves the session to be matched
    again at close, as a batch record marked unmatched does."""
    tracker = SessionTracker()
    record = LogRecord(timestamp=1.0, level="INFO", source="X",
                       message="metrics system shutdown complete",
                       session_id="c1")
    [closed] = tracker.observe(record)
    assert closed.reason == "end_marker" and closed.matches is None
    assert tracker.observe_batch([], []) == []
