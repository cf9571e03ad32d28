"""Checkpoints encode each record once while its session is open.

Every open tracker entry keeps the sorted-key JSON text of the records
it has already encoded, so a save encodes only the records appended
since the previous save.  The file must stay byte-identical to the
whole-body encoder it replaces (:func:`whole_body_text`, a frozen copy:
``json.dumps(body, sort_keys=True)`` with the checksum spliced in), so
the loader, the checksum and fsck see no difference.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import split_sessions
from repro.parsing.records import LogRecord
from repro.simulators import WorkloadGenerator
from repro.stream import (
    IterableSource,
    ListSink,
    SessionTracker,
    StreamCheckpoint,
    StreamRuntime,
    TrackerConfig,
)
from repro.stream import tracker as tracker_module

# -- the whole-body encoder, frozen -------------------------------------------


def frozen_record_to_dict(record: LogRecord) -> dict:
    data = {
        "timestamp": record.timestamp,
        "level": record.level,
        "source": record.source,
        "message": record.message,
    }
    if record.session_id:
        data["session_id"] = record.session_id
    if record.app_id:
        data["app_id"] = record.app_id
    if record.raw != record.message:
        data["raw"] = record.raw
    if record.meta:
        data["meta"] = record.meta
    return data


def frozen_state_dict(tracker: SessionTracker) -> dict:
    return {
        "watermark": (
            None if tracker.watermark == float("-inf")
            else tracker.watermark
        ),
        "evictions": tracker.evictions,
        "peak_open": tracker.peak_open,
        "open": [
            {
                "key": list(key),
                "session_id": entry.session.session_id,
                "app_id": entry.session.app_id,
                "last_seen": entry.last_seen,
                "records": [
                    frozen_record_to_dict(r) for r in entry.session.records
                ],
            }
            for key, entry in tracker._open.items()
        ],
    }


def whole_body_text(body: dict) -> str:
    text = json.dumps(body, sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return f'{text[:-1]}, "checksum": "{digest}"}}'


def assert_saved_as_whole_body(path: Path, tracker: SessionTracker) -> None:
    """The file equals the frozen encoder's output for the same body
    (tracker state taken from the live tracker) and loads back."""
    text = path.read_text()
    body = {k: v for k, v in json.loads(text).items() if k != "checksum"}
    state = frozen_state_dict(tracker)
    body["tracker_state"] = state
    assert text == whole_body_text(body)
    loaded = StreamCheckpoint.load(path)
    assert loaded.tracker_state == json.loads(json.dumps(state))


def assert_cache_covers_open_prefixes(tracker: SessionTracker) -> None:
    for entry in tracker._open.values():
        done = entry.session.records[:entry.encoded_count]
        assert ", ".join(entry.encoded) == json.dumps(
            [frozen_record_to_dict(r) for r in done], sort_keys=True
        )[1:-1]


def assert_closed_entries_released(before: list, tracker: SessionTracker):
    """Entries (and so their cached text) of sessions that closed are
    referenced by nothing but ``before``: CPython refcount 2 counts the
    list slot and the ``getrefcount`` argument."""
    still_open = {id(entry) for entry in tracker._open.values()}
    for i in range(len(before)):
        if id(before[i]) not in still_open:
            refs = sys.getrefcount(before[i])  # outside the rewritten assert
            assert refs == 2


class CountingEncoder:
    """Counts ``_record_to_dict`` calls made by the tracker."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, record: LogRecord) -> dict:
        self.calls += 1
        return frozen_record_to_dict(record)


# -- random sequences ---------------------------------------------------------

_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\n", "\t", "é", "日", "🙂", "\x01"]),
        st.characters(codec="utf-8"),
    ),
    max_size=10,
)

_OBSERVE = st.tuples(
    st.just("observe"),
    st.integers(0, 4),  # session: 0-2 by container id, 3-4 by app only
    st.floats(-1.0, 3.0, allow_nan=False),  # event-time step
    _TEXT,  # message
    st.one_of(st.none(), _TEXT),  # raw, when it differs
    st.one_of(st.none(), st.dictionaries(_TEXT, _TEXT, max_size=2)),
    st.booleans(),  # end marker
)
_OP = st.one_of(
    _OBSERVE,
    _OBSERVE,
    _OBSERVE,
    st.tuples(st.just("evict"), st.integers(1, 3)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("reload")),
)


def _record(ts: float, sid: int, message: str, raw, meta, end: bool):
    message += " END" if end else ""
    return LogRecord(
        timestamp=ts, level="INFO", source="Taské", message=message,
        session_id=f"container_{sid}" if sid < 3 else "",
        app_id=f"application_{sid % 2}",
        raw=message if raw is None else raw,
        meta=meta or {},
    )


@settings(max_examples=400, deadline=None)
@given(
    ops=st.lists(st.tuples(_OP, st.booleans()), max_size=40),
    idle_timeout=st.sampled_from([2.0, 1e12]),
    cap=st.sampled_from([2, 10**9]),
)
def test_every_save_is_the_whole_body_encoding(mr_model, ops, idle_timeout,
                                               cap):
    """Random observe / close / evict / flush / reload sequences, with a
    checkpoint after any step: every save is byte-identical to the
    frozen whole-body encoder and loads back; each save encodes exactly
    the records appended to open sessions since they were last encoded;
    closed, evicted and flushed sessions keep no cached text."""
    config = TrackerConfig(idle_timeout=idle_timeout, max_open_sessions=cap,
                           end_markers=(r"\bEND$",))
    encoder = CountingEncoder()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        tracker_module, "_record_to_dict", encoder
    ):
        path = Path(tmp) / "model.stream-ckpt.json"
        runtime = StreamRuntime(mr_model, IterableSource([]),
                                tracker=config, checkpoint_path=path)
        keep: list = []  # sessions stay alive, so their ids stay unique
        encoded_len: dict[int, int] = {}
        ts = 0.0

        def save() -> None:
            tracker = runtime.tracker
            sessions = [entry.session for entry in tracker._open.values()]
            expected = sum(
                len(s.records) - encoded_len.get(id(s), 0) for s in sessions
            )
            encoder.calls = 0
            runtime.checkpoint()
            assert encoder.calls == expected
            keep.extend(sessions)
            encoded_len.update((id(s), len(s.records)) for s in sessions)
            assert_saved_as_whole_body(path, tracker)
            assert_cache_covers_open_prefixes(tracker)

        save()  # -inf watermark, nothing open
        for op, save_after in ops:
            tracker = runtime.tracker
            before = list(tracker._open.values())
            if op[0] == "observe":
                _, sid, step, message, raw, meta, end = op
                ts += step
                keep.extend(
                    tracker.observe(_record(ts, sid, message, raw, meta, end),
                                    None)
                )
            elif op[0] == "evict":
                keep.extend(tracker.evict_lru(op[1]))
            elif op[0] == "flush":
                keep.extend(tracker.flush())
            elif path.exists():  # reload: restored sessions start uncached
                tracker.load_state(StreamCheckpoint.load(path).tracker_state)
                assert all(e.encoded_count == 0 and not e.encoded
                           for e in tracker._open.values())
            assert_closed_entries_released(before, tracker)
            del before
            if save_after:
                save()
        keep.extend(runtime.tracker.flush())
        save()  # nothing open again


def test_save_encodes_only_new_records(mr_model, tmp_path):
    path = tmp_path / "model.stream-ckpt.json"
    runtime = StreamRuntime(mr_model, IterableSource([]),
                            tracker=TrackerConfig(idle_timeout=1e12),
                            checkpoint_path=path)
    encoder = CountingEncoder()
    with mock.patch.object(tracker_module, "_record_to_dict", encoder):
        for n in range(10):
            runtime.tracker.observe(_record(n, n % 2, f"m{n}", None, None,
                                            False), None)
        runtime.checkpoint()
        assert encoder.calls == 10
        runtime.tracker.observe(_record(10, 0, "late", "raw", {"k": 1},
                                        False), None)
        runtime.checkpoint()
        assert encoder.calls == 11
        runtime.checkpoint()
        assert encoder.calls == 11
    assert_saved_as_whole_body(path, runtime.tracker)


class WholeBodyCheckedTracker(SessionTracker):
    """Asserts, on every save, that the text built from the cache equals
    a full sorted-key encoding of the live state."""

    saves = 0

    def state_json_parts(self) -> list[str]:
        parts = super().state_json_parts()
        assert "".join(parts) == json.dumps(frozen_state_dict(self),
                                            sort_keys=True)
        WholeBodyCheckedTracker.saves += 1
        return parts


def test_runtime_saves_match_whole_body_on_a_real_stream(mr_model, tmp_path):
    """A drained MapReduce stream with frequent checkpoints and idle
    closes: every save's tracker text is the whole-state encoding, and
    reports still equal batch detection."""
    jobs = WorkloadGenerator(seed=31).run_batch("mapreduce", 3)
    records = sorted((r for job in jobs for r in job.records),
                     key=lambda r: r.timestamp)
    sink = ListSink()
    WholeBodyCheckedTracker.saves = 0
    runtime = StreamRuntime(
        mr_model, IterableSource(records), sink=sink,
        tracker=WholeBodyCheckedTracker(TrackerConfig(idle_timeout=1e12)),
        checkpoint_path=tmp_path / "model.stream-ckpt.json",
        checkpoint_every=50, poll_batch=25,
    )
    runtime.run(once=True)
    assert WholeBodyCheckedTracker.saves > 10
    assert_saved_as_whole_body(runtime.checkpoint_path, runtime.tracker)
    batch = mr_model.detect_job(split_sessions(records))
    assert {r.session_id: r.to_dict() for r in sink.reports} == {
        r.session_id: r.to_dict() for r in batch.sessions
    }
