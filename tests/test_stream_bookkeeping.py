"""Per-record bookkeeping of the streaming runtime, against frozen copies.

* :func:`frozen_finalization_id` is the session hash as it was when it
  fed the digest one field at a time.  Ids are stored in checkpoints,
  delivery journals and sink ledgers, so any other way of hashing must
  give the same hex digest on every session: empty ones, non-ASCII
  text, lone surrogates, NaN and infinite timestamps.
* :class:`PerRecordRuntime` is a runtime whose ``_ingest`` is a frozen
  copy of the per-record loop: one ``stream_records_total`` increment
  and one stats check per record.  Driven over the same stream, stats
  must fire at the same record counts with the same snapshot, alerts
  must arrive in the same order, and the same reports must be emitted.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parsing.records import LogRecord, Session
from repro.simulators import WorkloadGenerator
from repro.stream import (
    IterableSource,
    ListSink,
    StreamRuntime,
    TrackerConfig,
)
from repro.stream.resilience import finalization_id


def frozen_finalization_id(session: Session) -> str:
    digest = hashlib.sha256()
    digest.update(session.session_id.encode("utf-8", "replace"))
    digest.update(b"\x00")
    digest.update(session.app_id.encode("utf-8", "replace"))
    for record in session.records:
        digest.update(b"\x00")
        digest.update(repr(record.timestamp).encode("ascii", "replace"))
        digest.update(b"\x1f")
        digest.update(record.message.encode("utf-8", "replace"))
    return digest.hexdigest()[:20]


_TEXT = st.lists(
    st.one_of(
        st.characters(),
        st.sampled_from(["\ud800", "\udfff", "\ud83d", "\ude00", "\x00",
                         "\x1f", "é", "中", "\U0001f600"]),
    ),
    max_size=12,
).map("".join)

_RECORD = st.builds(
    lambda ts, message: LogRecord(
        timestamp=ts, level="INFO", source="X", message=message,
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    _TEXT,
)


@settings(max_examples=300, deadline=None)
@given(sid=_TEXT, app=_TEXT, records=st.lists(_RECORD, max_size=6))
def test_finalization_id_matches_frozen_copy(sid, app, records):
    session = Session(session_id=sid, app_id=app, records=records)
    assert finalization_id(session) == frozen_finalization_id(session)


def test_finalization_id_of_empty_session():
    session = Session(session_id="")
    assert finalization_id(session) == frozen_finalization_id(session)
    assert finalization_id(session) == (
        hashlib.sha256(b"\x00").hexdigest()[:20]
    )


class PerRecordRuntime(StreamRuntime):
    """A runtime with the frozen per-record ``_ingest`` loop."""

    def _ingest(self, records: list, start: float) -> None:
        assert self._next_stats_at is not None
        for record, (alert, match) in zip(
            records, self.detector.observe_batch(records)
        ):
            self._m_records.inc()
            self._run_consumed += 1
            if alert is not None:
                self._m_live_alerts.inc()
                if self.on_alert is not None:
                    self.on_alert(alert)
            for closed in self.tracker.observe(record, match):
                self._finalize(closed)
            if int(self._m_records.value) >= self._next_stats_at:
                self._next_stats_at += self.stats_every
                self._emit_stats(start)


@pytest.fixture(scope="module")
def stream_with_alerts(spark_model):
    """Five spark jobs, time-ordered, with a novel message every 97
    records so live alerts land inside and across stats windows."""
    jobs = WorkloadGenerator(seed=77).run_batch("spark", 5)
    records = sorted(
        (r for job in jobs for r in job.records),
        key=lambda r: r.timestamp,
    )
    out = []
    for i, record in enumerate(records):
        out.append(record)
        if i % 97 == 0:
            out.append(LogRecord(
                timestamp=record.timestamp, level="INFO", source="X",
                message=f"flux capacitor {i} desynchronized",
                session_id=record.session_id, app_id=record.app_id,
            ))
    return out


def _events(runtime_cls, model, records, stats_every, poll_batch):
    events: list[tuple] = []
    ticks = itertools.count()
    sink = ListSink()
    runtime = runtime_cls(
        model, IterableSource(records), sink=sink,
        tracker=TrackerConfig(idle_timeout=60.0),
        on_alert=lambda alert: events.append(("alert", alert.to_dict())),
        stats_callback=lambda stats: events.append(
            ("stats", stats.to_dict())
        ),
        stats_every=stats_every, poll_batch=poll_batch,
        clock=lambda: float(next(ticks)), sleep=lambda _: None,
    )
    final = runtime.run(once=True)
    reports = [report.to_dict() for report in sink.reports]
    return events, reports, final.to_dict()


@pytest.mark.parametrize("stats_every", [1, 7, 1000])
@pytest.mark.parametrize("poll_batch", [5, 512])
def test_ingest_matches_per_record_loop(spark_model, stream_with_alerts,
                                        stats_every, poll_batch):
    want = _events(PerRecordRuntime, spark_model, stream_with_alerts,
                   stats_every, poll_batch)
    got = _events(StreamRuntime, spark_model, stream_with_alerts,
                  stats_every, poll_batch)
    assert got == want
    events = want[0]
    counts = [e[1]["records"] for e in events if e[0] == "stats"]
    # Every emission but the close-out's falls on a stats boundary.
    assert counts[:-1] == [stats_every * k for k in range(1, len(counts))]
    assert any(e[0] == "alert" for e in events)
