"""Incremental session assembly with bounded memory.

The batch pipeline buffers every record and calls
:func:`repro.parsing.records.split_sessions`; a streaming runtime cannot.
:class:`SessionTracker` assembles the same per-container sessions online:

* records are bucketed by the shared :func:`~repro.parsing.records.
  session_bucket` keying, so tracker output matches ``split_sessions``
  exactly on identical input;
* a session **closes** when an end-marker message arrives (e.g. Spark's
  ``Shutdown hook called``), when it has been idle — in *event time*,
  against the high-watermark of timestamps seen — longer than
  ``idle_timeout``, or when the tracker is flushed;
* when more than ``max_open_sessions`` are open, the least recently
  active session is **evicted** (closed early), keeping memory bounded
  no matter how many containers a job spawns.

Closed sessions come back time-sorted, with the live resolution each
record arrived with (its match, as
:meth:`~repro.detection.detector.AnomalyDetector.resolve` gives it),
ready for detection; the tracker never looks inside one.  Idle expiry
pops a min-heap keyed on ``last_seen``, so per-record work does not
grow with the number of open sessions.  The runtime feeds records a stretch at a time through
``observe_batch``; ``observe`` is its one-record form.

The tracker state (without resolutions) round-trips through
``state_dict()`` / ``load_state()`` for checkpointing.  A checkpoint
writes it from ``state_json_parts()``: the same text as
sorted-key ``json.dumps(state_dict())``, but each open session keeps
the text of the records it has already encoded, so a save encodes only
the records that arrived since the previous one.
"""

from __future__ import annotations

import heapq
import itertools
import json
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..parsing.records import LogRecord, Session, session_bucket

__all__ = [
    "DEFAULT_END_MARKERS",
    "TrackerConfig",
    "ClosedSession",
    "SessionTracker",
]

#: ``observe``'s default ``match``: the record came without its live
#: resolution, so its session is resolved again at close.
_UNMATCHED: object = object()

#: Session-end message markers recognized out of the box: the *final*
#: line each targeted system prints as a container winds down.  Markers
#: must only ever match a session's last message — a premature match
#: splits the session in two — so mid-shutdown chatter ("Driver
#: commanded a shutdown", "Task ... done") is deliberately absent;
#: sessions without a terminal marker close via the idle timeout.
DEFAULT_END_MARKERS = (
    r"Deleting directory",                 # Spark ShutdownHookManager
    r"metrics system shutdown complete",   # MapReduce map/reduce tasks
    r"Job end notification started",       # MapReduce ApplicationMaster
    r"TezChild shutdown invoked",          # Tez task containers
    r"Calling stop for all the services",  # Tez DAGAppMaster
)


#: Characters with a meaning in an end-marker pattern (compiled without
#: flags); a marker with none of them matches exactly its own text.
_REGEX_META = frozenset(".^$*+?{}[]\\|()")


def _is_literal(pattern: str) -> bool:
    return _REGEX_META.isdisjoint(pattern)


def _substring_test(markers: tuple[str, ...]) -> Callable[[str], bool]:
    """Whether a message holds one of the literal ``markers``: what the
    markers' regex search finds, without the regex engine."""

    def is_end(message: str) -> bool:
        for marker in markers:
            if marker in message:
                return True
        return False

    return is_end


@dataclass(slots=True)
class TrackerConfig:
    """Tunables for online session assembly."""

    #: Event-time seconds without records before a session is closed.
    idle_timeout: float = 300.0
    #: Hard cap on concurrently tracked sessions (LRU eviction above it).
    max_open_sessions: int = 10_000
    #: Regexes that mark a session's final message (searched anywhere
    #: in it).
    end_markers: tuple[str, ...] = DEFAULT_END_MARKERS


@dataclass(slots=True)
class ClosedSession:
    """One finished session plus why the tracker closed it."""

    session: Session
    reason: str  # "end_marker" | "idle" | "evicted" | "flush"
    #: Live resolution per record in ``session`` order, or ``None`` if
    #: any record came without one (e.g. restored from a checkpoint).
    matches: list[object] | None = None
    #: Content-addressed identity stamped by the runtime at finalize
    #: time (see :func:`repro.stream.resilience.finalization_id`);
    #: carried through sinks so downstream consumers can dedupe.
    finalization_id: str = ""


@dataclass(slots=True)
class _Open:
    session: Session
    last_seen: float  # event time of the newest record
    touched: int = 0  # observe() sequence number of the newest record
    pushed: int = 0  # sequence number of its live heap item
    matches: list[object] | None = field(default_factory=list)
    #: Sorted-key JSON of ``session.records[:encoded_count]``, one piece
    #: per save that found new records (pieces join with ``", "``): what
    #: ``state_json_parts`` has encoded so far.  It dies with the entry
    #: when the session closes.
    encoded: list[str] = field(default_factory=list)
    encoded_count: int = 0


class SessionTracker:
    """State machine turning a record stream into closed sessions."""

    def __init__(self, config: TrackerConfig | None = None) -> None:
        self.config = config or TrackerConfig()
        self._open: OrderedDict[tuple[str, str], _Open] = OrderedDict()
        markers = self.config.end_markers
        self._marker = (
            re.compile("|".join(f"(?:{p})" for p in markers))
            if markers else None
        )
        # The end-marker test ``observe_batch`` runs on every record:
        # plain substring tests when every marker is a literal (half
        # the regex search's cost on the default markers), else the
        # compiled regex.
        self._is_end: Callable[[str], object] | None = (
            None if self._marker is None
            else _substring_test(markers)
            if all(_is_literal(p) for p in markers)
            else self._marker.search
        )
        #: One live ``(time, seq, key)`` item per open entry; ``time`` is
        #: a lower bound of its ``last_seen``.  Items whose ``seq`` is no
        #: open entry's ``pushed`` are stale and skipped when popped.
        self._heap: list[tuple[float, int, tuple[str, str]]] = []
        self._seq = itertools.count()
        self.watermark = float("-inf")  # newest event time seen
        self.evictions = 0
        self.peak_open = 0

    # -- ingest -----------------------------------------------------------

    def observe(
        self,
        record: LogRecord,
        match: object = _UNMATCHED,
    ) -> list[ClosedSession]:
        """Ingest one record, with its live resolution if the caller
        has it; return any sessions this closed."""
        return [
            closed for _, closed in self.observe_batch((record,), (match,))
        ]

    def observe_batch(
        self,
        records: Sequence[LogRecord],
        matches: Sequence[object],
    ) -> list[tuple[int, ClosedSession]]:
        """Ingest ``records`` in order, ``matches[i]`` being the live
        resolution of ``records[i]`` as :meth:`observe` takes it; return
        ``(i, closed)`` for each session closed, in closing order, ``i``
        being the index of the record whose arrival closed it.

        The state after the call, and the closures, are those of one
        :meth:`observe` per record.
        """
        open_ = self._open
        get = open_.get
        move_to_end = open_.move_to_end
        heap = self._heap
        seq = self._seq
        is_end = self._is_end
        idle_timeout = self.config.idle_timeout
        cap = self.config.max_open_sessions
        watermark = self.watermark
        peak = self.peak_open
        closed: list[tuple[int, ClosedSession]] = []
        try:
            for i, (record, match) in enumerate(zip(records, matches)):
                sid = record.session_id
                if sid:  # the common case: session_bucket's first branch
                    key: tuple[str, str] = ("", sid)
                else:
                    key, sid = session_bucket(record)
                entry = get(key)
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
                    move_to_end(key)
                entry.session.records.append(record)
                if entry.matches is not None:
                    if match is _UNMATCHED:
                        entry.matches = None
                    else:
                        entry.matches.append(match)
                entry.touched = next(seq)
                if timestamp > watermark:
                    watermark = timestamp

                if is_end is not None and is_end(record.message):
                    del open_[key]
                    closed.append((i, self._close(entry, "end_marker")))
                if heap and heap[0][0] <= watermark - idle_timeout:
                    self.watermark = watermark
                    closed += [(i, item) for item in self._expire_idle()]
                if len(open_) > cap:
                    closed += [(i, item) for item in self._evict_over_cap()]
                # Peak is recorded post-eviction: the cap is a hard bound
                # on tracked sessions, so peak_open never exceeds it.
                if len(open_) > peak:
                    peak = len(open_)
                if len(heap) > 2 * len(open_):
                    self._compact()
        finally:
            self.watermark = watermark
            self.peak_open = peak
        return closed

    def flush(self) -> list[ClosedSession]:
        """Close everything still open (end of input / shutdown)."""
        closed = [
            self._close(entry, "flush") for entry in self._open.values()
        ]
        self._open.clear()
        self._heap.clear()
        return closed

    def evict_lru(self, count: int) -> list[ClosedSession]:
        """Force-close the ``count`` least recently active sessions.

        Used by the serving layer to enforce a *global* budget across
        tenants: each tracker's own ``max_open_sessions`` cap still
        applies, but the fleet scheduler may demand extra evictions
        when the sum over tenants exceeds the shared budget.  Evicted
        sessions flow through the normal closure path (reason
        ``"evicted"``) and count toward :attr:`evictions`.
        """
        closed: list[ClosedSession] = []
        for _ in range(min(count, len(self._open))):
            _, entry = self._open.popitem(last=False)
            self.evictions += 1
            closed.append(self._close(entry, "evicted"))
        if len(self._heap) > 2 * len(self._open):
            self._compact()
        return closed

    def forget_matches(self) -> None:
        """Open sessions are resolved again at close (model replaced)."""
        for entry in self._open.values():
            entry.matches = None

    @property
    def open_count(self) -> int:
        return len(self._open)

    # -- closure policies -------------------------------------------------

    def _push(self, key: tuple[str, str], entry: _Open) -> None:
        entry.pushed = next(self._seq)
        heapq.heappush(self._heap, (entry.last_seen, entry.pushed, key))

    def _compact(self) -> None:
        """Rebuild the heap from the open entries, once stale items are
        over half of it: each rebuild costs less than the closes since
        the last one, so it is amortised O(1) per close."""
        self._heap.clear()
        for key, entry in self._open.items():
            entry.pushed = next(self._seq)
            self._heap.append((entry.last_seen, entry.pushed, key))
        heapq.heapify(self._heap)

    def _expire_idle(self) -> list[ClosedSession]:
        # Pop every item at or below the horizon.  An entry seen since
        # its push goes back under its new last_seen; the rest expire,
        # closing in LRU order (oldest touch first) as a scan would.
        horizon = self.watermark - self.config.idle_timeout
        heap = self._heap
        expired: list[tuple[tuple[str, str], _Open]] = []
        while heap and heap[0][0] <= horizon:
            _, seq, key = heapq.heappop(heap)
            entry = self._open.get(key)
            if entry is None or entry.pushed != seq:
                continue
            if entry.last_seen <= horizon:
                expired.append((key, entry))
            else:
                self._push(key, entry)
        expired.sort(key=lambda item: item[1].touched)
        closed = []
        for key, entry in expired:
            del self._open[key]
            closed.append(self._close(entry, "idle"))
        return closed

    def _evict_over_cap(self) -> list[ClosedSession]:
        closed = []
        while len(self._open) > self.config.max_open_sessions:
            _, entry = self._open.popitem(last=False)
            self.evictions += 1
            closed.append(self._close(entry, "evicted"))
        return closed

    @staticmethod
    def _close(entry: _Open, reason: str) -> ClosedSession:
        session, matches = entry.session, entry.matches
        if matches is None:
            session.sort()
        else:
            # The same stable timestamp sort, applied to both lists.
            pairs = sorted(
                zip(session.records, matches),
                key=lambda pair: pair[0].timestamp,
            )
            session.records = [record for record, _ in pairs]
            matches = [match for _, match in pairs]
        return ClosedSession(session=session, reason=reason, matches=matches)

    # -- checkpoint state -------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of every open session."""
        return {
            **self._state_header(),
            "open": [
                {
                    **_item_header(key, entry),
                    "records": [
                        _record_to_dict(r) for r in entry.session.records
                    ],
                }
                for key, entry in self._open.items()
            ],
        }

    def state_json_parts(self) -> list[str]:
        """Pieces of ``json.dumps(self.state_dict(), sort_keys=True)``,
        each session's records taken from its cached pieces: only the
        records appended since the previous call are encoded."""
        items: list[str] = []
        for key, entry in self._open.items():
            records = entry.session.records
            if entry.encoded_count < len(records):
                entry.encoded.append(sorted_json([
                    _record_to_dict(r)
                    for r in records[entry.encoded_count:]
                ])[1:-1])
                entry.encoded_count = len(records)
            members = _encode_members(_item_header(key, entry))
            members["records"] = ["[", ", ".join(entry.encoded), "]"]
            if items:
                items.append(", ")
            items += object_parts(members)
        members = _encode_members(self._state_header())
        members["open"] = ["[", *items, "]"]
        return object_parts(members)

    def _state_header(self) -> dict:
        return {
            "watermark": (
                None if self.watermark == float("-inf")
                else self.watermark
            ),
            "evictions": self.evictions,
            "peak_open": self.peak_open,
        }

    def load_state(self, state: dict) -> None:
        """Restore a ``state_dict()`` snapshot (replaces current state)."""
        watermark = state.get("watermark")
        self.watermark = (
            float("-inf") if watermark is None else float(watermark)
        )
        self.evictions = int(state.get("evictions", 0))
        self.peak_open = int(state.get("peak_open", 0))
        self._open = OrderedDict()
        self._heap = []
        for item in state.get("open", ()):
            key = tuple(item["key"])
            session = Session(
                session_id=item["session_id"],
                app_id=item.get("app_id", ""),
            )
            for rec in item.get("records", ()):
                session.append(_record_from_dict(rec))
            entry = self._open[key] = _Open(
                session=session,
                last_seen=float(item["last_seen"]),
                touched=next(self._seq),
                matches=None,
            )
            self._push(key, entry)


def _item_header(key: tuple[str, str], entry: _Open) -> dict:
    """An open session's checkpoint fields other than its records."""
    return {
        "key": list(key),
        "session_id": entry.session.session_id,
        "app_id": entry.session.app_id,
        "last_seen": entry.last_seen,
    }


#: ``json.dumps(value, sort_keys=True)``, without building an encoder
#: per call.
sorted_json = json.JSONEncoder(sort_keys=True).encode


def _encode_members(fields: dict) -> dict[str, list[str]]:
    return {name: [sorted_json(value)] for name, value in fields.items()}


def object_parts(members: dict[str, list[str]]) -> list[str]:
    """Pieces of the JSON object whose members' values are already
    encoded (each as pieces), laid out as ``json.dumps(...,
    sort_keys=True)`` lays it out."""
    parts = ["{"]
    for i, name in enumerate(sorted(members)):
        parts += [", " if i else "", f"{sorted_json(name)}: ", *members[name]]
    parts.append("}")
    return parts


def _record_to_dict(record: LogRecord) -> dict:
    """Checkpoint form of a record.

    Ground truth (simulator-only annotations) is intentionally dropped:
    detection never consults it, and it does not survive real restarts
    either.
    """
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


def _record_from_dict(data: dict) -> LogRecord:
    return LogRecord(
        timestamp=float(data["timestamp"]),
        level=data.get("level", "INFO"),
        source=data.get("source", ""),
        message=data["message"],
        session_id=data.get("session_id", ""),
        app_id=data.get("app_id", ""),
        raw=data.get("raw", ""),
        meta=dict(data.get("meta", {})),
    )
