"""Core log record data structures.

A :class:`LogRecord` is one formatted log message: the output of a
:mod:`repro.parsing.formatters` formatter applied to a raw line.  Records
carry optional *ground truth* produced by the simulators (the template that
emitted the line and the semantic role of every variable field), which the
accuracy benchmarks (paper Table 4) compare against IntelLog's extraction.
Ground truth is never consulted by the analysis pipeline itself — IntelLog
is non-intrusive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """Hidden per-record annotations emitted by the simulators.

    ``template_id``
        Stable identifier of the printing statement that produced the line.
    ``fields``
        Mapping of variable surface strings to their true roles, each one of
        ``"identifier"``, ``"value"``, ``"locality"``.
    ``entities`` / ``operations``
        The true entity phrases and operation triples of the template.
    ``anomalous``
        True when the record was produced by an injected fault path.
    """

    template_id: str
    fields: dict[str, str] = field(default_factory=dict)
    entities: tuple[str, ...] = ()
    operations: tuple[tuple[str, str, str], ...] = ()
    anomalous: bool = False


@dataclass(slots=True)
class LogRecord:
    """One formatted log message."""

    timestamp: float
    level: str
    source: str  # emitting class/component, e.g. "BlockManager"
    message: str  # free-text content (what IntelLog analyses)
    session_id: str = ""  # YARN container id == session (paper §5)
    app_id: str = ""
    raw: str = ""
    truth: GroundTruth | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.raw:
            self.raw = self.message

    def to_dict(self) -> dict[str, Any]:
        """Portable form (what the analysis pipeline consumes).

        Ground truth and ``meta`` are intentionally not persisted: they
        are simulator-side annotations, and corpora serialized this way
        (e.g. the golden regression corpus) must exercise exactly what a
        real deployment would see.
        """
        return {
            "timestamp": self.timestamp,
            "level": self.level,
            "source": self.source,
            "message": self.message,
            "session_id": self.session_id,
            "app_id": self.app_id,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LogRecord":
        return cls(
            timestamp=float(data["timestamp"]),
            level=str(data.get("level", "INFO")),
            source=str(data.get("source", "")),
            message=str(data["message"]),
            session_id=str(data.get("session_id", "")),
            app_id=str(data.get("app_id", "")),
        )


@dataclass(slots=True)
class Session:
    """All log records generated by one YARN container, in time order.

    The paper (§2.3, §5) treats the execution inside one container as one
    *session*; HW-graph lifespans, subroutine instances and anomaly
    verdicts are all per-session.
    """

    session_id: str
    app_id: str = ""
    records: list[LogRecord] = field(default_factory=list)
    #: Set by fault injection: which problem (if any) affected this session.
    injected_fault: str | None = None
    #: Component role of the container, e.g. "appmaster", "executor".
    role: str = ""

    def append(self, record: LogRecord) -> None:
        self.records.append(record)

    def sort(self) -> None:
        self.records.sort(key=lambda r: r.timestamp)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)

    @property
    def start(self) -> float:
        return self.records[0].timestamp if self.records else 0.0

    @property
    def end(self) -> float:
        return self.records[-1].timestamp if self.records else 0.0

    def messages(self) -> list[str]:
        return [r.message for r in self.records]

    def to_dict(self) -> dict[str, Any]:
        """Portable form: identity, role and per-record payloads."""
        return {
            "session_id": self.session_id,
            "app_id": self.app_id,
            "role": self.role,
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Session":
        return cls(
            session_id=str(data["session_id"]),
            app_id=str(data.get("app_id", "")),
            role=str(data.get("role", "")),
            records=[
                LogRecord.from_dict(entry)
                for entry in data.get("records", ())
            ],
        )


def session_bucket(record: LogRecord) -> tuple[tuple[str, str], str]:
    """Session bucketing key for one record: ``(bucket_key, session_id)``.

    Container ids are globally unique, so records with a ``session_id``
    bucket on it alone.  Records *without* one fall into a default bucket
    **per application** — merging them across ``app_id``s would fuse
    unrelated jobs into one session.  The synthesized default session id
    carries the app so downstream reports stay distinguishable.

    Shared by :func:`split_sessions` (batch) and
    :class:`repro.stream.SessionTracker` (online) so both modes assemble
    identical sessions from identical records.
    """
    if record.session_id:
        return ("", record.session_id), record.session_id
    if record.app_id:
        return (record.app_id, "<default>"), f"<default:{record.app_id}>"
    return ("", "<default>"), "<default>"


_CONTAINER_RE = re.compile(r"container_\w+")
_APP_RE = re.compile(r"application_\d+_\d+")


def yarn_session_key(record: LogRecord) -> LogRecord:
    """Default session attribution: scan the raw line for YARN ids.

    One container's logs are one session (paper §5); log files aggregated
    by YARN interleave many containers, each line carrying its container
    id.  Records that already have a ``session_id`` are left untouched.
    """
    if not record.session_id:
        match = _CONTAINER_RE.search(record.raw)
        if match:
            record.session_id = match.group(0)
    if not record.app_id:
        match = _APP_RE.search(record.raw)
        if match:
            record.app_id = match.group(0)
    return record


def split_sessions(records: Iterable[LogRecord]) -> list[Session]:
    """Group records into per-container sessions, each time-ordered."""
    by_id: dict[tuple[str, str], Session] = {}
    for record in records:
        key, sid = session_bucket(record)
        session = by_id.get(key)
        if session is None:
            session = Session(session_id=sid, app_id=record.app_id)
            by_id[key] = session
        session.append(record)
    sessions = list(by_id.values())
    for session in sessions:
        session.sort()
    sessions.sort(key=lambda s: (s.start, s.session_id))
    return sessions
