"""Report sinks: where finished :class:`SessionReport`s go.

The runtime emits one report per closed session through a pluggable
sink, decoupling detection from delivery (stdout, JSON-lines files,
collection for tests, or any callable).

Sinks participate in the resilience contract two ways:

* every emission carries the closed session's ``finalization_id`` (the
  content hash behind the exactly-once ledger), so downstream
  consumers can dedupe even across the residual crash window between a
  delivery and the journal append that records it;
* a sink may expose ``emitted_ids()`` returning the finalization ids
  it has already durably delivered — :class:`JsonLinesSink` replays
  them from its own output file — and the runtime merges those into
  its ledger on resume, making the sink's output the authoritative
  delivery log even after checkpoint loss.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Callable, Protocol, runtime_checkable

from ..core.fsio import ends_mid_line
from ..detection.report import SessionReport
from .tracker import ClosedSession

__all__ = ["ReportSink", "ListSink", "JsonLinesSink", "CallbackSink"]


@runtime_checkable
class ReportSink(Protocol):
    """Receives each finished session report exactly once."""

    def emit(self, report: SessionReport, closed: ClosedSession) -> None:
        ...


class ListSink:
    """Collects reports in memory (tests, small backfills)."""

    def __init__(self) -> None:
        self.reports: list[SessionReport] = []
        self.closures: list[ClosedSession] = []

    def emit(self, report: SessionReport, closed: ClosedSession) -> None:
        self.reports.append(report)
        self.closures.append(closed)

    def emitted_ids(self) -> list[str]:
        return [
            c.finalization_id for c in self.closures if c.finalization_id
        ]


class JsonLinesSink:
    """Appends one JSON object per report to a stream or file.

    Each line carries the full report dict plus the closure reason and
    finalization id, so downstream consumers can distinguish evicted
    sessions from clean closes and dedupe redelivered reports.  When
    backed by a file path, the sink's own output doubles as the
    delivery log: ``emitted_ids()`` re-reads it on resume (skipping any
    torn trailing line) so already-delivered reports are never emitted
    twice even if the checkpoint was lost.  A file that ends mid-line is
    sealed with a newline on open, so the torn fragment stays a line of
    its own.  Bound to an open stream instead, the sink keeps no
    delivery log (``emitted_ids()`` is empty) and exactly-once rests on
    the runtime's journal alone.
    """

    def __init__(self, target: IO[str] | str | Path) -> None:
        if isinstance(target, (str, Path)):
            self._path: Path | None = Path(target)
            torn = ends_mid_line(self._path)
            self._fp: IO[str] = open(target, "a", encoding="utf-8")
            if torn:
                # A crash mid-append left a fragment: start a fresh
                # line, or the next report is glued onto it and lost.
                self._fp.write("\n")
            self._owned = True
        else:
            self._path = None
            self._fp = target
            self._owned = False

    def emit(self, report: SessionReport, closed: ClosedSession) -> None:
        payload = report.to_dict()
        payload["closed_reason"] = closed.reason
        if closed.finalization_id:
            payload["finalization_id"] = closed.finalization_id
        self._fp.write(json.dumps(payload) + "\n")
        self._fp.flush()

    def emitted_ids(self) -> list[str]:
        """Finalization ids already present in the output file.

        Torn or non-JSON trailing lines (a crash mid-append) are
        skipped: a half-written report was not delivered.
        """
        if self._path is None or not self._path.exists():
            return []
        ids: list[str] = []
        for line in self._path.read_text(
            encoding="utf-8", errors="replace"
        ).splitlines():
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(payload, dict):
                fid = payload.get("finalization_id")
                if fid:
                    ids.append(str(fid))
        return ids

    def close(self) -> None:
        if self._owned:
            self._fp.close()


class CallbackSink:
    """Adapts any ``(report, closed) -> None`` callable into a sink."""

    def __init__(
        self,
        fn: Callable[[SessionReport, ClosedSession], None],
    ) -> None:
        self._fn = fn

    def emit(self, report: SessionReport, closed: ClosedSession) -> None:
        self._fn(report, closed)
