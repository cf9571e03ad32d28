"""Online detection: per-record live alerts + batch-exact session reports.

The paper's detection phase (§4.2) has two halves with different latency
profiles, and the streaming detector splits them accordingly:

* **unexpected log messages** are recognizable the instant a record
  arrives — :meth:`StreamingDetector.observe` resolves each record
  against the learned log keys and emits a lightweight
  :class:`LiveAlert` immediately when its form matches no key, so
  operators see novel messages while the job is still running;
* **erroneous HW-graph instances** (incomplete subroutines, missing
  critical keys, order violations, missing groups, hierarchy breaks)
  need the whole session — :meth:`StreamingDetector.finalize` runs them
  when the tracker closes a session.

``finalize`` delegates to the batch
:meth:`~repro.detection.detector.AnomalyDetector.detect_session` on the
time-sorted closed session, which makes stream/batch report parity exact
*by construction*: the same detector code produces the authoritative
:class:`~repro.detection.report.SessionReport` in both modes.  Each
record is resolved once: the tracker carries the live pass's
resolution (:meth:`AnomalyDetector.resolve`, a pure function of the
message under the frozen model) to ``finalize``; only sessions restored
from a checkpoint, or open across a model swap
(:meth:`SessionTracker.forget_matches`), are resolved again at close.
The full §3 extraction for unexpected messages runs once, at finalize
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..detection.detector import AnomalyDetector, Resolved
from ..detection.report import SessionReport
from ..parsing.records import LogRecord
from .tracker import ClosedSession

__all__ = ["LiveAlert", "StreamingDetector"]


@dataclass(slots=True)
class LiveAlert:
    """Immediate per-record finding, ahead of the session's full report."""

    kind: str
    session_id: str
    app_id: str
    timestamp: float
    message: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "session_id": self.session_id,
            "app_id": self.app_id,
            "timestamp": self.timestamp,
            "message": self.message,
        }


class StreamingDetector:
    """Wraps a trained :class:`AnomalyDetector` for online use."""

    def __init__(self, detector: AnomalyDetector) -> None:
        self.detector = detector

    def observe(
        self, record: LogRecord
    ) -> tuple[LiveAlert | None, Resolved]:
        """Cheap per-record check: is this message's log key known?

        Returns ``(alert, resolved)``: a :class:`LiveAlert` for
        unexpected messages (``None`` for messages the model
        recognizes) and the record's resolution, which the caller
        carries to :meth:`finalize`.  The alert is purely advisory —
        the authoritative anomaly (with full five-field extraction)
        appears in the session's report.
        """
        return self.observe_batch((record,))[0]

    def observe_batch(
        self, records: Sequence[LogRecord]
    ) -> list[tuple[LiveAlert | None, Resolved]]:
        """Batched :meth:`observe`: one :meth:`AnomalyDetector.resolve`
        for the whole poll batch (duplicate messages resolve once), same
        per-record pairs.  The runtime feeds entire source batches
        through here so the cost amortizes across the batch."""
        resolved = self.detector.resolve(
            [record.message for record in records]
        )
        return [
            ((self._alert(record) if result is None else None), result)
            for record, result in zip(records, resolved)
        ]

    @staticmethod
    def _alert(record: LogRecord) -> LiveAlert:
        return LiveAlert(
            kind="unexpected_message",
            session_id=record.session_id,
            app_id=record.app_id,
            timestamp=record.timestamp,
            message=record.message[:200],
        )

    def finalize(self, closed: ClosedSession) -> SessionReport:
        """Full HW-graph-instance checks on a closed session, reusing
        the live resolutions it carries (if any)."""
        return self.detector.detect_session(
            closed.session, resolved=closed.matches
        )
