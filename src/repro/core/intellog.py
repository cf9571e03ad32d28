"""The IntelLog façade: train on normal sessions, detect on new ones.

This is the library's primary entry point, mirroring Figure 2's four stages:

1. **Log key extraction** — Spell over the training messages;
2. **Entity extraction** — every log key becomes an Intel Key (§3);
3. **HW-graph modelling** — grouping, subroutines, lifespans (§4.1);
4. **Anomaly detection** — new sessions checked against the model (§4.2).

Typical use::

    from repro import IntelLog

    intellog = IntelLog()
    intellog.train(training_sessions)          # list[Session]
    report = intellog.detect_job(new_sessions) # JobReport
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry

from ..detection.detector import AnomalyDetector, match_captures
from ..detection.report import JobReport, SessionReport
from ..extraction.intelkey import IntelKey, IntelMessage
from ..extraction.pipeline import InformationExtractor
from ..graph.hwgraph import HWGraph
from ..parsing.formatters import default_registry
from ..parsing.records import (
    LogRecord,
    Session,
    split_sessions,
    yarn_session_key,
)
from ..parsing.spell import SpellParser
from .config import IntelLogConfig
from .errors import (
    ModelValidationError,
    ModelValidationWarning,
    NotTrainedError,
)
from .train import TrainingSummary, train


class IntelLog:
    """Semantic-aware workflow construction and anomaly detection."""

    def __init__(self, config: IntelLogConfig | None = None) -> None:
        self.config = config or IntelLogConfig()
        self.config.validate()
        self.spell = SpellParser(tau=self.config.spell_tau)
        self.extractor = InformationExtractor()
        self.graph: HWGraph | None = None
        self.intel_keys: dict[str, IntelKey] = {}
        self._detector: AnomalyDetector | None = None

    # -- training -------------------------------------------------------------

    def train(
        self,
        sessions: Iterable[Session],
        *,
        registry: "MetricsRegistry | None" = None,
    ) -> TrainingSummary:
        """Learn log keys, Intel Keys and the HW-graph from normal runs
        (:func:`repro.core.train.train`).

        Each call builds a fresh model from ``sessions`` alone: log keys,
        Intel Keys, HW-graph and detector from an earlier ``train`` are
        replaced, never extended.

        ``registry`` attaches a :class:`~repro.obs.MetricsRegistry`:
        per-stage ``train.*`` spans land in its ``trace_span_seconds``
        histogram, which is what ``repro train --metrics-out``
        snapshots.  Never changes the model.
        """
        return train(self, sessions, registry=registry)

    def train_lines(
        self,
        lines: Iterable[str],
        formatter: str | None = None,
        *,
        registry: "MetricsRegistry | None" = None,
    ) -> TrainingSummary:
        """Train from raw log lines (formatted + split into sessions)."""
        records = self._format(lines, formatter)
        return self.train(split_sessions(records), registry=registry)

    # -- detection ----------------------------------------------------------------

    def detect_session(self, session: Session) -> SessionReport:
        return self._require_detector().detect_session(session)

    def detect_job(
        self, sessions: Iterable[Session], job_id: str = ""
    ) -> JobReport:
        return self._require_detector().detect_job(list(sessions), job_id)

    def detect_lines(
        self, lines: Iterable[str], formatter: str | None = None,
        job_id: str = "",
    ) -> JobReport:
        records = self._format(lines, formatter)
        return self.detect_job(split_sessions(records), job_id)

    # -- introspection -----------------------------------------------------------------

    def hw_graph(self) -> HWGraph:
        if self.graph is None:
            raise NotTrainedError("call train() first")
        return self.graph

    def detector(self) -> AnomalyDetector:
        """The trained anomaly detector (used directly by
        :class:`repro.stream.StreamRuntime` for online detection)."""
        return self._require_detector()

    def intel_messages(
        self, sessions: Iterable[Session]
    ) -> list[IntelMessage]:
        """Transform sessions into Intel Messages using the trained keys
        (the §6.4 query workflow; see :mod:`repro.query`).

        Each session is matched in one :meth:`SpellParser.match_batch`
        call, and the matches' captures are reused where they stand in
        for the Intel Key's alignment (:func:`match_captures`)."""
        if self.graph is None:
            raise NotTrainedError("call train() first")
        out: list[IntelMessage] = []
        verdicts: dict[str, bool] = {}
        for session in sessions:
            records = list(session)
            matches = self.spell.match_batch(
                [record.message for record in records]
            )
            for record, match in zip(records, matches):
                if match is None:
                    continue
                intel_key = self.intel_keys.get(match.key.key_id)
                if intel_key is None:
                    continue
                message = self.extractor.to_intel_message(
                    intel_key,
                    record.message,
                    timestamp=record.timestamp,
                    session_id=session.session_id,
                    captures=match_captures(
                        match, intel_key.template, verdicts
                    ),
                )
                if message is not None:
                    out.append(message)
        return out

    # -- helpers -------------------------------------------------------------------------

    def _validate_graph(self) -> None:
        """Static artifact checks on the freshly built HW-graph.

        Warn-by-default (``ModelValidationWarning`` per diagnostic);
        ``config.strict_validation`` upgrades error-severity findings to
        :class:`ModelValidationError`.
        """
        from ..analysis.validate import validate_graph

        assert self.graph is not None
        report = validate_graph(self.graph)
        if not report:
            return
        if self.config.strict_validation and report.has_errors:
            raise ModelValidationError(
                f"trained HW-graph failed validation: {report.summary()}\n"
                + report.render(),
                diagnostics=list(report),
            )
        for diag in report:
            warnings.warn(diag.render(), ModelValidationWarning,
                          stacklevel=3)

    def _format(
        self, lines: Iterable[str], formatter: str | None
    ) -> list[LogRecord]:
        """Format raw lines and attribute each record to its YARN
        container (:func:`~repro.parsing.records.yarn_session_key`)."""
        name = formatter or self.config.formatter
        fmt = default_registry().get(name)
        return [yarn_session_key(record) for record in fmt.parse_lines(lines)]

    def _require_detector(self) -> AnomalyDetector:
        if self._detector is None:
            raise NotTrainedError("call train() first")
        return self._detector
