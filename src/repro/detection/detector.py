"""The anomaly detector (paper §4.2).

For each incoming session the detector

1. matches every log message against the learned log keys — a message with
   no matching key is an **unexpected log message**; IntelLog still runs
   the full §3 extraction on it so the report carries entities,
   identifiers, values, localities and operations for diagnosis;
2. builds a HW-graph instance and, once the session is complete, checks it
   against the trained HW-graph: missing critical Intel Keys in subroutine
   instances, order violations, unexpected keys inside a subroutine,
   missing entity groups, and lifespan hierarchy violations are all
   **erroneous HW-graph instance** anomalies.

Key-value-dump keys learned during training are ignored rather than
reported (paper §5).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ContextManager

from ..extraction.idvalue import FieldRole
from ..extraction.intelkey import IntelKey
from ..extraction.pipeline import InformationExtractor
from ..graph.hwgraph import HWGraph
from ..graph.lifespan import BEFORE, PARENT
from ..parsing.records import LogRecord, Session
from ..parsing.spell import LogKey, MatchResult, SpellParser
from .instance import HWGraphInstance
from .report import Anomaly, AnomalyKind, JobReport, SessionReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.subroutine import Subroutine
    from ..obs import Counter, MetricsRegistry, Tracer

#: A group must have appeared in at least this fraction of training
#: sessions for its absence to be reported (guards against optional groups).
_GROUP_PRESENCE_THRESHOLD = 0.999


@dataclass(slots=True)
class DetectorConfig:
    """Tunables for the detection phase."""

    #: Report groups that were present in (almost) all training sessions but
    #: are absent from the detected session.
    report_missing_groups: bool = True
    #: Check PARENT/BEFORE lifespan relations per session.
    check_hierarchy: bool = True
    #: Minimum messages in a session before missing-group checks apply
    #: (very short sessions are usually setup/teardown containers).
    min_session_length_for_missing: int = 5


class AnomalyDetector:
    """Checks incoming sessions against a trained model."""

    def __init__(
        self,
        graph: HWGraph,
        spell: SpellParser,
        extractor: InformationExtractor | None = None,
        config: DetectorConfig | None = None,
    ) -> None:
        self.graph = graph
        self.spell = spell
        self.extractor = extractor or InformationExtractor()
        self.config = config or DetectorConfig()
        # Entity-phrase lookup structures, precomputed once so per-record
        # group attribution does not re-split every group label.
        self._entity_index: dict[tuple[str, ...], list[str]] = {}
        for label, node in graph.groups.items():
            for phrase in node.entities:
                self._entity_index.setdefault(tuple(phrase), []).append(
                    label
                )
        self._label_phrases: list[tuple[tuple[str, ...], str]] = [
            (tuple(label.split()), label) for label in graph.groups
        ]
        # Lazily resolved PARENT/BEFORE verdicts for _check_hierarchy —
        # pure over the frozen training graph, so computed once per
        # detector instead of once per session pair.
        self._hierarchy_pairs: dict[tuple[str, str], str] | None = None
        # Per log key: may match-time captures stand in for the Intel
        # Key template alignment?  Key templates are frozen while
        # detecting, so the verdict is cached by key id.
        self._captures_ok: dict[str, bool] = {}
        # Subroutine checks are pure over the frozen model and instance
        # key sequences repeat heavily across sessions, so both the
        # signature->subroutine resolution and the per-sequence problem
        # list are memoized for the detector's lifetime.
        self._best_match_memo: dict[
            tuple[str, tuple[str, ...]], "Subroutine | None"
        ] = {}
        self._check_memo: dict[
            tuple[int, tuple[str, ...]], tuple[str, ...]
        ] = {}
        self._tracer: "Tracer | None" = None
        self._m_sessions: "Counter | None" = None
        self._m_records: "Counter | None" = None
        self._m_anomalies: "Counter | None" = None

    def instrument(
        self,
        registry: "MetricsRegistry",
        tracer: "Tracer | None" = None,
    ) -> "AnomalyDetector":
        """Attach metrics + tracing; also instruments the Spell parser.

        Idempotent; returns ``self`` for chaining.
        """
        from ..obs import Tracer as _Tracer

        self._tracer = tracer or _Tracer(registry=registry)
        self.spell.instrument(registry)
        self._m_sessions = registry.counter(
            "detect_sessions_total", "Sessions run through detect_session."
        )
        self._m_records = registry.counter(
            "detect_records_total", "Log records examined by the detector."
        )
        self._m_anomalies = registry.counter(
            "detect_anomalies_total", "Anomalies reported, by kind."
        )
        return self

    # -- public API ---------------------------------------------------------------

    def detect_session(
        self,
        session: Session,
        *,
        matches: list["MatchResult | None"] | None = None,
    ) -> SessionReport:
        """Consume one complete session and report its anomalies.

        ``matches``, one per record in session order, are reused instead
        of matching the session here."""
        tracer = self._tracer
        if tracer is None:
            return self._detect_session_inner(session, None, matches)
        with tracer.span("detect.session"):
            report = self._detect_session_inner(session, tracer, matches)
        assert self._m_sessions and self._m_records and self._m_anomalies
        self._m_sessions.inc()
        self._m_records.inc(report.message_count)
        for anomaly in report.anomalies:
            self._m_anomalies.labels(kind=anomaly.kind.value).inc()
        return report

    def _detect_session_inner(
        self,
        session: Session,
        tracer: "Tracer | None",
        matches: list["MatchResult | None"] | None,
    ) -> SessionReport:
        report = SessionReport(session_id=session.session_id)
        instance = HWGraphInstance(
            session_id=session.session_id, graph=self.graph
        )

        # Records are matched in one batch up front (memoized per
        # distinct message), then the extraction/graph loop runs over
        # the precomputed results; when the caller already matched the
        # records (:meth:`detect_batch` across sessions, or a stream's
        # live pass), its results are reused verbatim.  Match/extract
        # phase times are accumulated across the loop and reported as
        # two pre-measured spans rather than thousands of micro-spans.
        timed = tracer is not None
        records = list(session)
        match_s = 0.0
        extract_s = 0.0
        if matches is None:
            if timed:
                t0 = time.perf_counter()
            matches = self.spell.match_batch(
                [record.message for record in records]
            )
            if timed:
                match_s = time.perf_counter() - t0
        for record, match in zip(records, matches):
            report.message_count += 1
            if match is None:
                report.anomalies.append(
                    self._unexpected_message(record)
                )
                continue
            report.matched_count += 1
            key_id = match.key.key_id
            if key_id in self.graph.ignored_keys:
                continue
            intel_key = self.graph.intel_keys.get(key_id)
            if intel_key is None:
                continue
            if timed:
                t0 = time.perf_counter()
            # Match-time captures are exactly the template alignment
            # to_intel_message would recompute — reuse them when the
            # matched log key's template IS this Intel Key's template
            # (the reserved all-star key's match parameters use a
            # different convention, so it is excluded).
            captures_ok = self._captures_ok.get(key_id)
            if captures_ok is None:
                captures_ok = self._captures_ok[key_id] = bool(
                    match.key.constant_tokens()
                ) and tuple(match.key.tokens) == intel_key.template
            captures = (
                match.parameters
                if captures_ok and not match.misaligned
                else None
            )
            message = self.extractor.to_intel_message(
                intel_key,
                record.message,
                timestamp=record.timestamp,
                session_id=session.session_id,
                raw_tokens=match.raw_tokens,
                captures=captures,
            )
            if timed:
                extract_s += time.perf_counter() - t0
            if message is None:
                report.anomalies.append(self._unexpected_message(record))
                continue
            instance.add(message)

        instance.finalize()
        span: Callable[[str], ContextManager[Any]] = nullcontext
        if tracer is not None:
            tracer.record("detect.match", match_s)
            tracer.record("detect.extract", extract_s)
            span = tracer.span
        with span("detect.subroutines"):
            self._check_subroutines(instance, report)
        if self.config.report_missing_groups:
            self._check_missing_groups(instance, report)
        if self.config.check_hierarchy:
            with span("detect.hierarchy"):
                self._check_hierarchy(instance, report)
        return report

    def detect_batch(
        self, sessions: list[Session]
    ) -> list[SessionReport]:
        """Detect many sessions with one cross-session match batch.

        All records are matched in a single :meth:`SpellParser.match_batch`
        call — log vocabularies repeat heavily across sessions of one
        job, so the batch memo collapses most of the per-record match
        cost — then the per-session extraction and HW-graph checks run
        over the precomputed results.  Per-session reports are identical
        to calling :meth:`detect_session` per session.
        """
        records_by_session = [list(session) for session in sessions]
        tracer = self._tracer
        t0 = time.perf_counter() if tracer is not None else 0.0
        matches = self.spell.match_batch(
            [
                record.message
                for records in records_by_session
                for record in records
            ]
        )
        if tracer is not None:
            tracer.record("detect.match", time.perf_counter() - t0)
        reports: list[SessionReport] = []
        pos = 0
        for session, records in zip(sessions, records_by_session):
            session_matches = matches[pos:pos + len(records)]
            pos += len(records)
            reports.append(
                self.detect_session(session, matches=session_matches)
            )
        return reports

    def detect_job(
        self, sessions: list[Session], job_id: str = ""
    ) -> JobReport:
        report = JobReport(job_id=job_id)
        report.sessions.extend(self.detect_batch(sessions))
        return report

    # -- anomaly producers -----------------------------------------------------------

    def _unexpected_message(self, record: LogRecord) -> Anomaly:
        """Build the unexpected-message anomaly with on-the-fly extraction."""
        ad_hoc = LogKey(
            key_id="<unexpected>",
            tokens=_starified_template(record.message),
            sample=record.message,
        )
        intel_key = self.extractor.build_intel_key(ad_hoc)
        extraction = _extraction_summary(intel_key, self.extractor)
        groups = sorted(
            {
                group.label
                for entity in intel_key.entities
                for group in self._groups_for_entity(entity)
            }
        )
        return Anomaly(
            kind=AnomalyKind.UNEXPECTED_MESSAGE,
            description=f"no Intel Key matches: {record.message[:120]}",
            group=groups[0] if groups else None,
            message=record.message,
            timestamp=record.timestamp,
            extraction=extraction,
        )

    def _groups_for_entity(self, entity: str):
        phrase = tuple(entity.split())
        exact = self._entity_index.get(phrase, ())
        for label in exact:
            yield self.graph.groups[label]
        for label_phrase, label in self._label_phrases:
            if label in exact:
                continue
            # Nomenclature fallback: entity shares the group's name prefix.
            if phrase[: len(label_phrase)] == label_phrase:
                yield self.graph.groups[label]

    def _check_subroutines(
        self, instance: HWGraphInstance, report: SessionReport
    ) -> None:
        for label, group_instance in instance.groups.items():
            node = self.graph.groups.get(label)
            if node is None:
                continue
            for sub_instance in group_instance.instances:
                signature = sub_instance.signature
                sig_key = (label, signature)
                if sig_key in self._best_match_memo:
                    model = self._best_match_memo[sig_key]
                else:
                    model = self._best_match_memo[sig_key] = (
                        node.model.best_match(signature)
                    )
                if model is None:
                    report.anomalies.append(
                        Anomaly(
                            kind=AnomalyKind.INCOMPLETE_SUBROUTINE,
                            description=(
                                f"no trained subroutine for signature "
                                f"{signature or ('NONE',)} in group "
                                f"'{label}'"
                            ),
                            group=label,
                        )
                    )
                    continue
                sequence = tuple(sub_instance.key_sequence)
                memo_key = (id(model), sequence)
                problems = self._check_memo.get(memo_key)
                if problems is None:
                    problems = self._check_memo[memo_key] = tuple(
                        model.check_instance(sequence, complete=True)
                    )
                for problem in problems:
                    kind = AnomalyKind.INCOMPLETE_SUBROUTINE
                    if problem.startswith("missing critical"):
                        kind = AnomalyKind.MISSING_CRITICAL_KEY
                    elif problem.startswith("order violation"):
                        kind = AnomalyKind.ORDER_VIOLATION
                    elif problem.startswith("unexpected key"):
                        kind = AnomalyKind.UNEXPECTED_KEY
                    report.anomalies.append(
                        Anomaly(
                            kind=kind,
                            description=problem,
                            group=label,
                            key_id=_problem_key(problem),
                        )
                    )

    def _check_missing_groups(
        self, instance: HWGraphInstance, report: SessionReport
    ) -> None:
        if (
            report.message_count
            < self.config.min_session_length_for_missing
        ):
            return
        present = instance.present_groups()
        total = max(self.graph.training_sessions, 1)
        for label, node in self.graph.groups.items():
            if label in present:
                continue
            if not node.critical:
                continue
            if node.session_count / total >= _GROUP_PRESENCE_THRESHOLD:
                report.anomalies.append(
                    Anomaly(
                        kind=AnomalyKind.MISSING_GROUP,
                        description=(
                            f"entity group '{label}' (present in "
                            f"{node.session_count}/{total} training "
                            f"sessions) emitted no messages"
                        ),
                        group=label,
                    )
                )

    def _constrained_pairs(self) -> dict[tuple[str, str], str]:
        """Sorted group pairs whose trained relation constrains detection.

        Only PARENT/BEFORE verdicts impose a lifespan check; every other
        relation (and every pair involving an unobserved label) resolves
        to no-op, so omitting it from the map is equivalent to the old
        per-pair ``relations.relation`` call returning PARALLEL.
        """
        relations = self.graph.relations
        names = sorted(relations.groups)
        pairs: dict[tuple[str, str], str] = {}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                rel = relations.relation(a, b)
                if rel in (PARENT, BEFORE):
                    pairs[(a, b)] = rel
        return pairs

    def _check_hierarchy(
        self, instance: HWGraphInstance, report: SessionReport
    ) -> None:
        pairs = self._hierarchy_pairs
        if pairs is None:
            pairs = self._hierarchy_pairs = self._constrained_pairs()
        spans = instance.lifespans()
        labels = sorted(spans)
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                relation = pairs.get((a, b))
                if relation is None:
                    continue
                if relation == PARENT and not spans[a].contains(spans[b]):
                    report.anomalies.append(
                        Anomaly(
                            kind=AnomalyKind.HIERARCHY_VIOLATION,
                            description=(
                                f"group '{b}' escaped the lifespan of its "
                                f"parent group '{a}'"
                            ),
                            group=b,
                        )
                    )
                elif relation == BEFORE and not spans[a].precedes(spans[b]):
                    report.anomalies.append(
                        Anomaly(
                            kind=AnomalyKind.HIERARCHY_VIOLATION,
                            description=(
                                f"group '{a}' expected BEFORE group "
                                f"'{b}' but lifespans overlap"
                            ),
                            group=a,
                        )
                    )


def _starified_template(message: str) -> list[str]:
    """Turn a raw message into a pseudo log key: variable-looking tokens
    (identifiers, numbers, localities) become ``*`` so the §3 field
    heuristics can classify them."""
    from ..nlp.tokenizer import tokenize

    return [
        "*" if t.kind in ("ident", "number", "hostport", "path") else t.text
        for t in tokenize(message)
    ]


def _extraction_summary(
    intel_key: IntelKey, extractor: InformationExtractor
) -> dict:
    """Five-field summary of an ad-hoc extraction (for unexpected
    messages)."""
    message = extractor.to_intel_message(intel_key, intel_key.sample)
    summary: dict = {
        "entities": list(intel_key.entities),
        "operations": [
            {"subject": op.subject, "predicate": op.predicate,
             "object": op.obj}
            for op in intel_key.operations
        ],
    }
    identifiers: dict[str, list[str]] = {}
    values: dict[str, list[float]] = {}
    localities: dict[str, list[str]] = {}
    if message is not None:
        identifiers = message.identifiers
        values = message.values
        localities = message.localities
    else:
        for spec in intel_key.fields:
            if spec.role == FieldRole.IDENTIFIER:
                identifiers.setdefault(spec.name, [])
            elif spec.role == FieldRole.VALUE:
                values.setdefault(spec.name, [])
            elif spec.role == FieldRole.LOCALITY:
                localities.setdefault(spec.name, [])
    summary["identifiers"] = identifiers
    summary["values"] = values
    summary["localities"] = localities
    return summary


def _problem_key(problem: str) -> str | None:
    for token in problem.split():
        if token.startswith("K") and token[1:].isdigit():
            return token
    return None
