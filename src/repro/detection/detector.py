"""The anomaly detector (paper §4.2).

For each incoming session the detector

1. matches every log message against the learned log keys — a message with
   no matching key is an **unexpected log message**; IntelLog still runs
   the full §3 extraction on it so the report carries entities,
   identifiers, values, localities and operations for diagnosis.  That
   extraction is a pure function of (masked tokens, message), so each
   detector memoises it in its own
   :class:`~repro.extraction.cache.ExtractionCache` — retried fetch and
   connect lines repeat the same message — while the per-record summary
   and group lookup still run on every record, so no two reports share
   a mutable value;
2. turns every other matched record into one row — timestamp, Intel
   Key id, identifier values, identifier types — filed under the entity
   groups its key feeds.  What a row needs of the key (its groups, and
   which capture is an identifier or a value of which name) is compiled
   into one :class:`~repro.graph.subroutine.KeyPlan` per Intel Key when
   the detector is built, so the per-record step only scatters the match
   captures.  Once the
   session is complete, each group's rows are split into subroutine
   instances and checked against the trained HW-graph: missing critical
   Intel Keys in subroutine instances, order violations, unexpected keys
   inside a subroutine, missing entity groups, and lifespan hierarchy
   violations are all **erroneous HW-graph instance** anomalies.

Key-value-dump keys learned during training are ignored rather than
reported (paper §5).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    ContextManager,
)

from ..extraction.cache import ExtractionCache
from ..extraction.idvalue import FieldRole
from ..extraction.intelkey import IntelKey
from ..extraction.pipeline import InformationExtractor
from ..graph.hwgraph import HWGraph
from ..graph.lifespan import BEFORE, PARENT, Lifespan
from ..graph.subroutine import (
    KeyPlan,
    Row,
    SubroutineInstance,
    assign_instances,
)
from ..parsing.records import LogRecord, Session
from ..parsing.spell import (
    MatchResult,
    SpellParser,
    extract_parameters,
    mask_message,
)
from .report import Anomaly, AnomalyKind, JobReport, SessionReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.subroutine import Subroutine
    from ..obs import Counter, MetricsRegistry, Tracer

#: A group must have appeared in at least this fraction of training
#: sessions for its absence to be reported (guards against optional groups).
_GROUP_PRESENCE_THRESHOLD = 0.999

#: Entry cap of each per-detector memo (the two subroutine memos and the
#: unexpected-message extraction memo); a full memo is reset wholesale
#: (as the chunk memo is at ``_CHUNK_MEMO_CAP``).  Only memory moves,
#: never a report: all three memoize pure functions.
_MEMO_CAP = 4096


def match_captures(
    match: MatchResult,
    template: tuple[str, ...],
    verdicts: dict[str, bool],
) -> list[str] | None:
    """The match-time captures when they may stand in for the
    alignment against an Intel Key's ``template``, else ``None``.

    They are exactly what ``extract_parameters(template,
    match.raw_tokens)`` would recompute (the alignment detection and
    :meth:`InformationExtractor.to_intel_message` fall back to) when
    the matched log key's template IS the Intel Key's template, the key
    has a constant (the reserved all-star key's match parameters use a
    different convention) and the match aligned.
    The per-key half of the rule is cached in ``verdicts`` by key id:
    templates are frozen while matching.
    """
    key_id = match.key.key_id
    same_template = verdicts.get(key_id)
    if same_template is None:
        same_template = verdicts[key_id] = bool(
            match.key.constant_tokens()
        ) and tuple(match.key.tokens) == template
    if same_template and not match.misaligned:
        return match.parameters
    return None


_timestamp = itemgetter(0)


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
        # One plan per Intel Key that detection checks: every key but
        # the ignored key-value dumps (paper §5).  Compiled against the
        # graph as it is now, so a detector must not outlive a change
        # to its graph (a model swap builds a new detector).
        self._plans = {
            key_id: KeyPlan.compile(
                intel_key, tuple(graph.key_groups.get(key_id, ()))
            )
            for key_id, intel_key in graph.intel_keys.items()
            if key_id not in graph.ignored_keys
        }
        # Lazily resolved PARENT/BEFORE verdicts for _check_hierarchy —
        # pure over the frozen training graph, so computed once per
        # detector instead of once per session pair.
        self._hierarchy_pairs: dict[tuple[str, str], str] | None = None
        # Per log key: may match-time captures stand in for the Intel
        # Key template alignment?  (:func:`match_captures`.)
        self._captures_ok: dict[str, bool] = {}
        # Subroutine checks are pure over the frozen model and instance
        # key sequences repeat heavily across sessions, so both the
        # signature->subroutine resolution and the per-sequence problem
        # list (already classified into anomaly fields) are memoized,
        # each reset wholesale at _MEMO_CAP entries (a stream or serve
        # detector lives as long as its process).
        self._best_match_memo: dict[
            tuple[str, tuple[str, ...]], "Subroutine | None"
        ] = {}
        self._check_memo: dict[
            tuple[int, tuple[str, ...]],
            tuple[tuple[AnomalyKind, str, str | None], ...],
        ] = {}
        # Unexpected-message extraction, memoised on (masked tokens,
        # message) and reset wholesale at _MEMO_CAP entries.
        self._extraction_cache = ExtractionCache(self.extractor)
        self._tracer: "Tracer | None" = None
        self._m_sessions: "Counter | None" = None
        self._m_records: "Counter | None" = None
        self._m_anomalies: "Counter | None" = None
        self._m_extractions: "Counter | None" = None

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
        self._m_extractions = registry.counter(
            "detect_unexpected_extractions_total",
            "Unexpected-message extractions, by memo result (hit/miss).",
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

        # Records are matched in one batch up front (memoized per
        # distinct message), then each matched record's captures are
        # scattered into one row per record; when the caller already
        # matched the records (:meth:`detect_batch` across sessions, or
        # a stream's live pass), its results are reused verbatim.
        # Match/scatter phase times are accumulated across the loop and
        # reported as two pre-measured spans rather than thousands of
        # micro-spans.
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
        plans = self._plans
        captures_ok = self._captures_ok
        group_rows: dict[str, list[Row]] = {}
        for record, match in zip(records, matches):
            report.message_count += 1
            if match is None:
                report.anomalies.append(
                    self._unexpected_message(record)
                )
                continue
            report.matched_count += 1
            # No plan: an ignored key-value dump, or no Intel Key.
            plan = plans.get(match.key.key_id)
            if plan is None:
                continue
            if timed:
                t0 = time.perf_counter()
            captures = match_captures(match, plan.template, captures_ok)
            if captures is None:
                raw_tokens = match.raw_tokens
                if raw_tokens is None:
                    raw_tokens = mask_message(record.message)[1]
                captures = extract_parameters(plan.template, raw_tokens)
            if captures is not None and plan.groups:
                row = plan.row(record.timestamp, captures)
                for label in plan.groups:
                    rows = group_rows.get(label)
                    if rows is None:
                        group_rows[label] = [row]
                    else:
                        rows.append(row)
            if timed:
                extract_s += time.perf_counter() - t0
            if captures is None:
                report.anomalies.append(self._unexpected_message(record))

        instances: dict[str, list[SubroutineInstance]] = {}
        spans: dict[str, Lifespan] = {}
        for label, rows in group_rows.items():
            rows.sort(key=_timestamp)
            instances[label] = assign_instances(rows)
            spans[label] = Lifespan(rows[0][0], rows[-1][0])
        span: Callable[[str], ContextManager[Any]] = nullcontext
        if tracer is not None:
            tracer.record("detect.match", match_s)
            tracer.record("detect.extract", extract_s)
            span = tracer.span
        with span("detect.subroutines"):
            self._check_subroutines(instances, report)
        if self.config.report_missing_groups:
            self._check_missing_groups(group_rows.keys(), report)
        if self.config.check_hierarchy:
            with span("detect.hierarchy"):
                self._check_hierarchy(spans, report)
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
        # The masked form is the pseudo log key: variable-looking tokens
        # (identifiers, numbers, localities) are ``*`` so the §3 field
        # heuristics can classify them.  The memo key keeps the whole
        # message: tagging and field classification read its variable
        # tokens, so two messages of one masked form may differ.
        cache = self._extraction_cache
        misses = cache.misses
        intel_key = cache.extract(
            "<unexpected>",
            mask_message(record.message)[0],
            record.message,
            cap=_MEMO_CAP,
        )
        if self._m_extractions is not None:
            self._m_extractions.labels(
                result="miss" if cache.misses != misses else "hit"
            ).inc()
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
        self,
        instances: dict[str, list[SubroutineInstance]],
        report: SessionReport,
    ) -> None:
        for label, group_instances in instances.items():
            node = self.graph.groups.get(label)
            if node is None:
                continue
            for sub_instance in group_instances:
                signature = sub_instance.signature
                sig_key = (label, signature)
                if sig_key in self._best_match_memo:
                    model = self._best_match_memo[sig_key]
                else:
                    if len(self._best_match_memo) >= _MEMO_CAP:
                        self._best_match_memo.clear()
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
                    if len(self._check_memo) >= _MEMO_CAP:
                        self._check_memo.clear()
                    problems = self._check_memo[memo_key] = tuple(
                        _parse_problem(problem)
                        for problem in model.check_instance(
                            sequence, complete=True
                        )
                    )
                for kind, description, key_id in problems:
                    report.anomalies.append(
                        Anomaly(
                            kind=kind,
                            description=description,
                            group=label,
                            key_id=key_id,
                        )
                    )

    def _check_missing_groups(
        self, present: Collection[str], report: SessionReport
    ) -> None:
        if (
            report.message_count
            < self.config.min_session_length_for_missing
        ):
            return
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
        self, spans: dict[str, Lifespan], report: SessionReport
    ) -> None:
        pairs = self._hierarchy_pairs
        if pairs is None:
            pairs = self._hierarchy_pairs = self._constrained_pairs()
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


def _parse_problem(problem: str) -> tuple[AnomalyKind, str, str | None]:
    """A :meth:`Subroutine.check_instance` problem string as the kind,
    description and key id of its anomaly."""
    kind = AnomalyKind.INCOMPLETE_SUBROUTINE
    if problem.startswith("missing critical"):
        kind = AnomalyKind.MISSING_CRITICAL_KEY
    elif problem.startswith("order violation"):
        kind = AnomalyKind.ORDER_VIOLATION
    elif problem.startswith("unexpected key"):
        kind = AnomalyKind.UNEXPECTED_KEY
    key_id = None
    for token in problem.split():
        if token.startswith("K") and token[1:].isdigit():
            key_id = token
            break
    return kind, problem, key_id
