"""The anomaly detector (paper §4.2).

For each incoming session the detector

1. matches every log message against the learned log keys, one Spell
   form-memo lookup per distinct message: the message's chunk-level
   masked form gives the key and a capture recipe resolved once per
   model (:mod:`repro.parsing.spell`), so the captures are slices and
   joins of the message's chunks — a message with
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
   captures (re-aligned on the raw tokens only when the Intel Key's
   template differs from the matched log key's).  Once the
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
    Container,
    ContextManager,
)

from ..extraction.cache import ExtractionCache
from ..extraction.idvalue import FieldRole
from ..extraction.intelkey import IntelKey
from ..extraction.pipeline import InformationExtractor
from ..graph.hwgraph import HWGraph
from ..graph.lifespan import BEFORE, PARENT
from ..graph.subroutine import KeyPlan, Row, split_instances
from ..parsing.records import LogRecord, Session
from ..parsing.spell import (
    MatchResult,
    SpellParser,
    extract_parameters,
    mask_message,
)
from .report import Anomaly, AnomalyKind, JobReport, SessionReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Counter, MetricsRegistry, Tracer

#: A group must have appeared in at least this fraction of training
#: sessions for its absence to be reported (guards against optional groups).
_GROUP_PRESENCE_THRESHOLD = 0.999

#: Entry cap of each per-detector memo (the subroutine verdict memo, the
#: hierarchy-pair memo and the unexpected-message extraction memo); a
#: full memo is reset wholesale (as the chunk memo is at
#: ``_CHUNK_MEMO_CAP``).  Only memory moves, never a report: all three
#: memoize pure functions.
_MEMO_CAP = 4096


def match_captures(
    match: MatchResult,
    template: tuple[str, ...],
    verdicts: dict[str, bool],
) -> list[str] | None:
    """The match-time captures when they may stand in for the
    alignment against an Intel Key's ``template``, else ``None``.

    They are exactly what ``extract_parameters(template, raw tokens)``
    would recompute (the alignment detection and
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

#: One subroutine problem as an anomaly's kind, description and key id.
_Problem = tuple[AnomalyKind, str, str | None]


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
        # to its graph (a model swap builds a new detector).  A key's
        # groups are a set; sorted, they give report order that does
        # not follow the interpreter's hash seed.
        self._plans = {
            key_id: KeyPlan.compile(
                intel_key, tuple(sorted(graph.key_groups.get(key_id, ())))
            )
            for key_id, intel_key in graph.intel_keys.items()
            if key_id not in graph.ignored_keys
        }
        # Missing-group candidates, in graph order: the critical groups
        # present in (almost) all training sessions, each with its
        # anomaly's description.
        total = max(graph.training_sessions, 1)
        self._missing_groups: tuple[tuple[str, str], ...] = tuple(
            (
                label,
                f"entity group '{label}' (present in "
                f"{node.session_count}/{total} training "
                f"sessions) emitted no messages",
            )
            for label, node in graph.groups.items()
            if node.critical
            and node.session_count / total >= _GROUP_PRESENCE_THRESHOLD
        )
        # Per log key: may match-time captures stand in for the Intel
        # Key template alignment?  (:func:`match_captures`.)
        self._captures_ok: dict[str, bool] = {}
        # The session-close checks are pure over the frozen model, and
        # subroutine instances and sets of present groups repeat heavily
        # across sessions, so both are memoized, each reset wholesale at
        # _MEMO_CAP entries (a stream or serve detector lives as long as
        # its process): (group, identifier types, key ids) -> the
        # instance's problems, classified into anomaly fields ...
        self._verdicts: dict[
            tuple[str, frozenset[str], tuple[str, ...]],
            tuple[_Problem, ...],
        ] = {}
        # ... and sorted present groups -> their (a, b, relation) pairs
        # whose trained relation is PARENT or BEFORE.
        self._hierarchy: dict[
            tuple[str, ...], tuple[tuple[str, str, str], ...]
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
        """Attach the ``detect_*`` counters; also instruments the Spell
        parser.  ``detect.*`` spans are recorded only when a ``tracer``
        is passed: the stream and serve runtimes pass none and time
        their stages per poll batch instead.

        Idempotent; returns ``self`` for chaining.
        """
        self._tracer = tracer
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
        if self._m_sessions is None:
            return self._detect_session_inner(session, None, matches)
        tracer = self._tracer
        if tracer is None:
            report = self._detect_session_inner(session, None, matches)
        else:
            with tracer.span("detect.session"):
                report = self._detect_session_inner(session, tracer, matches)
        assert self._m_records and self._m_anomalies
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
        # a stream's live pass), its results are reused verbatim and no
        # match span is recorded here.  The row loop is timed as a
        # whole, as one pre-measured span.
        records = list(session)
        if matches is None:
            t0 = time.perf_counter()
            matches = self.spell.match_batch(
                [record.message for record in records]
            )
            if tracer is not None:
                tracer.record("detect.match", time.perf_counter() - t0)
        t0 = time.perf_counter() if tracer is not None else 0.0
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
            captures = match_captures(match, plan.template, captures_ok)
            if captures is None:
                captures = extract_parameters(
                    plan.template, mask_message(record.message)[1]
                )
                if captures is None:
                    report.anomalies.append(
                        self._unexpected_message(record)
                    )
                    continue
            if plan.groups:
                row = plan.row(record.timestamp, captures)
                for label in plan.groups:
                    rows = group_rows.get(label)
                    if rows is None:
                        group_rows[label] = [row]
                    else:
                        rows.append(row)

        span: Callable[[str], ContextManager[Any]] = nullcontext
        if tracer is not None:
            tracer.record("detect.extract", time.perf_counter() - t0)
            span = tracer.span
        with span("detect.subroutines"):
            spans = self._check_subroutines(group_rows, report)
        if self.config.report_missing_groups:
            self._check_missing_groups(group_rows, report)
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
        self, group_rows: dict[str, list[Row]], report: SessionReport
    ) -> dict[str, tuple[float, float]]:
        """One pass per group: sort its rows by time, split them into
        subroutine instances and report each instance's problems.
        Returns each group's lifespan, as its first and last row's
        timestamps."""
        anomalies = report.anomalies
        verdicts = self._verdicts
        spans: dict[str, tuple[float, float]] = {}
        for label, rows in group_rows.items():
            rows.sort(key=_timestamp)
            spans[label] = (rows[0][0], rows[-1][0])
            for keys, types in split_instances(rows):
                memo_key = (label, types, keys)
                problems = verdicts.get(memo_key)
                if problems is None:
                    if len(verdicts) >= _MEMO_CAP:
                        verdicts.clear()
                    problems = verdicts[memo_key] = self._verdict(
                        label, types, keys
                    )
                for kind, description, key_id in problems:
                    anomalies.append(
                        Anomaly(
                            kind=kind,
                            description=description,
                            group=label,
                            key_id=key_id,
                        )
                    )
        return spans

    def _verdict(
        self, label: str, types: frozenset[str], keys: tuple[str, ...]
    ) -> tuple[_Problem, ...]:
        """The problems of one subroutine instance of group ``label``:
        the checks of the trained subroutine whose signature best
        matches its identifier types, or the lack of one."""
        node = self.graph.groups.get(label)
        if node is None:
            return ()
        signature = tuple(sorted(types))
        model = node.model.best_match(signature)
        if model is None:
            return ((
                AnomalyKind.INCOMPLETE_SUBROUTINE,
                f"no trained subroutine for signature "
                f"{signature or ('NONE',)} in group '{label}'",
                None,
            ),)
        return tuple(
            _parse_problem(problem)
            for problem in model.check_instance(keys, complete=True)
        )

    def _check_missing_groups(
        self, present: Container[str], report: SessionReport
    ) -> None:
        if (
            report.message_count
            < self.config.min_session_length_for_missing
        ):
            return
        for label, description in self._missing_groups:
            if label not in present:
                report.anomalies.append(
                    Anomaly(
                        kind=AnomalyKind.MISSING_GROUP,
                        description=description,
                        group=label,
                    )
                )

    def _constrained_pairs(
        self, labels: tuple[str, ...]
    ) -> tuple[tuple[str, str, str], ...]:
        """The pairs ``(a, b)``, ``a < b``, of sorted ``labels`` whose
        trained relation constrains detection.

        Only PARENT/BEFORE verdicts impose a lifespan check; every other
        relation, and every pair involving a label the relation matrix
        never observed, is a no-op.
        """
        relations = self.graph.relations
        observed = relations.groups
        pairs: list[tuple[str, str, str]] = []
        for i, a in enumerate(labels):
            if a not in observed:
                continue
            for b in labels[i + 1:]:
                if b not in observed:
                    continue
                relation = relations.relation(a, b)
                if relation in (PARENT, BEFORE):
                    pairs.append((a, b, relation))
        return tuple(pairs)

    def _check_hierarchy(
        self, spans: dict[str, tuple[float, float]], report: SessionReport
    ) -> None:
        labels = tuple(sorted(spans))
        pairs = self._hierarchy.get(labels)
        if pairs is None:
            if len(self._hierarchy) >= _MEMO_CAP:
                self._hierarchy.clear()
            pairs = self._hierarchy[labels] = self._constrained_pairs(
                labels
            )
        for a, b, relation in pairs:
            a_start, a_end = spans[a]
            b_start, b_end = spans[b]
            # Lifespan.contains and Lifespan.precedes, inlined: closed
            # intervals, and touching spans still precede.
            if relation == PARENT:
                if not (a_start <= b_start and b_end <= a_end):
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
            elif not a_end <= b_start:
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


def _parse_problem(problem: str) -> _Problem:
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
