"""The anomaly detector (paper §4.2).

For each incoming session the detector

1. resolves every log message to what detection needs of it, one memo
   lookup per distinct chunk-level masked form: a *row recipe*,
   compiled once per form from the Spell form memo's entry
   (:mod:`repro.parsing.spell`) and the matched key's
   :class:`~repro.graph.subroutine.KeyPlan`, names the Intel Key, the
   groups it feeds and, per identifier or value field, which capture of
   the message's chunks fills it.  A message with no matching key is an
   **unexpected log message**; IntelLog still runs the full §3
   extraction on it so the report carries entities, identifiers,
   values, localities and operations for diagnosis.  That extraction is
   a pure function of (masked tokens, message), so each detector
   memoises it in its own
   :class:`~repro.extraction.cache.ExtractionCache` — retried fetch and
   connect lines repeat the same message — while the per-record summary
   and group lookup still run on every record, so no two reports share
   a mutable value;
2. turns every other matched record into one row — timestamp, Intel
   Key id, identifier values, identifier types — filed under the entity
   groups its key feeds.  A value capture that reads as a number is no
   identifier.  Forms whose captures cannot stand in for the alignment
   against the Intel Key's template (a key with no constant, a template
   that differs from the Intel Key's, a misaligned or ``_PER_RECORD``
   form) re-align each message's raw tokens instead.  Once the
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
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Container,
    ContextManager,
    Sequence,
)

from ..extraction.cache import ExtractionCache
from ..extraction.idvalue import FieldRole
from ..extraction.intelkey import IntelKey
from ..extraction.pipeline import InformationExtractor, to_number
from ..graph.hwgraph import HWGraph
from ..graph.lifespan import BEFORE, PARENT
from ..graph.subroutine import KeyPlan, Row, split_instances
from ..parsing.records import LogRecord, Session
from ..parsing.spell import (
    _PER_RECORD,
    LogKey,
    MatchResult,
    SpellParser,
    _join_pieces,
    chunk_form,
    extract_parameters,
    mask_message,
)
from .report import Anomaly, AnomalyKind, JobReport, SessionReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Counter, MetricsRegistry, Tracer

#: A group must have appeared in at least this fraction of training
#: sessions for its absence to be reported (guards against optional groups).
_GROUP_PRESENCE_THRESHOLD = 0.999

#: Entry cap of each per-detector memo (the row recipes, the subroutine
#: verdict memo, the hierarchy-pair memo and the unexpected-message
#: extraction memo); a full memo is reset wholesale (as the chunk memo
#: is at ``_CHUNK_MEMO_CAP``).  Only memory moves, never a report: all
#: four memoize pure functions.
_MEMO_CAP = 4096


def match_captures(
    match: MatchResult,
    template: tuple[str, ...],
    verdicts: dict[str, bool],
) -> list[str] | None:
    """The match-time captures when they may stand in for the
    alignment against an Intel Key's ``template``, else ``None``.

    They are exactly what ``extract_parameters(template, raw tokens)``
    would recompute (the alignment
    :meth:`InformationExtractor.to_intel_message` falls back to) when
    :func:`_captures_align` holds for the matched key and the match
    aligned.  The per-key half of the rule is cached in ``verdicts`` by
    key id: templates are frozen while matching.
    """
    key_id = match.key.key_id
    same_template = verdicts.get(key_id)
    if same_template is None:
        same_template = verdicts[key_id] = _captures_align(
            match.key, template
        )
    if same_template and not match.misaligned:
        return match.parameters
    return None


def _captures_align(key: LogKey, template: tuple[str, ...]) -> bool:
    """Whether an aligned match of ``key`` captures what aligning the
    raw tokens against an Intel Key's ``template`` would: the key's
    template IS that template and has a constant (the reserved all-star
    key's captures use a different convention)."""
    return bool(key.constant_tokens()) and tuple(key.tokens) == template


#: What detection reads of one record, a pure function of its message
#: under the frozen model (:meth:`AnomalyDetector.resolve`): ``None``
#: when no key matches; else ``(groups, key id, identifier values,
#: identifier types)``, the row without its timestamp, and with its
#: values as a tuple: a stream carries a resolution per open record,
#: and a frozenset costs at least 216 bytes.  ``groups`` is empty when
#: the record files no row (an ignored key, a key with no Intel Key or
#: one that feeds no group) and None when its re-alignment failed,
#: which makes it an unexpected message.
Resolved = tuple[
    "tuple[str, ...] | None", str, tuple[str, ...], tuple[str, ...]
] | None

_NO_ROW: Resolved = ((), "", (), ())
_UNALIGNED: Resolved = (None, "", (), ())

#: The identifier values of a row without any, shared: each empty
#: ``frozenset()`` is a new object.
_NO_VALUES: frozenset[str] = frozenset()

#: Row recipe kinds: the resolution is the same for every message of
#: the form, is built from its chunks, or needs its raw tokens.
_FIXED, _ROW, _REALIGN = range(3)

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
        # Chunk-level masked form -> row recipe (:meth:`_row_recipe`),
        # built from the Spell form memo's entries and dropped with
        # them: when the memo's epoch moves, every recipe goes.
        self._rows: dict[tuple[str, ...], tuple] = {}
        self._rows_epoch = spell._form_memo.epoch
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
        resolved: list[Resolved] | None = None,
    ) -> SessionReport:
        """Consume one complete session and report its anomalies.

        ``resolved``, one :meth:`resolve` result per record in session
        order, is used instead of resolving the session here."""
        if self._m_sessions is None:
            return self._detect_session_inner(session, None, resolved)
        tracer = self._tracer
        if tracer is None:
            report = self._detect_session_inner(session, None, resolved)
        else:
            with tracer.span("detect.session"):
                report = self._detect_session_inner(
                    session, tracer, resolved
                )
        assert self._m_records and self._m_anomalies
        self._m_sessions.inc()
        self._m_records.inc(report.message_count)
        for anomaly in report.anomalies:
            self._m_anomalies.labels(kind=anomaly.kind.value).inc()
        return report

    def resolve(self, messages: Sequence[str]) -> list[Resolved]:
        """Each message's :data:`Resolved`, in one batch.

        A distinct message costs one ``split()``, a chunk-memo hit per
        chunk, one row-recipe lookup by its chunk-level form and the
        row build; a repeated one, a dict hit.  The Spell form memo is
        read only to compile a form's recipe.  The Spell instruments
        move as one :meth:`SpellParser.match_batch` of ``messages``
        moves them: per message its match path and result, per
        distinct message one form-memo hit or miss, per misaligned
        match one note.  Must not run concurrently with
        :meth:`SpellParser.consume`.
        """
        spell = self.spell
        rows = self._rows
        epoch = spell._form_memo.epoch
        if epoch != self._rows_epoch:
            rows.clear()
            self._rows_epoch = epoch
        metrics = spell._metrics
        start = time.perf_counter() if metrics is not None else 0.0
        # Distinct message -> (resolution, match path, misaligned key).
        seen: dict[str, tuple[Resolved, str, LogKey | None]] = {}
        out: list[Resolved] = []
        resolved_forms = 0
        misaligned: list[str] = []
        for message in messages:
            entry = seen.get(message)
            if entry is None:
                chunks = message.split()
                form = chunk_form(chunks)
                recipe = rows.get(form)
                if recipe is None:
                    recipe, fresh = self._row_recipe(form)
                    resolved_forms += fresh
                    if len(rows) >= _MEMO_CAP:
                        rows.clear()
                    rows[form] = recipe
                path, kind, payload, bad = recipe
                if kind == _ROW:
                    result = _row(payload, chunks)
                elif kind == _FIXED:
                    result = payload
                else:
                    result, bad = self._realign(payload, message)
                entry = seen[message] = (result, path, bad)
                if bad is not None:
                    misaligned.append(message)
            out.append(entry[0])
        if metrics is None:
            for message in misaligned:
                spell._note_misalignment(seen[message][2])
            return out
        elapsed = time.perf_counter() - start
        counts = Counter(messages)
        paths: dict[str, int] = {}
        hits = 0
        for message, count in counts.items():
            result, path, _bad = seen[message]
            paths[path] = paths.get(path, 0) + count
            if result is not None:
                hits += count
        spell._count_batch(elapsed, paths, hits, len(seen), resolved_forms)
        for message in misaligned:
            spell._note_misalignment(seen[message][2], counts[message])
        return out

    def _row_recipe(self, form: tuple[str, ...]) -> tuple[tuple, bool]:
        """The row recipe of a chunk-level form, and whether the Spell
        form memo had to resolve the form for it.

        A recipe is ``(match path, kind, payload, misaligned key)``:
        ``_FIXED`` with the resolution every message of the form gets;
        ``_ROW`` with ``(groups, key id, slots)`` when the form's Spell
        captures are the plan's captures, each slot ``(capture, type
        name, is a value)`` for an identifier or value field, the
        capture a Spell recipe's (``_Capture`` in
        :mod:`repro.parsing.spell`); or
        ``_REALIGN`` with ``(key, plan, Spell recipe)`` when each
        message's raw tokens decide (:meth:`_realign`).  The misaligned
        key is set when every message of the form is misaligned.
        """
        (best_idx, path, captures), fresh = self.spell.form_entry(form)
        if best_idx is None:
            return (path, _FIXED, None, None), fresh
        key = self.spell._keys[best_idx]
        # No plan: an ignored key-value dump, or no Intel Key.
        plan = self._plans.get(key.key_id)
        if captures is _PER_RECORD or (
            plan is not None
            and not (
                captures.__class__ is tuple
                and _captures_align(key, plan.template)
            )
        ):
            return (path, _REALIGN, (key, plan, captures), None), fresh
        bad = key if captures is None else None
        if plan is None or not plan.groups:
            return (path, _FIXED, _NO_ROW, bad), fresh
        slots = tuple(
            (capture, *slot)
            for slot, capture in zip(plan.slots, captures)
            if slot is not None
        )
        if not slots:
            return (
                path, _FIXED, (plan.groups, plan.key_id, (), ()),
                None,
            ), fresh
        return (path, _ROW, (plan.groups, plan.key_id, slots), None), fresh

    @staticmethod
    def _realign(
        payload: tuple, message: str
    ) -> tuple[Resolved, LogKey | None]:
        """A ``_REALIGN`` form's message resolved on its raw tokens, and
        its key when the match is misaligned."""
        key, plan, captures = payload
        raw = mask_message(message)[1]
        if captures is _PER_RECORD:
            aligned = extract_parameters(key.tokens, raw) is not None
        else:
            aligned = captures is not None
        bad = None if aligned else key
        if plan is None:
            return _NO_ROW, bad
        texts = extract_parameters(plan.template, raw)
        if texts is None:
            return _UNALIGNED, bad
        slots = tuple(
            (i, *slot)
            for i, slot in enumerate(plan.slots[:len(texts)])
            if slot is not None
        )
        return _row((plan.groups, plan.key_id, slots), texts), bad

    def _detect_session_inner(
        self,
        session: Session,
        tracer: "Tracer | None",
        resolved: list[Resolved] | None,
    ) -> SessionReport:
        report = SessionReport(session_id=session.session_id)

        # Records are resolved in one batch up front (memoized per
        # distinct message), then each record with a row is filed
        # under its groups; when the caller already resolved the
        # records (:meth:`detect_batch` across sessions, or a stream's
        # live pass), its resolutions are used and no match span is
        # recorded here.  The row loop is timed as a whole, as one
        # pre-measured span.
        records = list(session)
        if resolved is None:
            t0 = time.perf_counter()
            resolved = self.resolve([record.message for record in records])
            if tracer is not None:
                tracer.record("detect.match", time.perf_counter() - t0)
        t0 = time.perf_counter() if tracer is not None else 0.0
        group_rows: dict[str, list[Row]] = {}
        matched = 0
        for record, result in zip(records, resolved):
            if result is None:
                report.anomalies.append(self._unexpected_message(record))
                continue
            matched += 1
            groups = result[0]
            if groups:
                values = result[2]
                row = (
                    record.timestamp, result[1],
                    frozenset(values) if values else _NO_VALUES, result[3],
                )
                for label in groups:
                    rows = group_rows.get(label)
                    if rows is None:
                        group_rows[label] = [row]
                    else:
                        rows.append(row)
            elif groups is None:
                report.anomalies.append(self._unexpected_message(record))
        report.message_count = len(records)
        report.matched_count = matched

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
        """Detect many sessions with one cross-session :meth:`resolve`.

        All records are resolved in a single batch — log vocabularies
        repeat heavily across sessions of one job, so the batch's
        message memo and the row recipes collapse most of the
        per-record cost — then the per-session HW-graph checks run over
        the precomputed resolutions.  Per-session reports are identical
        to calling :meth:`detect_session` per session.
        """
        records_by_session = [list(session) for session in sessions]
        tracer = self._tracer
        t0 = time.perf_counter() if tracer is not None else 0.0
        resolved = self.resolve(
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
            session_resolved = resolved[pos:pos + len(records)]
            pos += len(records)
            reports.append(
                self.detect_session(session, resolved=session_resolved)
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


def _row(payload: tuple, chunks: Sequence[str]) -> Resolved:
    """A row (without its timestamp) built from ``(groups, key id,
    slots)`` over a message's chunks or re-aligned captures: a value
    that reads as a number is skipped, as
    :meth:`InformationExtractor.to_intel_message` files it apart from
    the identifiers."""
    groups, key_id, slots = payload
    values: list[str] = []
    types: list[str] = []
    for capture, name, is_value in slots:
        if capture.__class__ is int:
            text = chunks[capture]
        elif capture.__class__ is slice:
            text = " ".join(chunks[capture])
        else:
            text = _join_pieces(capture, chunks)
        if is_value and to_number(text) is not None:
            continue
        values.append(text)
        types.append(name)
    return groups, key_id, tuple(values), tuple(types)


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
