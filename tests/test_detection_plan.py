"""Detection compiled per Intel Key, against the object path it replaced.

The detector compiles one plan per Intel Key when it is built; each
matched record becomes one ``(timestamp, key id, identifier values,
identifier types)`` row.  :class:`ObjectPathDetector` below is a frozen
copy of the path that came before: it built an
:class:`~repro.extraction.intelkey.IntelMessage` per matched record,
replayed the messages into a per-session HW-graph instance and split
them into subroutine instances.  A hypothesis test drives both over
corpora of the four genres, with records dropped, reordered, re-timed,
duplicated and corrupted, and requires byte-identical report JSON.

The hand-built model at the end pins the branches generated corpora
may never reach: a non-numeric VALUE capture, a re-aligned match, a
failed re-alignment, an ignored key and a key with no Intel Key.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IntelLog
from repro.detection.detector import AnomalyDetector, match_captures
from repro.detection.report import Anomaly, AnomalyKind, SessionReport
from repro.extraction.idvalue import FieldRole
from repro.extraction.intelkey import FieldSpec, IntelKey, IntelMessage
from repro.graph.hwgraph import GroupNode, HWGraph
from repro.graph.lifespan import BEFORE, PARENT, Lifespan
from repro.graph.subroutine import message_row
from repro.obs import MetricsRegistry
from repro.parsing.records import LogRecord, Session
from repro.parsing.spell import (
    SpellParser,
    extract_parameters,
    mask_message,
)
from repro.simulators import FaultSpec, WorkloadGenerator, sessions_of

GOLDEN_DIR = Path(__file__).parent / "golden" / "detect_reports"
GENRES = ["mapreduce", "spark", "tez", "tensorflow"]

#: Frozen copy of the detector's missing-group presence threshold.
_GROUP_PRESENCE_THRESHOLD = 0.999


# -- the frozen object path ------------------------------------------------------


class _RefInstance:
    """A subroutine instance of the object path: messages + values."""

    __slots__ = ("values", "messages")

    def __init__(self, values: frozenset, messages: list) -> None:
        self.values = values
        self.messages = messages

    @property
    def key_sequence(self) -> list[str]:
        return [m.key_id for m in self.messages]

    @property
    def signature(self) -> tuple[str, ...]:
        types: set[str] = set()
        for message in self.messages:
            types.update(message.identifiers.keys())
        return tuple(sorted(types))


def _ref_assign_instances(messages: list[IntelMessage]) -> list[_RefInstance]:
    none_instance = _RefInstance(frozenset(), [])
    instances: list[_RefInstance] = []
    for message in messages:
        value_set = frozenset(message.identifier_values)
        if not value_set:
            none_instance.messages.append(message)
            continue
        for instance in instances:
            if value_set <= instance.values or instance.values <= value_set:
                instance.values = frozenset(instance.values | value_set)
                instance.messages.append(message)
                break
        else:
            instances.append(_RefInstance(value_set, [message]))
    return ([none_instance] if none_instance.messages else []) + instances


def _ref_problem_key(problem: str) -> str | None:
    for token in problem.split():
        if token.startswith("K") and token[1:].isdigit():
            return token
    return None


class ObjectPathDetector(AnomalyDetector):
    """Detection as it ran before per-key plans: one IntelMessage per
    matched record, grouped per session and checked without memos."""

    def detect_batch(self, sessions):
        """Frozen copy of the cross-session batch: one ``match_batch``
        over every record, each session's slice of matches handed to
        its ``_detect_session_inner``."""
        records_by_session = [list(session) for session in sessions]
        matches = self.spell.match_batch(
            [r.message for records in records_by_session for r in records]
        )
        reports, pos = [], 0
        for session, records in zip(sessions, records_by_session):
            reports.append(self.detect_session(
                session, resolved=matches[pos:pos + len(records)]
            ))
            pos += len(records)
        return reports

    def _detect_session_inner(self, session, tracer, matches):
        report = SessionReport(session_id=session.session_id)
        groups: dict[str, list[IntelMessage]] = {}
        records = list(session)
        if matches is None:
            matches = self.spell.match_batch([r.message for r in records])
        for record, match in zip(records, matches):
            report.message_count += 1
            if match is None:
                report.anomalies.append(self._unexpected_message(record))
                continue
            report.matched_count += 1
            key_id = match.key.key_id
            if key_id in self.graph.ignored_keys:
                continue
            intel_key = self.graph.intel_keys.get(key_id)
            if intel_key is None:
                continue
            message = self.extractor.to_intel_message(
                intel_key,
                record.message,
                timestamp=record.timestamp,
                session_id=session.session_id,
                captures=match_captures(match, intel_key.template, {}),
            )
            if message is None:
                report.anomalies.append(self._unexpected_message(record))
                continue
            # A key's groups in their canonical (sorted) order.
            for label in sorted(self.graph.key_groups.get(key_id, ())):
                groups.setdefault(label, []).append(message)
        instances: dict[str, list[_RefInstance]] = {}
        spans: dict[str, Lifespan] = {}
        for label, messages in groups.items():
            messages.sort(key=lambda m: m.timestamp)
            instances[label] = _ref_assign_instances(messages)
            spans[label] = Lifespan(
                messages[0].timestamp, messages[-1].timestamp
            )
        self._ref_subroutines(instances, report)
        if self.config.report_missing_groups:
            self._ref_missing_groups(set(groups), report)
        if self.config.check_hierarchy:
            self._ref_hierarchy(spans, report)
        return report

    def _ref_subroutines(self, instances, report) -> None:
        for label, subs in instances.items():
            node = self.graph.groups.get(label)
            if node is None:
                continue
            for sub in subs:
                model = node.model.best_match(sub.signature)
                if model is None:
                    report.anomalies.append(Anomaly(
                        kind=AnomalyKind.INCOMPLETE_SUBROUTINE,
                        description=(
                            f"no trained subroutine for signature "
                            f"{sub.signature or ('NONE',)} in group "
                            f"'{label}'"
                        ),
                        group=label,
                    ))
                    continue
                for problem in model.check_instance(
                    tuple(sub.key_sequence), complete=True
                ):
                    kind = AnomalyKind.INCOMPLETE_SUBROUTINE
                    if problem.startswith("missing critical"):
                        kind = AnomalyKind.MISSING_CRITICAL_KEY
                    elif problem.startswith("order violation"):
                        kind = AnomalyKind.ORDER_VIOLATION
                    elif problem.startswith("unexpected key"):
                        kind = AnomalyKind.UNEXPECTED_KEY
                    report.anomalies.append(Anomaly(
                        kind=kind, description=problem, group=label,
                        key_id=_ref_problem_key(problem),
                    ))

    def _ref_missing_groups(self, present, report) -> None:
        if report.message_count < self.config.min_session_length_for_missing:
            return
        total = max(self.graph.training_sessions, 1)
        for label, node in self.graph.groups.items():
            if label in present or not node.critical:
                continue
            if node.session_count / total >= _GROUP_PRESENCE_THRESHOLD:
                report.anomalies.append(Anomaly(
                    kind=AnomalyKind.MISSING_GROUP,
                    description=(
                        f"entity group '{label}' (present in "
                        f"{node.session_count}/{total} training "
                        f"sessions) emitted no messages"
                    ),
                    group=label,
                ))

    def _ref_hierarchy(self, spans, report) -> None:
        relations = self.graph.relations
        labels = sorted(spans)
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                if a not in relations.groups or b not in relations.groups:
                    continue
                relation = relations.relation(a, b)
                if relation == PARENT and not spans[a].contains(spans[b]):
                    report.anomalies.append(Anomaly(
                        kind=AnomalyKind.HIERARCHY_VIOLATION,
                        description=(
                            f"group '{b}' escaped the lifespan of its "
                            f"parent group '{a}'"
                        ),
                        group=b,
                    ))
                elif relation == BEFORE and not spans[a].precedes(spans[b]):
                    report.anomalies.append(Anomaly(
                        kind=AnomalyKind.HIERARCHY_VIOLATION,
                        description=(
                            f"group '{a}' expected BEFORE group "
                            f"'{b}' but lifespans overlap"
                        ),
                        group=a,
                    ))


# -- generated corpora -----------------------------------------------------------


def _pool(genre: str) -> tuple[IntelLog, list[Session]]:
    """The genre's golden model, and its golden detect sessions plus
    fresh simulator jobs (clean and faulty) as the session pool."""
    fixture = json.loads((GOLDEN_DIR / f"{genre}.json").read_text())
    intellog = IntelLog()
    intellog.train(
        [Session.from_dict(s) for s in fixture["train_sessions"]]
    )
    pool = [Session.from_dict(s) for s in fixture["detect_sessions"]]
    if genre != "tensorflow":
        gen = WorkloadGenerator(seed=23)
        jobs = gen.run_batch(genre, 1)
        for kind in ("network", "node_failure"):
            jobs += gen.run_batch(genre, 1, fault=FaultSpec(kind))
        pool += sessions_of(jobs)
    return intellog, pool


@pytest.fixture(scope="module")
def pools() -> dict[str, tuple[IntelLog, list[Session]]]:
    return {genre: _pool(genre) for genre in GENRES}


_DIGITS = re.compile(r"\d+")


def _corrupt(message: str, how: int) -> str:
    """Turn numbers into words (a VALUE capture that is no longer
    numeric, or a form that no longer matches its key), drop the last
    word or append one."""
    words = message.split()
    if how == 0:
        return _DIGITS.sub("many", message, count=1)
    if how == 1:
        return _DIGITS.sub("x", message)
    if how == 2 and len(words) > 1:
        return " ".join(words[:-1])
    return message + " extra"


def _mutate(session: Session, data) -> Session:
    records = list(session)
    ops = data.draw(st.lists(
        st.tuples(
            st.sampled_from(["drop", "swap", "retime", "dup", "corrupt"]),
            st.integers(0, 10_000),
            st.integers(0, 10_000),
        ),
        max_size=6,
    ))
    for op, i, j in ops:
        if not records:
            break
        a, b = i % len(records), j % len(records)
        rec = records[a]
        if op == "drop":
            del records[a]
        elif op == "swap":
            records[a], records[b] = records[b], records[a]
        elif op == "retime":
            records[a] = replace(rec, timestamp=records[b].timestamp)
        elif op == "dup":
            records.insert(b, rec)
        else:
            message = _corrupt(rec.message, j % 4)
            records[a] = replace(rec, message=message, raw=message)
    return replace(session, records=records)


def _assert_rows_agree(
    detector: AnomalyDetector, sessions: list[Session]
) -> None:
    """Every matched record's plan row equals the row of the Intel
    Message the object path built for it (types deduplicated in field
    order, as the message's identifier map keeps them)."""
    extractor = detector.extractor
    for session in sessions:
        records = list(session)
        matches = detector.spell.match_batch([r.message for r in records])
        for record, match in zip(records, matches):
            if match is None:
                continue
            plan = detector._plans.get(match.key.key_id)
            if plan is None:
                continue
            intel_key = detector.graph.intel_keys[plan.key_id]
            reused = match_captures(match, plan.template, {})
            message = extractor.to_intel_message(
                intel_key, record.message, timestamp=record.timestamp,
                captures=reused,
            )
            captures = reused
            if captures is None:
                captures = extract_parameters(
                    plan.template, mask_message(record.message)[1]
                )
            assert (captures is None) == (message is None), record.message
            if message is None:
                continue
            ts, key_id, values, types = plan.row(record.timestamp, captures)
            assert (ts, key_id, values, tuple(dict.fromkeys(types))) == (
                message_row(message)
            ), record.message


def _canonical(reports: list[SessionReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_plan_path_equals_object_path(pools, data) -> None:
    genre = data.draw(st.sampled_from(GENRES))
    intellog, pool = pools[genre]
    picks = data.draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=1, max_size=5
    ))
    sessions = [_mutate(pool[i], data) for i in picks]
    graph, extractor = intellog.graph, intellog.extractor
    plan = AnomalyDetector(graph, intellog.spell.view(), extractor)
    plan.instrument(MetricsRegistry())
    reference = ObjectPathDetector(graph, intellog.spell.view(), extractor)
    want = _canonical(reference.detect_batch(sessions))
    assert _canonical(plan.detect_batch(sessions)) == want
    # The unbatched path (each session matched on its own) agrees too.
    assert _canonical([plan.detect_session(s) for s in sessions]) == want
    # Below the report: each record's row, whether or not a difference
    # in it would change a verdict.
    _assert_rows_agree(plan, sessions)


@pytest.mark.parametrize("genre", GENRES)
def test_plan_path_equals_object_path_on_whole_pool(pools, genre) -> None:
    intellog, pool = pools[genre]
    graph, extractor = intellog.graph, intellog.extractor
    plan = AnomalyDetector(graph, intellog.spell.view(), extractor)
    reference = ObjectPathDetector(graph, intellog.spell.view(), extractor)
    assert _canonical(plan.detect_batch(pool)) == _canonical(
        reference.detect_batch(pool)
    )
    _assert_rows_agree(plan, pool)


# -- a hand-built model for the branches -----------------------------------------

_TRAIN_LINES = [
    "Fetched block blk_1 size 42",
    "Committed block blk_1",
    "Dumped stats a=1,b=2",
    "Heartbeat from node host1",
]


def _intel_key(key_id: str, template: tuple[str, ...], *fields) -> IntelKey:
    return IntelKey(
        key_id=key_id, template=template, sample=" ".join(template),
        fields=tuple(
            FieldSpec(position=i, role=role, name=name)
            for i, (role, name) in enumerate(fields)
        ),
    )


def _trained_message(key_id: str, block: str) -> IntelMessage:
    return IntelMessage(
        key_id=key_id, timestamp=0.0, session_id="train", message=key_id,
        identifiers={"BLOCK": [block], "HOST": ["host1"]},
    )


def _hand_model(
    committed: tuple[str, ...] = ("Committed", "block", "*"),
) -> AnomalyDetector:
    """One entity group, ``block``: K0 ``Fetched block * size *`` (a
    BLOCK identifier and a ``size`` value), then K1 (``committed``, a
    BLOCK identifier), critical and in that order.  Its one trained
    signature is (BLOCK, HOST), so the signature a session's instance
    gets shows in the report: (BLOCK,) matches it, (BLOCK, SIZE) does
    not.  K2, a key-value dump, is ignored; K3 has no Intel Key."""
    spell = SpellParser()
    for line in _TRAIN_LINES:
        spell.consume(line)
    ident, value = FieldRole.IDENTIFIER, FieldRole.VALUE
    intel_keys = {
        "K0": _intel_key(
            "K0", ("Fetched", "block", "*", "size", "*"),
            (ident, "BLOCK"), (value, "size"),
        ),
        "K1": _intel_key("K1", committed, (ident, "BLOCK")),
        "K2": _intel_key("K2", ("Dumped", "stats", "*"), (ident, "STATS")),
    }
    node = GroupNode(label="block", key_ids={"K0", "K1"}, session_count=1)
    node.model.train_session(
        [
            message_row(_trained_message("K0", "blk_1")),
            message_row(_trained_message("K1", "blk_1")),
        ]
    )
    graph = HWGraph(
        groups={"block": node},
        intel_keys=intel_keys,
        key_groups={"K0": {"block"}, "K1": {"block"}, "K2": {"block"}},
        ignored_keys={"K2"},
        training_sessions=1,
    )
    return AnomalyDetector(graph, spell)


def _session(*messages: str) -> Session:
    return Session(
        session_id="s",
        records=[
            LogRecord(timestamp=float(t), level="INFO", source="x",
                      message=message)
            for t, message in enumerate(messages)
        ],
    )


def _report(detector: AnomalyDetector, *messages: str) -> SessionReport:
    """The report on one session of ``messages``, one second apart,
    checked against the object path's."""
    session = _session(*messages)
    report = detector.detect_session(session)
    assert report.message_count == len(messages)
    reference = ObjectPathDetector(
        detector.graph, detector.spell, detector.extractor
    )
    assert report.to_dict() == reference.detect_session(session).to_dict()
    return report


def _anomalies(detector: AnomalyDetector, *messages: str) -> list[dict]:
    report = _report(detector, *messages)
    return [
        {k: v for k, v in a.to_dict().items() if k != "extraction"}
        for a in report.anomalies
    ]


def _incomplete(signature: tuple[str, ...]) -> dict:
    return {
        "kind": "incomplete_subroutine",
        "description": f"no trained subroutine for signature {signature} "
                       f"in group 'block'",
        "group": "block",
    }


def _missing(key_id: str) -> dict:
    return {
        "kind": "missing_critical_key",
        "description": f"missing critical key {key_id} in subroutine "
                       f"('BLOCK', 'HOST')",
        "group": "block",
        "key_id": key_id,
    }


def test_hand_model_clean_session() -> None:
    detector = _hand_model()
    assert _anomalies(
        detector, "Fetched block blk_7 size 42", "Committed block blk_7"
    ) == []


def test_non_numeric_value_becomes_upper_case_identifier() -> None:
    detector = _hand_model()
    plan = detector._plans["K0"]
    assert plan.row(3.0, ["blk_7", "42"]) == (
        3.0, "K0", frozenset({"blk_7"}), ("BLOCK",)
    )
    assert plan.row(3.0, ["blk_7", "huge"]) == (
        3.0, "K0", frozenset({"blk_7", "huge"}), ("BLOCK", "SIZE")
    )
    # The SIZE type moves the instance's signature off the trained one.
    assert _anomalies(
        detector, "Fetched block blk_7 size huge", "Committed block blk_7"
    ) == [_incomplete(("BLOCK", "SIZE"))]


def test_non_numeric_value_changes_the_overlap_split() -> None:
    detector = _hand_model()
    # A numeric size: K1's blk_8 shares no value with K0's blk_7, so
    # each message is an instance of its own, each missing the other.
    assert _anomalies(
        detector, "Fetched block blk_7 size 42", "Committed block blk_8"
    ) == [_missing("K1"), _missing("K0")]
    # A non-numeric size carries blk_8 into K0's values, so K1 joins
    # K0's instance, whose signature is then (BLOCK, SIZE).
    assert _anomalies(
        detector, "Fetched block blk_7 size blk_8", "Committed block blk_8"
    ) == [_incomplete(("BLOCK", "SIZE"))]


def test_match_with_another_template_is_realigned() -> None:
    # The Intel Key's template is not the matched log key's, so the
    # match captures (blk_7) must not stand in for its alignment, which
    # captures "block blk_7": K1 no longer overlaps K0.
    detector = _hand_model(committed=("Committed", "*"))
    assert detector._plans["K1"].template != tuple(
        detector.spell.match("Committed block blk_7").key.tokens
    )
    assert _anomalies(
        detector, "Fetched block blk_7 size 42", "Committed block blk_7"
    ) == [_missing("K1"), _missing("K0")]


def test_failed_realignment_is_an_unexpected_message() -> None:
    detector = _hand_model(committed=("Stored", "block", "*"))
    report = _report(
        detector, "Fetched block blk_7 size 42", "Committed block blk_7"
    )
    assert report.matched_count == 2
    assert [a.kind for a in report.anomalies] == [
        AnomalyKind.UNEXPECTED_MESSAGE, AnomalyKind.MISSING_CRITICAL_KEY,
    ]
    assert report.anomalies[0].message == "Committed block blk_7"
    assert report.anomalies[0].timestamp == 1.0


def test_ignored_key_is_skipped() -> None:
    # K2's Intel Key cannot align this message and K2 feeds the block
    # group: were it not ignored, it would report.
    detector = _hand_model()
    assert "K2" not in detector._plans
    report = _report(
        detector, "Fetched block blk_7 size 42", "Dumped stats a=3,b=4",
        "Committed block blk_7",
    )
    assert report.matched_count == 3
    assert report.anomalies == []


def test_key_without_intel_key_is_skipped() -> None:
    detector = _hand_model()
    assert "K3" not in detector._plans
    report = _report(
        detector, "Fetched block blk_7 size 42", "Heartbeat from node host2",
        "Committed block blk_7",
    )
    assert report.matched_count == 3
    assert report.anomalies == []
