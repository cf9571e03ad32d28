"""The session-close pass, against a frozen copy of the per-instance path.

When a session closes, the detector splits each entity group's rows into
subroutine instances by identifier overlap (paper §4.1, Algorithm 2) and
checks every instance against the trained subroutines, the present
groups against the critical ones and every pair of present groups
against its lifespan relation (§4.2).  This module keeps a frozen copy
of that pass as it was when it walked each group three times:

* :func:`frozen_assign_instances` and :class:`FrozenInstance`, the
  instance split that returned instance objects whose signature and key
  sequence were derived from their rows on each read;
* :class:`FrozenSessionPassDetector`, whose ``_detect_session_inner``
  and ``_check_subroutines`` / ``_check_missing_groups`` /
  ``_check_hierarchy`` are copies of the detector's as they were, with
  the signature→subroutine memo and the per-sequence problem memo.

Two hypothesis tests hold the live code to it:

* random rows, drawn from small identifier alphabets so that superset
  growth, multi-valued sets and rows without values all occur, give the
  same instances — key sequence, sorted identifier types, order;
* generated sessions of the four genres, with records dropped, re-timed
  and duplicated, give byte-identical report JSON, batched and
  session by session.

``REPRO_CHAOS_SEED`` seeds the examples, as in the chaos suite.
The training-fold oracles of ``tests/test_row_fold.py`` and
``tests/test_train_fold.py`` split instances with
:func:`frozen_assign_instances` too.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import IntelLog
from repro.detection.detector import AnomalyDetector, match_captures
from repro.detection.report import Anomaly, AnomalyKind, SessionReport
from repro.graph.lifespan import BEFORE, PARENT, Lifespan
from repro.graph.subroutine import split_instances
from repro.obs import MetricsRegistry
from repro.parsing.records import Session
from repro.parsing.spell import extract_parameters, mask_message
from repro.simulators import FaultSpec, WorkloadGenerator, sessions_of

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))

GOLDEN_DIR = Path(__file__).parent / "golden" / "detect_reports"
GENRES = ["mapreduce", "spark", "tez", "tensorflow"]

#: Frozen copies of the detector's constants.
_GROUP_PRESENCE_THRESHOLD = 0.999
_MEMO_CAP = 4096

_timestamp = itemgetter(0)


# -- the frozen instance split ---------------------------------------------------


@dataclass(slots=True)
class FrozenInstance:
    """One runtime instance: accumulated identifier values + rows."""

    values: frozenset
    rows: list = field(default_factory=list)

    @property
    def key_sequence(self) -> list[str]:
        return [row[1] for row in self.rows]

    @property
    def signature(self) -> tuple[str, ...]:
        types: set[str] = set()
        for row in self.rows:
            types.update(row[3])
        return tuple(sorted(types))


def frozen_assign_instances(rows) -> list[FrozenInstance]:
    none_instance = FrozenInstance(values=frozenset())
    instances: list[FrozenInstance] = []
    for row in rows:
        value_set = row[2]
        if not value_set:
            none_instance.rows.append(row)
            continue
        for instance in instances:
            if value_set <= instance.values:
                instance.rows.append(row)
                break
            if instance.values <= value_set:
                instance.values = value_set
                instance.rows.append(row)
                break
        else:
            instances.append(FrozenInstance(values=value_set, rows=[row]))
    result: list[FrozenInstance] = []
    if none_instance.rows:
        result.append(none_instance)
    result.extend(instances)
    return result


def _frozen_parse_problem(problem: str):
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


# -- the frozen session pass -----------------------------------------------------


class FrozenSessionPassDetector(AnomalyDetector):
    """A detector whose session-close pass is the frozen copy."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._frozen_hierarchy_pairs = None
        self._frozen_best_match_memo: dict = {}
        self._frozen_check_memo: dict = {}
        self._captures_ok: dict[str, bool] = {}

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
        group_rows: dict[str, list] = {}
        for record, match in zip(records, matches):
            report.message_count += 1
            if match is None:
                report.anomalies.append(self._unexpected_message(record))
                continue
            report.matched_count += 1
            plan = plans.get(match.key.key_id)
            if plan is None:
                continue
            if timed:
                t0 = time.perf_counter()
            captures = match_captures(match, plan.template, captures_ok)
            if captures is None:
                captures = extract_parameters(
                    plan.template, mask_message(record.message)[1]
                )
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

        instances: dict[str, list[FrozenInstance]] = {}
        spans: dict[str, Lifespan] = {}
        for label, rows in group_rows.items():
            rows.sort(key=_timestamp)
            instances[label] = frozen_assign_instances(rows)
            spans[label] = Lifespan(rows[0][0], rows[-1][0])
        span = nullcontext
        if tracer is not None:
            tracer.record("detect.match", match_s)
            tracer.record("detect.extract", extract_s)
            span = tracer.span
        with span("detect.subroutines"):
            self._frozen_check_subroutines(instances, report)
        if self.config.report_missing_groups:
            self._frozen_check_missing_groups(group_rows.keys(), report)
        if self.config.check_hierarchy:
            with span("detect.hierarchy"):
                self._frozen_check_hierarchy(spans, report)
        return report

    def _frozen_check_subroutines(self, instances, report) -> None:
        for label, group_instances in instances.items():
            node = self.graph.groups.get(label)
            if node is None:
                continue
            for sub_instance in group_instances:
                signature = sub_instance.signature
                sig_key = (label, signature)
                if sig_key in self._frozen_best_match_memo:
                    model = self._frozen_best_match_memo[sig_key]
                else:
                    if len(self._frozen_best_match_memo) >= _MEMO_CAP:
                        self._frozen_best_match_memo.clear()
                    model = self._frozen_best_match_memo[sig_key] = (
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
                problems = self._frozen_check_memo.get(memo_key)
                if problems is None:
                    if len(self._frozen_check_memo) >= _MEMO_CAP:
                        self._frozen_check_memo.clear()
                    problems = self._frozen_check_memo[memo_key] = tuple(
                        _frozen_parse_problem(problem)
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

    def _frozen_check_missing_groups(self, present, report) -> None:
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

    def _frozen_constrained_pairs(self) -> dict[tuple[str, str], str]:
        relations = self.graph.relations
        names = sorted(relations.groups)
        pairs: dict[tuple[str, str], str] = {}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                rel = relations.relation(a, b)
                if rel in (PARENT, BEFORE):
                    pairs[(a, b)] = rel
        return pairs

    def _frozen_check_hierarchy(self, spans, report) -> None:
        pairs = self._frozen_hierarchy_pairs
        if pairs is None:
            pairs = self._frozen_hierarchy_pairs = (
                self._frozen_constrained_pairs()
            )
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


# -- the instance split ----------------------------------------------------------


def live_split(rows) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The live split as (key sequence, sorted identifier types)."""
    return [
        (keys, tuple(sorted(types))) for keys, types in split_instances(rows)
    ]


_ROW = st.tuples(
    st.floats(0.0, 10.0),
    st.sampled_from(["K0", "K1", "K2", "K3"]),
    st.frozensets(st.sampled_from(["a", "b", "c", "d"]), max_size=3),
    st.lists(
        st.sampled_from(["BLOCK", "HOST", "TASK"]), max_size=3
    ).map(tuple),
)


@seed(CHAOS_SEED)
@settings(max_examples=500, deadline=None)
@given(rows=st.lists(_ROW, max_size=16))
def test_split_equals_frozen_assign_instances(rows) -> None:
    want = [
        (tuple(instance.key_sequence), instance.signature)
        for instance in frozen_assign_instances(rows)
    ]
    assert live_split(rows) == want


def test_split_keeps_creation_order_and_first_fit() -> None:
    """A row that fits two instances joins the first one created; the
    NONE instance comes first whatever its position."""
    rows = [
        (0.0, "K0", frozenset({"a"}), ("T",)),
        (1.0, "K1", frozenset({"b"}), ("U",)),
        (2.0, "K2", frozenset(), ()),
        (3.0, "K3", frozenset({"a", "b"}), ("T", "U")),
        (4.0, "K0", frozenset({"b"}), ("U",)),
    ]
    # The last row's {b} is a subset of both {a, b} (the first instance,
    # grown by K3) and {b}; it joins the first.
    assert live_split(rows) == [
        (("K2",), ()),
        (("K0", "K3", "K0"), ("T", "U")),
        (("K1",), ("U",)),
    ]


# -- generated sessions ----------------------------------------------------------


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
        gen = WorkloadGenerator(seed=41)
        jobs = gen.run_batch(genre, 1)
        for kind in ("sigkill", "network", "node_failure"):
            jobs += gen.run_batch(genre, 1, fault=FaultSpec(kind))
        pool += sessions_of(jobs)
    return intellog, pool


@pytest.fixture(scope="module")
def setups() -> dict:
    """Per genre: the session pool, and one live and one frozen
    detector over the same model, each kept across examples so their
    memos carry from one example to the next."""
    out = {}
    for genre in GENRES:
        intellog, pool = _pool(genre)
        graph, extractor = intellog.graph, intellog.extractor
        live = AnomalyDetector(graph, intellog.spell.view(), extractor)
        live.instrument(MetricsRegistry())
        frozen = FrozenSessionPassDetector(
            graph, intellog.spell.view(), extractor
        )
        out[genre] = (pool, live, frozen)
    return out


def _mutate(session: Session, data) -> Session:
    records = list(session)
    ops = data.draw(st.lists(
        st.tuples(
            st.sampled_from(["drop", "retime", "dup"]),
            st.integers(0, 10_000),
            st.integers(0, 10_000),
        ),
        max_size=8,
    ))
    for op, i, j in ops:
        if not records:
            break
        a, b = i % len(records), j % len(records)
        rec = records[a]
        if op == "drop":
            del records[a]
        elif op == "retime":
            records[a] = replace(rec, timestamp=records[b].timestamp)
        else:
            records.insert(b, rec)
    return replace(session, records=records)


def _canonical(reports: list[SessionReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


@seed(CHAOS_SEED)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_session_pass_equals_frozen_path(setups, data) -> None:
    genre = data.draw(st.sampled_from(GENRES))
    pool, live, frozen = setups[genre]
    picks = data.draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=1, max_size=6
    ))
    sessions = [_mutate(pool[i], data) for i in picks]
    want = _canonical(frozen.detect_batch(sessions))
    assert _canonical(live.detect_batch(sessions)) == want
    # The unbatched path (each session matched on its own) agrees too.
    assert _canonical([live.detect_session(s) for s in sessions]) == want


@pytest.mark.parametrize("genre", GENRES)
def test_session_pass_equals_frozen_path_on_whole_pool(setups, genre):
    pool, live, frozen = setups[genre]
    assert _canonical(live.detect_batch(pool)) == _canonical(
        frozen.detect_batch(pool)
    )
