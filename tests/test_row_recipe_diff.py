"""Row recipes vs a frozen copy of the match-then-row detector.

The detector resolves each record through a *row recipe*, compiled once
per chunk-level masked form from the Spell form memo's entry and the
key's plan, and reads the row straight from the message's chunks
(:meth:`AnomalyDetector.resolve`).  The path it replaced matched every
record into a :class:`~repro.parsing.spell.MatchResult`, checked with
``match_captures`` whether its captures could stand in for the Intel
Key's alignment (re-aligning the raw tokens when not), and scattered
them through ``KeyPlan.row``.  That path is frozen below as
:class:`FrozenMatchThenRowDetector` (its ``detect_batch``,
``_detect_session_inner``, ``match_captures`` and ``KeyPlan.row``
copied; matching, the session-close pass and the unexpected-message
extraction called live).  The live detector must give the same row for
every record, the same report JSON for every session, batched and one
by one, and the same instrument values (``spell_*`` and ``detect_*``
counters, histogram counts, trace span counts):

* on the golden detect corpora of the four genres;
* on hypothesis-drawn sessions of those corpora whose messages have
  tokens replaced, dropped, swapped or duplicated;
* on a hand-built model that reaches the branches learned models never
  do: the reserved all-star key, a ``_PER_RECORD`` form, misaligned
  forms (with and without an Intel Key), a key whose template differs
  from its Intel Key's, values that read as numbers and values that do
  not, and captures that are slices of chunks or pieces of one;
* across a Spell form-memo clear that changes a form's resolution.

``REPRO_CHAOS_SEED`` seeds the examples, as in the chaos suite.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import IntelLog
from repro.detection.detector import AnomalyDetector
from repro.detection.report import SessionReport
from repro.extraction.idvalue import FieldRole
from repro.extraction.intelkey import FieldSpec, IntelKey, IntelMessage
from repro.extraction.pipeline import to_number
from repro.graph.hwgraph import GroupNode, HWGraph
from repro.graph.subroutine import message_row
from repro.obs import MetricsRegistry, Tracer
from repro.parsing.records import LogRecord, Session
from repro.parsing.spell import (
    STAR,
    LogKey,
    SpellParser,
    extract_parameters,
    mask_message,
)
from repro.query.store import ModelStore

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))

GOLDEN_DIR = Path(__file__).parent / "golden" / "detect_reports"
GENRES = ["mapreduce", "spark", "tez", "tensorflow"]


# -- the frozen match-then-row path ------------------------------------------------


def frozen_match_captures(match, template, verdicts):
    key_id = match.key.key_id
    same_template = verdicts.get(key_id)
    if same_template is None:
        same_template = verdicts[key_id] = bool(
            match.key.constant_tokens()
        ) and tuple(match.key.tokens) == template
    if same_template and not match.misaligned:
        return match.parameters
    return None


def frozen_row(plan, timestamp, captures):
    """``KeyPlan.row`` as it was."""
    values: list[str] = []
    types: list[str] = []
    for slot, capture in zip(plan.slots, captures):
        if slot is None:
            continue
        name, is_value = slot
        if is_value and to_number(capture) is not None:
            continue
        values.append(capture)
        types.append(name)
    return (timestamp, plan.key_id, frozenset(values), tuple(types))


class FrozenMatchThenRowDetector(AnomalyDetector):
    """A detector whose record-to-row path is the frozen copy."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._frozen_captures_ok: dict[str, bool] = {}

    def detect_batch(self, sessions):
        records_by_session = [list(session) for session in sessions]
        tracer = self._tracer
        t0 = time.perf_counter() if tracer is not None else 0.0
        matches = self.spell.match_batch(
            [r.message for records in records_by_session for r in records]
        )
        if tracer is not None:
            tracer.record("detect.match", time.perf_counter() - t0)
        reports, pos = [], 0
        for session, records in zip(sessions, records_by_session):
            reports.append(self.detect_session(
                session, resolved=matches[pos:pos + len(records)]
            ))
            pos += len(records)
        return reports

    def record_rows(self, records, matches):
        """Per record: None (no key), "unaligned", or (groups, row)."""
        out = []
        for record, match in zip(records, matches):
            if match is None:
                out.append(None)
                continue
            plan = self._plans.get(match.key.key_id)
            if plan is None:
                out.append(((), None))
                continue
            captures = frozen_match_captures(
                match, plan.template, self._frozen_captures_ok
            )
            if captures is None:
                captures = extract_parameters(
                    plan.template, mask_message(record.message)[1]
                )
                if captures is None:
                    out.append("unaligned")
                    continue
            if plan.groups:
                out.append(
                    (plan.groups, frozen_row(plan, record.timestamp, captures))
                )
            else:
                out.append(((), None))
        return out

    def _detect_session_inner(self, session, tracer, matches):
        report = SessionReport(session_id=session.session_id)
        records = list(session)
        if matches is None:
            t0 = time.perf_counter()
            matches = self.spell.match_batch(
                [record.message for record in records]
            )
            if tracer is not None:
                tracer.record("detect.match", time.perf_counter() - t0)
        t0 = time.perf_counter() if tracer is not None else 0.0
        group_rows: dict = {}
        for record, item in zip(records, self.record_rows(records, matches)):
            report.message_count += 1
            if item is None:
                report.anomalies.append(self._unexpected_message(record))
                continue
            report.matched_count += 1
            if item == "unaligned":
                report.anomalies.append(self._unexpected_message(record))
                continue
            groups, row = item
            for label in groups:
                group_rows.setdefault(label, []).append(row)
        span = nullcontext
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


def live_record_rows(detector: AnomalyDetector, records) -> list:
    """The live resolutions in the frozen path's terms."""
    out = []
    for record, result in zip(
        records, detector.resolve([r.message for r in records])
    ):
        if result is None:
            out.append(None)
        elif result[0] is None:
            out.append("unaligned")
        elif not result[0]:
            out.append(((), None))
        else:
            groups, key_id, values, types = result
            out.append((groups, (
                record.timestamp, key_id, frozenset(values), types
            )))
    return out


# -- comparing the two -------------------------------------------------------------


def instrument_values(registry: MetricsRegistry) -> dict:
    """Every counter value and histogram count, by name and labels."""
    out = {}
    for metric in registry.metrics():
        for labels, value in metric.samples():
            if isinstance(value, dict):
                value = value["count"]
            out[(metric.name, tuple(sorted(labels.items())))] = value
    return out


def canonical(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True)


class Pair:
    """A live and a frozen detector over two separate copies of one
    model, each with its own registry and tracer."""

    def __init__(self, make_model) -> None:
        self.registries = (MetricsRegistry(), MetricsRegistry())
        self.live = AnomalyDetector(*make_model())
        self.frozen = FrozenMatchThenRowDetector(*make_model())
        for detector, registry in zip(
            (self.live, self.frozen), self.registries
        ):
            detector.instrument(registry, Tracer(registry=registry))

    def check(self, sessions: list[Session]) -> list[list]:
        """Compare both detectors on ``sessions``; return each
        session's live rows."""
        rows = []
        for session in sessions:
            records = list(session)
            frozen_rows = self.frozen.record_rows(
                records, self.frozen.spell.match_batch(
                    [r.message for r in records]
                )
            )
            rows.append(live_record_rows(self.live, records))
            assert rows[-1] == frozen_rows
        want = canonical(self.frozen.detect_batch(sessions))
        assert canonical(self.live.detect_batch(sessions)) == want
        assert canonical(
            [self.live.detect_session(s) for s in sessions]
        ) == canonical([self.frozen.detect_session(s) for s in sessions])
        live, frozen = map(instrument_values, self.registries)
        assert live == frozen
        return rows


def _golden_model(genre: str):
    fixture = json.loads((GOLDEN_DIR / f"{genre}.json").read_text())
    intellog = IntelLog()
    intellog.train([Session.from_dict(s) for s in fixture["train_sessions"]])
    store = ModelStore.from_intellog(intellog)

    def make_model():
        model = store.to_intellog()
        return model.graph, model.spell, model.extractor

    detect = [Session.from_dict(s) for s in fixture["detect_sessions"]]
    return make_model, detect


@pytest.fixture(scope="module")
def golden() -> dict:
    return {genre: _golden_model(genre) for genre in GENRES}


@pytest.mark.parametrize("genre", GENRES)
def test_golden_corpus_matches_the_frozen_path(golden, genre) -> None:
    make_model, detect = golden[genre]
    pair = Pair(make_model)
    pair.check(detect)
    # Again, over warm memos.
    pair.check(detect)


# -- generated messages over the golden models ---------------------------------------

_FILLERS = [
    "42", "3.5", "-7", "1e3", "huge", "12ms", "blk_8", "attempt_01",
    "(attempt_02)", "host1:8020", "/tmp/x/part-0", "done", "*", "size",
]


@pytest.fixture(scope="module")
def golden_pairs(golden) -> dict:
    """One pair per genre, kept across examples so that memos carry."""
    return {genre: Pair(golden[genre][0]) for genre in GENRES}


def _edit(message: str, ops) -> str:
    tokens = message.split()
    for op, i, j in ops:
        if not tokens:
            break
        a = i % len(tokens)
        if op == "replace":
            tokens[a] = _FILLERS[j % len(_FILLERS)]
        elif op == "drop":
            del tokens[a]
        elif op == "swap":
            b = j % len(tokens)
            tokens[a], tokens[b] = tokens[b], tokens[a]
        else:
            tokens.insert(a, tokens[j % len(tokens)])
    return " ".join(tokens)


@seed(CHAOS_SEED)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_messages_match_the_frozen_path(
    golden, golden_pairs, data
) -> None:
    genre = data.draw(st.sampled_from(GENRES))
    _, pool = golden[genre]
    picks = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4)
    )
    sessions = []
    for i in picks:
        records = list(pool[i])
        edits = data.draw(st.lists(
            st.tuples(
                st.integers(0, 10_000),
                st.lists(st.tuples(
                    st.sampled_from(["replace", "drop", "swap", "dup"]),
                    st.integers(0, 10_000), st.integers(0, 10_000),
                ), min_size=1, max_size=3),
            ),
            max_size=10,
        ))
        for at, ops in edits:
            if records:
                k = at % len(records)
                message = _edit(records[k].message, ops)
                records[k] = LogRecord(
                    timestamp=records[k].timestamp, level="INFO",
                    source="x", message=message, raw=message,
                    session_id=records[k].session_id,
                )
        sessions.append(Session(session_id=f"g{i}", records=records))
    golden_pairs[genre].check(sessions)


# -- a hand-built model for the branches ----------------------------------------------

#: Log keys, hand-built on a parser with tau 4 (an LCS of one constant
#: matches), so that misaligned matches are easy to reach.
HAND_KEYS = {
    "K0": ["Fetched", "block", STAR, "size", STAR],
    "K1": ["Committed", "block", STAR],
    "K2": ["took", "17", STAR],  # a variable-kind constant: _PER_RECORD
    "K3": ["alpha", "beta", "gamma", STAR],
    "K4": ["Started", STAR, "done"],  # slices and pieces of chunks
    "K5": [STAR, STAR],  # the reserved all-star key
    "K6": ["Heartbeat", "from", "node", STAR],  # no Intel Key
    "K7": ["Dumped", "stats", STAR],  # ignored key-value dump
    "K8": ["one", "two", "three", STAR],  # no Intel Key, misalignable
}

IDENT, VALUE = FieldRole.IDENTIFIER, FieldRole.VALUE

#: Intel Keys: K1's template differs from its log key's.
HAND_INTEL_KEYS = {
    "K0": (("Fetched", "block", STAR, "size", STAR),
           (IDENT, "BLOCK"), (VALUE, "size")),
    "K1": (("Committed", STAR), (IDENT, "BLOCK")),
    "K2": (("took", "17", STAR), (VALUE, "ms")),
    "K3": (("alpha", "beta", "gamma", STAR), (VALUE, "count")),
    "K4": (("Started", STAR, "done"), (IDENT, "JOB")),
    "K5": ((STAR, STAR), (IDENT, "A"), (VALUE, "b")),
    "K7": (("Dumped", "stats", STAR), (IDENT, "STATS")),
}

HAND_GROUPS = {"block": ("K0", "K1", "K5"), "work": ("K2", "K3", "K4", "K7")}


def _trained(key_id: str, **identifiers) -> IntelMessage:
    return IntelMessage(
        key_id=key_id, timestamp=0.0, session_id="train", message=key_id,
        identifiers={k: [v] for k, v in identifiers.items()},
    )


def hand_model():
    spell = SpellParser(tau=4.0)
    for key_id, tokens in HAND_KEYS.items():
        spell._keys.append(LogKey(key_id=key_id, tokens=list(tokens),
                                  sample=" ".join(tokens)))
        spell._next_id += 1
    spell._reindex()
    intel_keys = {
        key_id: IntelKey(
            key_id=key_id, template=template, sample=" ".join(template),
            fields=tuple(
                FieldSpec(position=i, role=role, name=name)
                for i, (role, name) in enumerate(fields)
            ),
        )
        for key_id, (template, *fields) in HAND_INTEL_KEYS.items()
    }
    groups = {}
    for label, key_ids in HAND_GROUPS.items():
        node = GroupNode(label=label, key_ids=set(key_ids), session_count=1)
        node.model.train_session([
            message_row(_trained(key_ids[0], BLOCK="blk_1")),
            message_row(_trained(key_ids[1], BLOCK="blk_1")),
        ])
        groups[label] = node
    key_groups: dict[str, set[str]] = {}
    for label, key_ids in HAND_GROUPS.items():
        for key_id in key_ids:
            key_groups.setdefault(key_id, set()).add(label)
    graph = HWGraph(
        groups=groups, intel_keys=intel_keys, key_groups=key_groups,
        ignored_keys={"K7"}, training_sessions=1,
    )
    return graph, spell, None


_block = st.sampled_from(["blk_1", "blk_7", "blk_8"])
_value = st.sampled_from(
    ["42", "3.5", "-7", "1e3", "huge", "12ms", "blk_8", "0x1f", "42 extra"]
)
_hand_message = st.one_of(
    st.builds("Fetched block {} size {}".format, _block, _value),
    st.builds("Committed block {}".format, _block),
    st.builds("took {} {}".format, st.sampled_from(["17", "18"]), _value),
    st.builds("alpha beta gamma {}".format, _value),
    st.sampled_from([
        "gamma beta alpha 5",  # K3 by LCS, misaligned
        "three two one 9",  # K8 by LCS, misaligned, no Intel Key
        "took 17", "took 17 17", "Heartbeat from node host2",
        "Dumped stats a=1,b=2", "nothing like it",
    ]),
    st.builds(
        "Started {} done".format,
        st.sampled_from([
            "job 12 now", "(attempt_01)", "a (b) c", "", "x", "42",
            "job_7 (attempt_01) 3",
        ]),
    ),
    st.builds("{} {}".format, _value, _block),
    st.builds("{} {} {}".format, _block, _value, _block),
)


def _sessions(data, messages) -> list[Session]:
    count = data.draw(st.integers(1, 3))
    sessions = [Session(session_id=f"s{i}") for i in range(count)]
    for t, message in enumerate(messages):
        i = data.draw(st.integers(0, count - 1))
        ts = float(data.draw(st.integers(0, 2 * len(messages))))
        sessions[i].records.append(LogRecord(
            timestamp=ts if t % 3 else float(t), level="INFO", source="x",
            message=message, session_id=f"s{i}",
        ))
    return [s for s in sessions if s.records]


@pytest.fixture(scope="module")
def hand_pair() -> Pair:
    return Pair(hand_model)


@seed(CHAOS_SEED)
@settings(max_examples=150, deadline=None)
@given(data=st.data(), messages=st.lists(_hand_message, min_size=1,
                                          max_size=14))
def test_hand_built_model_matches_the_frozen_path(
    hand_pair, data, messages
) -> None:
    hand_pair.check(_sessions(data, messages))


def test_hand_built_model_reaches_every_branch() -> None:
    """The hand-built messages take each kind of row recipe."""
    pair = Pair(hand_model)
    messages = [
        "Fetched block blk_7 size 42",  # a row, the value a number
        "Fetched block blk_7 size huge",  # the value an identifier
        "Committed block blk_7",  # another template: re-aligned
        "took 17 42", "took 18 42",  # _PER_RECORD: aligned, not
        "gamma beta alpha 5", "three two one 9",  # misaligned
        "Started job 12 now done", "Started (attempt_01) done",
        "42 blk_7",  # the reserved key
        "Heartbeat from node host2", "Dumped stats a=1,b=2",
        "nothing like it",
    ]
    session = Session(session_id="s", records=[
        LogRecord(timestamp=float(t), level="INFO", source="x", message=m)
        for t, m in enumerate(messages)
    ])
    [rows] = pair.check([session])
    assert rows[0][1][2:] == (frozenset({"blk_7"}), ("BLOCK",))
    assert rows[1][1][2:] == (frozenset({"blk_7", "huge"}), ("BLOCK", "SIZE"))
    assert rows[2][1][2] == frozenset({"block blk_7"})
    assert rows[3] == (("work",), (3.0, "K2", frozenset(), ()))
    assert rows[4] == "unaligned" and rows[5] == "unaligned"
    assert rows[6] == ((), None)
    assert rows[7][1][2] == frozenset({"job 12 now"})
    assert rows[8][1][2] == frozenset({"( attempt_01 )"})
    assert rows[9][1][1:] == ("K5", frozenset({"42 blk_7"}), ("A",))
    assert rows[10] == rows[11] == ((), None)
    assert rows[12] is None
    misaligned = pair.registries[0].get("spell_param_misaligned_total")
    assert {labels["key"] for labels, _ in misaligned.samples()} == {
        "K2", "K3", "K8"
    }
    kinds = {recipe[1] for recipe in pair.live._rows.values()}
    assert len(kinds) == 3


# -- a form-memo clear drops the row recipes ---------------------------------------


def _drifting_model():
    """``alpha beta delta`` first resolves to K1 ``* delta``; once K0
    ``alpha beta gamma`` drifts to ``alpha beta *`` it resolves to K0."""
    spell = SpellParser()
    spell.consume("alpha beta gamma")
    spell.consume("17 delta")
    fields = ((IDENT, "X"),)
    intel_keys = {
        key_id: IntelKey(
            key_id=key_id, template=template, sample=" ".join(template),
            fields=tuple(
                FieldSpec(position=i, role=role, name=name)
                for i, (role, name) in enumerate(fields[:template.count(STAR)])
            ),
        )
        for key_id, template in (
            ("K0", ("alpha", "beta", "gamma")), ("K1", (STAR, "delta")),
        )
    }
    node = GroupNode(label="g", key_ids={"K0", "K1"}, session_count=1)
    graph = HWGraph(
        groups={"g": node}, intel_keys=intel_keys,
        key_groups={"K0": {"g"}, "K1": {"g"}}, training_sessions=1,
    )
    return graph, spell, None


def test_row_recipes_follow_a_form_memo_clear() -> None:
    pair = Pair(_drifting_model)
    session = Session(session_id="s", records=[
        LogRecord(timestamp=1.0, level="INFO", source="x",
                  message="alpha beta delta"),
    ])
    [[row]] = pair.check([session])
    assert row[1][1] == "K1"
    # Training goes on: the merge clears both parsers' form memos.
    for detector in (pair.live, pair.frozen):
        detector.spell.consume("alpha beta epsilon")
    [[row]] = pair.check([session])
    assert row == "unaligned"
