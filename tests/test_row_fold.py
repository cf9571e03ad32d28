"""Training's phase-2 fold against a frozen Intel Message oracle.

The oracle is a frozen copy of the original training path: every
record becomes a full Intel Message
(:meth:`InformationExtractor.to_intel_message`), is converted back with
:func:`~repro.graph.subroutine.message_row`, and is folded by a copy of
the original ``GraphPartial.add_session`` whose lifespan relations are
classified through the :class:`~repro.graph.lifespan.Lifespan` methods.
The trainer must build exactly the same partial — the statistics
:meth:`HWGraphBuilder.build` installs — over the golden corpus and fresh
simulator sessions of all four genres.

A hypothesis test pins :meth:`RelationMatrix.observe_session`'s pair
classification to the ``Lifespan`` methods, whose boundary semantics
detection's ``_check_hierarchy`` inlines too, on touching, nested,
identical and zero-width intervals.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import IntelLog
from repro.graph.hwgraph import GraphPartial, HWGraphBuilder
from repro.graph.lifespan import (
    AFTER,
    BEFORE,
    CHILD,
    PARALLEL,
    PARENT,
    Lifespan,
    RelationMatrix,
)
from repro.graph.subroutine import Subroutine, message_row
from repro.parsing.records import Session
from repro.parsing.spell import SpellParser
from repro.simulators import (
    MapReduceConfig,
    MapReduceSimulator,
    SparkConfig,
    SparkSimulator,
    TensorFlowConfig,
    TensorFlowSimulator,
    TezConfig,
    TezSimulator,
    sessions_of,
)
from test_session_pass_diff import frozen_assign_instances

GOLDEN_CORPUS = Path(__file__).parent / "golden" / "corpus.jsonl"


# -- the frozen oracle --------------------------------------------------------


def oracle_relation(la: Lifespan, lb: Lifespan) -> str:
    """One session's relation of ``la`` towards ``lb``, as classified
    through the ``Lifespan`` methods."""
    if la.strictly_contains(lb):
        return PARENT
    if lb.strictly_contains(la):
        return CHILD
    if la.contains(lb) and lb.contains(la):
        return "EQUAL"
    if la.precedes(lb):
        return BEFORE
    if lb.precedes(la):
        return AFTER
    return PARALLEL


class OracleFold:
    """The original per-session fold over Intel Messages."""

    def __init__(self) -> None:
        #: label -> [session_count, max_key_repeat, {signature: Subroutine}]
        self.groups: dict[str, list] = {}
        self.observations: dict[tuple[str, str], dict[str, int]] = {}
        self.labels: set[str] = set()
        self.training_sessions = 0

    def add_session(self, messages, key_groups) -> None:
        ordered = sorted(messages, key=lambda m: m.timestamp)
        per_group: dict[str, list] = {}
        for message in ordered:
            for label in sorted(key_groups.get(message.key_id, ())):
                per_group.setdefault(label, []).append(message)
        lifespans: dict[str, Lifespan] = {}
        for label, group_msgs in per_group.items():
            group = self.groups.setdefault(label, [0, 0, {}])
            group[0] += 1
            for instance in frozen_assign_instances(map(message_row, group_msgs)):
                signature = instance.signature
                if signature not in group[2]:
                    group[2][signature] = Subroutine(signature=signature)
                group[2][signature].update(instance.key_sequence)
            repeats: dict[str, int] = {}
            for message in group_msgs:
                repeats[message.key_id] = repeats.get(message.key_id, 0) + 1
            group[1] = max(group[1], max(repeats.values()))
            lifespans[label] = Lifespan(
                group_msgs[0].timestamp, group_msgs[-1].timestamp
            )
        names = sorted(lifespans)
        self.labels.update(names)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                rel = oracle_relation(lifespans[a], lifespans[b])
                counts = self.observations.setdefault((a, b), {})
                counts[rel] = counts.get(rel, 0) + 1
        self.training_sessions += 1

    def serialized(self) -> str:
        matrix = RelationMatrix()
        matrix._groups.update(self.labels)
        matrix._observations.update(self.observations)
        return _serialize(
            self.training_sessions,
            [(label, *group) for label, group in self.groups.items()],
            matrix,
        )


def _serialize(training_sessions, groups, relations) -> str:
    """Every field of a partial, in its insertion order (no sort_keys:
    the order of groups and subroutines is part of the model)."""
    return json.dumps(
        {
            "training_sessions": training_sessions,
            "groups": [
                [
                    label,
                    session_count,
                    max_key_repeat,
                    [
                        [
                            list(signature),
                            sub.keys,
                            sorted(sub.before),
                            sorted(sub.compared),
                            list(sub.key_counts.items()),
                            sub.instance_count,
                            sub.instance_lengths,
                        ]
                        for signature, sub in subroutines.items()
                    ],
                ]
                for label, session_count, max_key_repeat, subroutines
                in groups
            ],
            "relations": relations.to_dict(),
        }
    )


def serialize_partial(partial: GraphPartial) -> str:
    return _serialize(
        partial.training_sessions,
        [
            (label, g.session_count, g.max_key_repeat, g.model.subroutines)
            for label, g in partial.groups.items()
        ],
        partial.relations,
    )


def oracle_partial(intellog: IntelLog, sessions: list[Session]) -> str:
    """Fold ``sessions`` through the frozen Intel Message path, with the
    trained model's Intel Keys and the key of each record as a streaming
    Spell pass over every record assigns it."""
    spell = SpellParser(tau=intellog.config.spell_tau)
    key_groups = HWGraphBuilder(intellog.intel_keys).graph.key_groups
    fold = OracleFold()
    for session in sessions:
        messages = []
        for record in session.records:
            key_id = spell.consume(record.message).key_id
            message = intellog.extractor.to_intel_message(
                intellog.intel_keys[key_id],
                record.message,
                timestamp=record.timestamp,
                session_id=session.session_id,
            )
            if message is not None:
                messages.append(message)
        fold.add_session(messages, key_groups)
    return fold.serialized()


def trained_partial(
    sessions: list[Session], monkeypatch
) -> tuple[IntelLog, str]:
    """Train ``sessions`` and capture the partial the trainer hands to
    :meth:`HWGraphBuilder.build`."""
    captured: list[str] = []
    real_build = HWGraphBuilder.build

    def capturing_build(self):
        captured.append(serialize_partial(self.partial))
        return real_build(self)

    monkeypatch.setattr(HWGraphBuilder, "build", capturing_build)
    intellog = IntelLog()
    intellog.train(sessions)
    [partial] = captured
    return intellog, partial


# -- corpora ------------------------------------------------------------------


def golden_corpus() -> list[Session]:
    return [
        Session.from_dict(json.loads(line))
        for line in GOLDEN_CORPUS.read_text().splitlines()
        if line.strip()
    ]


def simulated_corpus(genre: str) -> list[Session]:
    if genre == "mapreduce":
        sim = MapReduceSimulator(seed=101)
        jobs = [
            sim.run_job(
                "wordcount",
                MapReduceConfig(input_gb=float(1 + i % 3)),
                base_time=i * 5e3,
            )
            for i in range(4)
        ]
    elif genre == "spark":
        sim = SparkSimulator(seed=102)
        jobs = [
            sim.run_job(
                "wordcount",
                SparkConfig(input_gb=float(1 + i % 3)),
                base_time=i * 5e3,
            )
            for i in range(4)
        ]
    elif genre == "tez":
        sim = TezSimulator(seed=103)
        jobs = [
            sim.run_job(
                "q6",
                TezConfig(input_gb=float(1 + i % 3)),
                base_time=i * 5e3,
            )
            for i in range(4)
        ]
    else:
        sim = TensorFlowSimulator(seed=104)
        jobs = [
            sim.run_job(
                "mnist",
                TensorFlowConfig(steps=10 + 10 * (i % 3)),
                base_time=i * 1e4,
            )
            for i in range(4)
        ]
    return sessions_of(jobs)


CORPORA = {
    "golden": golden_corpus,
    "mapreduce": lambda: simulated_corpus("mapreduce"),
    "spark": lambda: simulated_corpus("spark"),
    "tez": lambda: simulated_corpus("tez"),
    "tensorflow": lambda: simulated_corpus("tensorflow"),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_trainer_fold_equals_intel_message_oracle(corpus, monkeypatch):
    sessions = CORPORA[corpus]()
    intellog, got = trained_partial(sessions, monkeypatch)
    want = oracle_partial(intellog, sessions)
    assert json.loads(got)["training_sessions"] == len(sessions)
    assert got == want


# -- lifespan classification --------------------------------------------------

_stamp = st.integers(min_value=0, max_value=4).map(float)


@st.composite
def _lifespan(draw):
    a, b = draw(_stamp), draw(_stamp)
    return Lifespan(min(a, b), max(a, b))


@settings(max_examples=400, deadline=None)
@given(spans=st.lists(_lifespan(), min_size=2, max_size=5))
@example(spans=[Lifespan(0.0, 1.0), Lifespan(1.0, 2.0)])  # touching
@example(spans=[Lifespan(0.0, 3.0), Lifespan(1.0, 2.0)])  # nested
@example(spans=[Lifespan(0.0, 3.0), Lifespan(0.0, 2.0)])  # shared start
@example(spans=[Lifespan(1.0, 2.0), Lifespan(1.0, 2.0)])  # identical
@example(spans=[Lifespan(2.0, 2.0), Lifespan(2.0, 2.0)])  # zero-width
@example(spans=[Lifespan(2.0, 2.0), Lifespan(0.0, 4.0)])  # point inside
@example(spans=[Lifespan(0.0, 2.0), Lifespan(2.0, 2.0)])  # point at end
def test_observe_session_classifies_like_lifespan_methods(spans):
    lifespans = {f"g{i}": span for i, span in enumerate(spans)}
    matrix = RelationMatrix()
    matrix.observe_session(lifespans)
    names = sorted(lifespans)
    want = [
        [a, b, {oracle_relation(lifespans[a], lifespans[b]): 1}]
        for i, a in enumerate(names)
        for b in names[i + 1:]
    ]
    assert matrix.to_dict()["observations"] == want
