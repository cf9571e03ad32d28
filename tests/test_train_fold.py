"""Training does each per-record and per-session job once.

* **Tokenize once** — the parse pass masks every message through the
  chunk memo of :func:`repro.parsing.spell.mask_message`, so a whole
  training run calls the regex chunk tokenizer exactly once per
  distinct chunk and never the message-level ``words()``.
* **Mask once** — the fold pass's plan rows align the raw tokens of the
  parse pass's ``mask_message`` call, so each training record is masked
  exactly once; besides that, only Spell masks, one sample per
  distinct form.
* **No repeated fold work** — the fold, with labels sorted once and
  repeat key orders counted without a pair rescan, equals frozen copies
  of the fold that sorted per row and rescanned every instance.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nlp
import repro.nlp.tokenizer
import repro.parsing.spell
from repro import IntelLog
from repro.graph.hwgraph import GraphPartial
from repro.graph.subroutine import Subroutine
from repro.parsing.records import Session
from test_session_pass_diff import frozen_assign_instances

GOLDEN_CORPUS = Path(__file__).parent / "golden" / "corpus.jsonl"


# -- tokenize once ------------------------------------------------------------


def test_training_tokenizes_each_distinct_chunk_once(monkeypatch):
    corpus = [
        Session.from_dict(json.loads(line))
        for line in GOLDEN_CORPUS.read_text().splitlines()
        if line.strip()
    ]
    calls: Counter[str] = Counter()
    real_tokenize_chunk = repro.parsing.spell._tokenize_chunk

    def counting_tokenize_chunk(chunk):
        calls[chunk] += 1
        return real_tokenize_chunk(chunk)

    def forbidden_words(text):
        raise AssertionError(f"training re-tokenized {text!r}")

    monkeypatch.setattr(repro.parsing.spell, "_CHUNK_MEMO", {})
    monkeypatch.setattr(
        repro.parsing.spell, "_tokenize_chunk", counting_tokenize_chunk
    )
    monkeypatch.setattr(repro.nlp.tokenizer, "words", forbidden_words)
    monkeypatch.setattr(repro.nlp, "words", forbidden_words)

    IntelLog().train(corpus)

    distinct = {
        chunk
        for session in corpus
        for record in session
        for chunk in record.message.split()
    }
    assert set(calls) == distinct
    assert max(calls.values()) == 1


def test_training_masks_each_record_once(monkeypatch):
    import repro.core.train

    corpus = [
        Session.from_dict(json.loads(line))
        for line in GOLDEN_CORPUS.read_text().splitlines()
        if line.strip()
    ]
    calls: Counter[str] = Counter()
    real_mask_message = repro.parsing.spell.mask_message

    def counting(module):
        def mask_message(message):
            calls[module] += 1
            return real_mask_message(message)
        return mask_message

    distinct_forms = {
        tuple(real_mask_message(record.message)[0])
        for session in corpus
        for record in session
    }
    for module in (repro.parsing.spell, repro.core.train):
        monkeypatch.setattr(
            module, "mask_message", counting(module.__name__)
        )

    IntelLog().train(corpus)

    records = sum(len(session.records) for session in corpus)
    # The per-record front end: once per training record.
    assert calls["repro.core.train"] / records == 1.0
    # Besides it, only Spell masks: one sample per distinct form.
    assert calls["repro.parsing.spell"] == len(distinct_forms)


# -- the fold against frozen copies -------------------------------------------
#
# Frozen copies of ``GraphPartial.add_session`` (labels sorted per row,
# key repeats counted by ``Counter``), ``Subroutine.update`` (every key
# pair rescanned on every instance) and ``RelationMatrix.observe_session``
# as they stood before the fold was trimmed.  The live fold must build
# exactly the same partial.


class FrozenSubroutine:
    def __init__(self, signature):
        self.signature = signature
        self.keys = []
        self.before = set()
        self.compared = set()
        self.key_counts = {}
        self.instance_count = 0
        self.instance_lengths = []

    def update(self, key_sequence):
        self.instance_count += 1
        self.instance_lengths.append(len(key_sequence))
        first_pos = {}
        for pos, key in enumerate(key_sequence):
            first_pos.setdefault(key, pos)
        observed = list(first_pos)

        for key in observed:
            if key not in self.key_counts:
                self.keys.append(key)
                self.key_counts[key] = 0
            self.key_counts[key] += 1

        for i, a in enumerate(observed):
            for b in observed[i + 1:]:
                pa, pb = first_pos[a], first_pos[b]
                earlier, later = (a, b) if pa < pb else (b, a)
                pair = (earlier, later)
                reverse = (later, earlier)
                if pair in self.compared or reverse in self.compared:
                    if reverse in self.before:
                        self.before.discard(reverse)
                else:
                    self.compared.add(pair)
                    self.before.add(pair)


class FrozenFold:
    def __init__(self):
        #: label -> [session_count, max_key_repeat, {signature: sub}]
        self.groups = {}
        self.observations = {}
        self.labels = set()
        self.training_sessions = 0

    def add_session(self, rows, key_groups):
        per_group = {}
        for row in sorted(rows, key=lambda row: row[0]):
            for label in sorted(key_groups.get(row[1], ())):
                per_group.setdefault(label, []).append(row)
        spans = {}
        for label, group_rows in per_group.items():
            group = self.groups.setdefault(label, [0, 0, {}])
            group[0] += 1
            for instance in frozen_assign_instances(group_rows):
                signature = instance.signature
                sub = group[2].get(signature)
                if sub is None:
                    sub = group[2][signature] = FrozenSubroutine(signature)
                sub.update(instance.key_sequence)
            repeats = Counter(row[1] for row in group_rows)
            group[1] = max(group[1], max(repeats.values()))
            spans[label] = (group_rows[0][0], group_rows[-1][0])
        names = sorted(spans)
        self.labels.update(names)
        for i, a in enumerate(names):
            a_start, a_end = spans[a]
            for b in names[i + 1:]:
                b_start, b_end = spans[b]
                if a_start <= b_start and b_end <= a_end:
                    if a_start == b_start and a_end == b_end:
                        rel = "EQUAL"
                    else:
                        rel = "PARENT"
                elif b_start <= a_start and a_end <= b_end:
                    rel = "CHILD"
                elif a_end <= b_start:
                    rel = "BEFORE"
                elif b_end <= a_start:
                    rel = "AFTER"
                else:
                    rel = "PARALLEL"
                counts = self.observations.setdefault((a, b), {})
                counts[rel] = counts.get(rel, 0) + 1
        self.training_sessions += 1

    def serialized(self):
        return _serialized_fold(
            self.training_sessions,
            [(label, *group) for label, group in self.groups.items()],
            sorted(self.labels),
            self.observations,
        )


def _serialized_subroutine(sub) -> list:
    return [
        list(sub.signature),
        list(sub.keys),
        sorted(sub.before),
        sorted(sub.compared),
        list(sub.key_counts.items()),
        sub.instance_count,
        list(sub.instance_lengths),
    ]


def _serialized_fold(training_sessions, groups, labels, observations):
    """Every field of a fold, in insertion order where it has one."""
    return json.dumps(
        {
            "training_sessions": training_sessions,
            "groups": [
                [label, count, repeat, [
                    _serialized_subroutine(sub) for sub in subs.values()
                ]]
                for label, count, repeat, subs in groups
            ],
            "labels": labels,
            "observations": [
                [a, b, sorted(counts.items())]
                for (a, b), counts in sorted(observations.items())
            ],
        }
    )


def _serialized_partial(partial: GraphPartial) -> str:
    relations = partial.relations.to_dict()
    return _serialized_fold(
        partial.training_sessions,
        [
            (label, g.session_count, g.max_key_repeat, g.model.subroutines)
            for label, g in partial.groups.items()
        ],
        relations["groups"],
        {(a, b): counts for a, b, counts in relations["observations"]},
    )


_LABELS = ["task", "map task", "shuffle", "container", "block", "fetcher"]

#: Keys K0..K5, each feeding a random, unsorted run of labels (the
#: frozen fold sorts them per row, the live one wants them sorted once).
_key_groups = st.dictionaries(
    st.sampled_from([f"K{i}" for i in range(6)]),
    st.lists(st.sampled_from(_LABELS), unique=True, max_size=4),
    min_size=1,
)


@st.composite
def _row_stream(draw):
    key_groups = draw(_key_groups)
    keys = sorted(key_groups) + ["K9"]  # K9 feeds no group
    row = st.tuples(
        st.integers(min_value=0, max_value=9).map(float),
        st.sampled_from(keys),
        st.frozensets(st.sampled_from(["1", "2", "3"]), max_size=2),
        st.lists(
            st.sampled_from(["TASK", "ATTEMPT"]), max_size=2
        ).map(tuple),
    )
    sessions = draw(st.lists(st.lists(row, max_size=12), max_size=10))
    return key_groups, sessions


@settings(max_examples=300, deadline=None)
@given(stream=_row_stream())
def test_fold_equals_frozen_fold(stream):
    key_groups, sessions = stream
    frozen = FrozenFold()
    for rows in sessions:
        frozen.add_session(rows, key_groups)

    sorted_groups = {
        key_id: tuple(sorted(labels))
        for key_id, labels in key_groups.items()
    }
    partial = GraphPartial()
    for rows in sessions:
        partial.add_session(rows, sorted_groups)

    assert _serialized_partial(partial) == frozen.serialized()


#: Few keys, so first-seen key orders repeat across instances.
_repeating_instance = st.lists(
    st.sampled_from("ABC"), min_size=1, max_size=5
)


@settings(max_examples=300, deadline=None)
@given(instances=st.lists(_repeating_instance, max_size=16))
def test_subroutine_update_equals_frozen_update(instances):
    frozen = FrozenSubroutine(("TASK",))
    for sequence in instances:
        frozen.update(sequence)

    live = Subroutine(signature=("TASK",))
    for sequence in instances:
        live.update(sequence)

    assert _serialized_subroutine(live) == _serialized_subroutine(frozen)
