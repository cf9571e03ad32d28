"""Training does each per-record and per-session job once.

* **Tokenize once** — phase 1 masks every message through the chunk
  memo of :func:`repro.parsing.spell.mask_message`; phase 2's plan rows
  read the same memo, so a whole training run calls
  the regex chunk tokenizer exactly once per distinct chunk and never
  the message-level ``words()``.
* **Fold per batch** — each batch folds its sessions into one
  :class:`~repro.graph.hwgraph.GraphPartial` and the parent merges the
  partials in corpus order.  The hypothesis tests pin that merging is
  exact: any split of a session stream into consecutive runs folds to
  the same serialized HW-graph as the sequential fold.
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
from repro.extraction.intelkey import IntelKey, IntelMessage
from repro.graph.hwgraph import GraphPartial, HWGraphBuilder
from repro.graph.subroutine import Subroutine, message_row
from repro.parsing.records import Session

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

    IntelLog().train(corpus, workers=1)

    distinct = {
        chunk
        for session in corpus
        for record in session
        for chunk in record.message.split()
    }
    assert set(calls) == distinct
    assert max(calls.values()) == 1


# -- fold per batch -----------------------------------------------------------


def _key(key_id, entities, natural=True):
    return IntelKey(
        key_id=key_id,
        template=(key_id,),
        sample=key_id,
        entities=tuple(entities),
        natural_language=natural,
    )


#: Overlapping entities give keys in several groups, and groups that
#: share keys, so lifespans and subroutines interact.
KEYS = {
    "K1": _key("K1", ["map task"]),
    "K2": _key("K2", ["map task", "shuffle fetcher"]),
    "K3": _key("K3", ["reduce task"]),
    "K4": _key("K4", ["shuffle fetcher"]),
    "K5": _key("K5", ["container"]),
    "K6": _key("K6", ["container", "reduce task"]),
    "K7": _key("K7", ["kv dump"], natural=False),
}

_identifiers = st.dictionaries(
    st.sampled_from(["TASK", "ATTEMPT"]),
    st.lists(st.sampled_from(["1", "2", "3"]), min_size=1, max_size=2),
    max_size=2,
)
_message = st.builds(
    lambda key_id, t, ids: IntelMessage(
        key_id=key_id,
        timestamp=float(t),
        session_id="s",
        message=key_id,
        identifiers=ids,
    ),
    st.sampled_from(sorted(KEYS)),
    st.integers(min_value=0, max_value=12),
    _identifiers,
)
_session = st.lists(_message, max_size=10)


def _cut(items, data, draw_name):
    """Split ``items`` into consecutive runs at random boundaries."""
    bounds = data.draw(
        st.sets(st.integers(min_value=1, max_value=max(len(items) - 1, 1))),
        label=draw_name,
    )
    edges = [0] + sorted(b for b in bounds if b < len(items)) + [len(items)]
    return [items[a:b] for a, b in zip(edges, edges[1:])]


@settings(max_examples=150, deadline=None)
@given(sessions=st.lists(_session, min_size=1, max_size=14), data=st.data())
def test_batch_partials_fold_to_the_sequential_graph(sessions, data):
    sequential = HWGraphBuilder(KEYS)
    for messages in sessions:
        sequential.train_session(messages)
    want = sequential.build().to_dict()

    batched = HWGraphBuilder(KEYS)
    for run in _cut(sessions, data, "batch boundaries"):
        partial = GraphPartial()
        for messages in run:
            partial.add_session(
                map(message_row, messages), batched.graph.key_groups
            )
        batched.partial.merge(partial)
    got = batched.build().to_dict()

    # No sort_keys: the subroutines' insertion order is part of the model.
    assert json.dumps(got) == json.dumps(want)


_instance = st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(instances=st.lists(_instance, max_size=12), data=st.data())
def test_subroutine_merge_equals_sequential_update(instances, data):
    sequential = Subroutine(signature=("TASK",))
    for sequence in instances:
        sequential.update(sequence)

    runs = _cut(instances, data, "instance boundaries")
    merged = Subroutine(signature=("TASK",))
    for run in runs:
        part = Subroutine(signature=("TASK",))
        for sequence in run:
            part.update(sequence)
        merged.merge(part)

    assert merged == sequential
    assert list(merged.key_counts.items()) == list(
        sequential.key_counts.items()
    )


def test_subroutine_merge_orientation_cases():
    first = Subroutine(signature=())
    first.update(["A", "B", "C"])
    second = Subroutine(signature=())
    second.update(["B", "A"])  # contradicts A<B
    second.update(["C", "D"])  # new pair, seen one way only
    first.merge(second)
    # The earlier side's orientation is kept for compared pairs.
    assert ("A", "B") in first.compared
    assert ("B", "A") not in first.compared
    assert ("A", "B") not in first.before
    assert ("B", "C") in first.before
    # C<D came in with the later side (orientation C, D) and survives.
    assert ("C", "D") in first.before
    assert first.keys == ["A", "B", "C", "D"]
    assert first.key_counts == {"A": 2, "B": 2, "C": 2, "D": 1}
    assert first.instance_lengths == [3, 2, 2]
