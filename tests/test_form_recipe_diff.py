"""Chunk-form match vs a frozen copy of the mask-and-align matcher.

``SpellParser._match_core`` resolves each distinct *chunk-level* masked
form once and keeps a capture recipe for it, found by aligning the
key's template against the form's masked tokens.  The matcher it
replaced masked every record into one token list and aligned the
template against the record's raw tokens.  That matcher is frozen below
as :func:`frozen_match` (its tokenizer pass and ``extract_parameters``
copied, the unchanged trie/LCS resolution called live), and the live
one must return the same key, parameters, misaligned flag and path:

* on every record of every golden detect corpus, and on fresh
  simulator traffic of the four genres with perturbed records;
* on hypothesis streams of training, matching, hand-built key loads and
  memo resets, over messages with multi-token chunks (``(attempt_01)``,
  ``4ms,``), literal ``*`` tokens and all-variable messages, so that
  captures come out empty, multi-chunk and drifted;
* on hand-built keys whose constants tokenize as variable kinds, the
  case the masked alignment cannot decide (the guard path).

The masked alignment holds because a token's kind is a function of its
text; a hypothesis test checks that over arbitrary text.
``REPRO_CHAOS_SEED`` seeds the examples and the random corpora.
"""

from __future__ import annotations

import json
import os
import random
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.nlp.tokenizer import Token, tokenize
from repro.parsing import spell as spell_module
from repro.parsing.records import Session
from repro.parsing.spell import (
    PATH_EXACT,
    PATH_MISS,
    STAR,
    LogKey,
    MatchResult,
    SpellParser,
)
from repro.simulators import (
    TensorFlowConfig,
    TensorFlowSimulator,
    WorkloadGenerator,
)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))

GOLDEN_DIR = Path(__file__).parent / "golden" / "detect_reports"
GENRES = ["mapreduce", "spark", "tez", "tensorflow"]


# -- frozen reference: mask -> token form -> align raw tokens -------------

VARIABLE_KINDS = frozenset({"ident", "number", "hostport", "path"})


def frozen_tokens(message: str) -> tuple[list[str], list[str]]:
    """Masked and raw tokens, chunk by chunk, as ``mask_message`` was."""
    masked: list[str] = []
    raw: list[str] = []
    for chunk in message.split():
        for token in tokenize(chunk):
            raw.append(token.text)
            masked.append(STAR if token.kind in VARIABLE_KINDS else token.text)
    return masked, raw


def frozen_extract_parameters(template, seq):
    captures: list[str] = []
    i = 0
    j = 0
    n, m = len(template), len(seq)
    while i < n:
        tok = template[i]
        if tok != STAR:
            if j < m and seq[j] == tok:
                i += 1
                j += 1
                continue
            return None
        nxt = i + 1
        while nxt < n and template[nxt] == STAR:
            nxt += 1
        if nxt == n:
            captures.append(" ".join(seq[j:]))
            return captures
        anchor = template[nxt]
        k = j
        while k < m and seq[k] != anchor:
            k += 1
        if k == m:
            return None
        captures.append(" ".join(seq[j:k]))
        i = nxt
        j = k
    if j != m:
        return None
    return captures


def frozen_match(parser: SpellParser, message: str):
    """``((key id, parameters, misaligned) or None, path)`` as the
    token-form matcher gave them."""
    masked, raw = frozen_tokens(message)
    if any(t != STAR for t in masked):
        best_idx, path = parser._find_best_idx(masked)
        if best_idx is None:
            return None, path
        key = parser._keys[best_idx]
        params = frozen_extract_parameters(key.tokens, raw)
        if params is None:
            return (key.key_id, [], True), path
        return (key.key_id, params, False), path
    reserved = parser._reserved_key()
    if reserved is None:
        return None, PATH_MISS
    return (reserved.key_id, list(raw), False), PATH_EXACT


def as_tuple(result: MatchResult | None):
    if result is None:
        return None
    return (result.key.key_id, result.parameters, result.misaligned)


def assert_same(parser: SpellParser, messages: list[str]) -> None:
    """``_match_core``, ``match`` and ``match_batch`` all equal the
    frozen matcher on every message."""
    batch = parser.match_batch(messages)
    for message, batched in zip(messages, batch):
        expected, expected_path = frozen_match(parser, message)
        result, path, _fresh = parser._match_core(message)
        assert (as_tuple(result), path) == (expected, expected_path), message
        assert as_tuple(parser.match(message)) == expected, message
        assert as_tuple(batched) == expected, message


def assert_entries_are_resolutions(parser: SpellParser) -> None:
    """Every memo entry is what the current key set resolves its form
    to: no entry outlives a change, none belongs to another key."""
    for form, entry in list(parser._form_memo.items()):
        assert entry == parser._resolve_form(form), form


@contextmanager
def caps(chunk_cap: int, form_cap: int):
    with mock.patch.object(spell_module, "_CHUNK_MEMO_CAP", chunk_cap), \
            mock.patch.object(spell_module, "_FORM_MEMO_CAP", form_cap):
        yield


# -- golden corpora and fresh simulator traffic ---------------------------


def _messages(session_dicts: list[dict]) -> list[str]:
    return [
        record.message
        for data in session_dicts
        for record in Session.from_dict(data)
    ]


@pytest.mark.parametrize("genre", GENRES)
def test_golden_corpus_matches_the_frozen_matcher(genre: str) -> None:
    fixture = json.loads((GOLDEN_DIR / f"{genre}.json").read_text())
    parser = SpellParser()
    for message in _messages(fixture["train_sessions"]):
        parser.consume(message)
    detect = _messages(fixture["detect_sessions"])
    assert_same(parser, detect)
    assert parser._form_memo
    assert_entries_are_resolutions(parser)


def perturb(message: str, rng: random.Random) -> str:
    """One record as a drifted or corrupted line might carry it."""
    chunks = message.split()
    if not chunks:
        return message
    i = rng.randrange(len(chunks))
    op = rng.randrange(5)
    if op == 0:
        chunks[i] = f"({chunks[i]})"
    elif op == 1:
        chunks[i] = chunks[i] + rng.choice([",", "ms,", ":", "*"])
    elif op == 2:
        chunks.insert(i, rng.choice(["*", "17", "attempt_9", "retry"]))
    elif op == 3:
        del chunks[i]
    else:
        chunks[i] = rng.choice(["x1:80", "/a/b", "42", "later"])
    return " ".join(chunks)


def fresh_jobs(genre: str) -> list:
    if genre == "tensorflow":
        sim = TensorFlowSimulator(seed=CHAOS_SEED)
        return [
            sim.run_job(
                "mnist", TensorFlowConfig(steps=10 + 10 * i),
                base_time=i * 10_000.0,
            )
            for i in range(3)
        ]
    return WorkloadGenerator(seed=CHAOS_SEED).run_batch(genre, 3)


@pytest.mark.parametrize("genre", GENRES)
def test_fresh_traffic_matches_the_frozen_matcher(genre: str) -> None:
    rng = random.Random(f"{CHAOS_SEED}-{genre}")
    jobs = fresh_jobs(genre)
    parser = SpellParser()
    for job in jobs[:2]:
        for record in job.records:
            parser.consume(record.message)
    detect = [record.message for record in jobs[2].records]
    detect += [perturb(m, rng) for m in rng.sample(detect, len(detect) // 2)]
    assert_same(parser, detect)
    assert_entries_are_resolutions(parser)


# -- hypothesis streams ---------------------------------------------------

CONSTANTS = ["alpha", "beta", "gamma", "done", "from", "took"]
PUNCT = ["(", ")", ",", ":", "=", "[", "]", "#", "*", "-", "."]
VARIABLES = [
    "17", "4", "3.14", "attempt_01", "badger42", "job-7_2",
    "10.0.0.1:8020", "host1:13562", "/tmp/x/part-0", "hdfs://nn/x",
]
UNITS = ["ms", "MB"]

#: Pieces glued into one chunk make multi-token chunks: ``(attempt_01)``,
#: ``4ms,``, ``alpha=17``.
_piece = st.sampled_from(CONSTANTS + PUNCT + VARIABLES + UNITS)
_chunk = st.one_of(
    st.sampled_from(CONSTANTS + VARIABLES + ["*"]),
    st.lists(_piece, min_size=1, max_size=3).map("".join),
)
_message = st.lists(_chunk, min_size=0, max_size=8).map(" ".join)

#: Hand-built templates: constants may be texts of variable kinds.
_template = st.lists(
    st.sampled_from(CONSTANTS + VARIABLES + [STAR]),
    min_size=1, max_size=6,
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("consume"), _message),
        st.tuples(st.just("match"), _message),
        st.tuples(st.just("batch"), st.lists(_message, max_size=6)),
        st.tuples(st.just("restore"), _template),
        st.tuples(st.just("reset"), st.sampled_from(["form", "chunk"])),
    ),
    min_size=1,
    max_size=30,
)


@seed(CHAOS_SEED)
@settings(max_examples=300, deadline=None)
@given(
    ops=_ops,
    tau=st.sampled_from([1.05, 1.7, 4.0]),
    chunk_cap=st.sampled_from([2, 5, 65536]),
    form_cap=st.sampled_from([1, 3, 4096]),
)
# A multi-chunk capture, a capture inside a chunk and an empty one.
@example(ops=[
    ("consume", "took 4ms, from (attempt_01) done"),
    ("consume", "took 17 MB from (job-7_2) done"),
    ("batch", ["took 3.14 ms, from (badger42) done",
               "took from () done", "took 4ms, from (attempt_01) done"]),
], tau=1.7, chunk_cap=65536, form_cap=4096)
# All-variable messages, literal stars and the empty message.
@example(ops=[
    ("consume", "17 attempt_01"), ("match", "* 4"), ("match", ""),
    ("batch", ["*", "(17)", "4ms"]),
], tau=1.7, chunk_cap=65536, form_cap=4096)
# A merge re-resolves a matched form to a drifted template, whose
# recipe adds an empty trailing capture.
@example(ops=[
    ("consume", "alpha 17 beta"), ("match", "alpha 4 beta"),
    ("consume", "alpha 17 beta gamma"), ("match", "alpha 4 beta"),
], tau=1.7, chunk_cap=65536, form_cap=4096)
# A hand-built constant that is a number: the guard path.
@example(ops=[
    ("restore", ["took", "17", STAR]),
    ("batch", ["took 17 42", "took 18 42", "took 42 17 9"]),
], tau=4.0, chunk_cap=65536, form_cap=4096)
def test_streams_match_the_frozen_matcher(ops, tau, chunk_cap, form_cap):
    """Training merges drift templates between matches, hand-built
    keys reload the model, and memos reset mid-stream (lowered caps
    and explicit clears); every match equals the frozen matcher's."""
    parser = SpellParser(tau=tau)
    spell_module._CHUNK_MEMO.clear()
    with caps(chunk_cap, form_cap):
        for op, arg in ops:
            if op == "consume":
                parser.consume(arg)
            elif op == "restore":
                parser._keys.append(LogKey(
                    key_id=f"K{parser._next_id}", tokens=list(arg),
                    sample=" ".join(arg),
                ))
                parser._next_id += 1
                parser._reindex()
            elif op == "match":
                assert_same(parser, [arg])
            elif op == "batch":
                assert_same(parser, arg)
            elif arg == "form":
                parser._form_memo.clear()
            else:
                spell_module._CHUNK_MEMO.clear()
            assert len(parser._form_memo) <= form_cap
            assert len(spell_module._CHUNK_MEMO) <= chunk_cap
        assert_entries_are_resolutions(parser)


# -- the guard: constants that tokenize as variable kinds ----------------


GUARD_KEYS = [
    ["took", "17", STAR],
    [STAR, "attempt_01", "done"],
    ["from", "10.0.0.1:8020", STAR, "done"],
    ["alpha", STAR, "/tmp/x/part-0"],
]

GUARD_MESSAGES = [
    "took 17 42", "took 18 42", "took 42 17 9", "took 17", "took 17 17",
    "attempt_01 attempt_01 done", "x attempt_02 done", "attempt_01 done",
    "from 10.0.0.1:8020 4 done", "from 10.0.0.2:8020 4 done",
    "from 4 10.0.0.1:8020 done done",
    "alpha 7 /tmp/x/part-0", "alpha /tmp/x/part-0 /tmp/x/part-0",
    "alpha 7 /tmp/y/part-0",
]


def test_hand_built_variable_constants_keep_the_raw_alignment() -> None:
    parser = SpellParser(tau=4.0)
    for tokens in GUARD_KEYS:
        parser._keys.append(LogKey(
            key_id=f"K{parser._next_id}", tokens=tokens,
            sample=" ".join(tokens),
        ))
        parser._next_id += 1
    parser._reindex()
    assert_same(parser, GUARD_MESSAGES)
    assert_same(parser, list(reversed(GUARD_MESSAGES)))
    recipes = [entry[2] for entry in parser._form_memo.values()]
    assert spell_module._PER_RECORD in recipes
    # The raw alignment decides: one form, aligned and misaligned.
    assert as_tuple(parser.match("took 17 42")) == ("K0", ["42"], False)
    assert as_tuple(parser.match("took 18 42")) == ("K0", [], True)


def test_learned_constants_never_need_the_raw_alignment() -> None:
    """A template learned from messages has no variable-kind constant,
    so no golden form falls back to the per-record alignment."""
    for genre in GENRES:
        fixture = json.loads((GOLDEN_DIR / f"{genre}.json").read_text())
        parser = SpellParser()
        for message in _messages(fixture["train_sessions"]):
            parser.consume(message)
        parser.match_batch(_messages(fixture["detect_sessions"]))
        assert all(
            entry[2] is not spell_module._PER_RECORD
            for entry in parser._form_memo.values()
        ), genre


# -- the invariant the masked alignment rests on --------------------------

_log_text = st.lists(
    st.one_of(_piece, st.sampled_from([" ", "\t", "é", "٣", "_", " "])),
    max_size=20,
).map("".join)


@seed(CHAOS_SEED)
@settings(max_examples=400, deadline=None)
@given(text=st.one_of(st.text(), _log_text))
def test_token_kind_is_a_function_of_its_text(text: str) -> None:
    """Each chunk's tokens tile it, and every token, tokenized on its
    own, is one token of the same kind, so whether a token is masked
    depends on its text alone."""
    for chunk in text.split():
        tokens = tokenize(chunk)
        assert "".join(token.text for token in tokens) == chunk
        for token in tokens:
            assert tokenize(token.text) == [
                Token(token.text, token.kind, 0)
            ], token
