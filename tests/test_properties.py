"""Property-based tests (hypothesis) on core data structures and
invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import DetectionCounts, score_predictions
from repro.graph.grouping import (
    group_entities,
    longest_common_phrase,
    longest_common_word_substring,
)
from repro.graph.lifespan import Lifespan, RelationMatrix
from repro.graph.subroutine import Subroutine
from repro.nlp.lemmatizer import singularize
from repro.nlp.tokenizer import tokenize, words
from repro.parsing.spell import (
    STAR,
    SpellParser,
    extract_parameters,
    lcs_length,
    lcs_merge,
)

tokens = st.text(
    alphabet=string.ascii_lowercase, min_size=1, max_size=6
)
token_lists = st.lists(tokens, min_size=0, max_size=12)
printable_text = st.text(
    alphabet=string.ascii_letters + string.digits + " .:_-/#",
    max_size=80,
)


class TestTokenizerProperties:
    @given(printable_text)
    @settings(max_examples=200)
    def test_offsets_always_match_source(self, text):
        for token in tokenize(text):
            assert text[token.start:token.end] == token.text

    @given(printable_text)
    def test_no_empty_tokens(self, text):
        assert all(t.text for t in tokenize(text))

    @given(printable_text)
    def test_tokens_cover_non_whitespace(self, text):
        covered = sum(len(t.text) for t in tokenize(text))
        non_ws = len("".join(text.split()))
        assert covered == non_ws


def lcs_length_dp(a, b):
    """The textbook LCS dynamic programme (the reference for the
    bit-parallel ``lcs_length``)."""
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            if x == y:
                curr[j] = prev[j - 1] + 1
            else:
                curr[j] = max(prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


#: A small alphabet, so drawn lists repeat tokens and share many.
dense_token_lists = st.lists(
    st.sampled_from(["a", "b", "c", "d", STAR]), max_size=40
)


class TestLcsProperties:
    @settings(max_examples=500)
    @given(dense_token_lists, dense_token_lists)
    def test_equals_the_dynamic_programme(self, a, b):
        assert lcs_length(a, b) == lcs_length_dp(a, b)

    @given(token_lists, token_lists)
    def test_symmetric(self, a, b):
        assert lcs_length(a, b) == lcs_length(b, a)

    @given(token_lists, token_lists)
    def test_bounded_by_shorter(self, a, b):
        assert lcs_length(a, b) <= min(len(a), len(b))

    @given(token_lists)
    def test_self_lcs_is_length(self, a):
        assert lcs_length(a, a) == len(a)

    @given(token_lists, token_lists)
    def test_merge_matches_both_inputs(self, a, b):
        merged = lcs_merge(a, b)
        # Every constant of the merge appears in both inputs in order.
        constants = [t for t in merged if t != STAR]
        assert lcs_length(constants, [t for t in a if t != STAR]) == len(
            constants
        )
        assert lcs_length(constants, [t for t in b if t != STAR]) == len(
            constants
        )

    @given(token_lists)
    def test_merge_idempotent_on_equal(self, a):
        assert lcs_merge(a, a) == list(a) or STAR in a


class TestExtractParametersProperties:
    @given(token_lists)
    def test_exact_template_matches_itself(self, seq):
        template = [t for t in seq if t != STAR]
        assert extract_parameters(template, template) == []

    @given(
        st.lists(tokens, min_size=1, max_size=6),
        st.lists(tokens, min_size=0, max_size=3),
    )
    def test_star_captures_inserted_tokens(self, template, inserted):
        # Build template "t0 * t1 t2..." and a message with tokens
        # inserted at the star; the capture must equal the insertion.
        if any(t in template for t in inserted):
            return  # anchor ambiguity is allowed to capture differently
        full_template = [template[0], STAR, *template[1:]]
        message = [template[0], *inserted, *template[1:]]
        params = extract_parameters(full_template, message)
        assert params == [" ".join(inserted)]


class TestSpellProperties:
    @given(st.lists(printable_text.filter(lambda s: s.strip()),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_every_training_message_matches_some_key(self, messages):
        parser = SpellParser()
        for message in messages:
            parser.consume(message)
        for message in messages:
            if not words(message):
                continue
            assert parser.match(message) is not None

    @given(st.lists(printable_text, min_size=0, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_key_count_bounded_by_messages(self, messages):
        parser = SpellParser()
        for message in messages:
            parser.consume(message)
        assert len(parser) <= max(len(messages), 0 if messages else 0)
        if messages:
            # Repeats of one message always collapse to a single key.
            repeat = SpellParser()
            for _ in range(5):
                repeat.consume(messages[0])
            assert len(repeat) == 1


class TestGroupingProperties:
    @given(st.lists(st.lists(tokens, min_size=1, max_size=3),
                    min_size=0, max_size=15))
    @settings(max_examples=100)
    def test_every_entity_lands_in_some_group(self, phrases):
        result = group_entities(phrases)
        for phrase in {tuple(p) for p in phrases if p}:
            assert result.groups_for(phrase)

    @given(st.lists(tokens, min_size=1, max_size=4),
           st.lists(tokens, min_size=1, max_size=4))
    def test_lcp_is_contiguous_in_both(self, a, b):
        common = longest_common_phrase(a, b)
        if common:
            assert longest_common_word_substring(a, b) == common

    @given(st.lists(tokens, min_size=1, max_size=4))
    def test_lcs_substring_self(self, a):
        assert longest_common_word_substring(a, a) == tuple(a)


class TestSubroutineProperties:
    @given(st.lists(
        st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5),
        min_size=1, max_size=10,
    ))
    def test_critical_keys_appear_in_all_instances(self, sequences):
        sub = Subroutine(signature=())
        for seq in sequences:
            sub.update(seq)
        for key in sub.critical_keys:
            assert all(key in seq for seq in sequences)

    @given(st.lists(
        st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5),
        min_size=1, max_size=10,
    ))
    def test_before_relations_hold_in_every_sequence(self, sequences):
        sub = Subroutine(signature=())
        for seq in sequences:
            sub.update(seq)
        for a, b in sub.before:
            for seq in sequences:
                if a in seq and b in seq:
                    assert seq.index(a) <= seq.index(b)

    @given(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=8))
    def test_training_sequence_validates_against_itself(self, seq):
        sub = Subroutine(signature=())
        sub.update(seq)
        assert sub.check_instance(seq) == []


class TestLifespanProperties:
    spans = st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    ).map(lambda p: Lifespan(min(p), max(p)))

    @given(spans, spans)
    def test_relation_antisymmetry(self, a, b):
        matrix = RelationMatrix(min_support=1)
        matrix.observe_session({"a": a, "b": b})
        rel_ab = matrix.relation("a", "b")
        rel_ba = matrix.relation("b", "a")
        inverse = {"PARENT": "CHILD", "CHILD": "PARENT",
                   "BEFORE": "AFTER", "AFTER": "BEFORE",
                   "PARALLEL": "PARALLEL"}
        assert rel_ba == inverse[rel_ab]


class TestMetricsProperties:
    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=50))
    def test_counts_partition_population(self, pairs):
        labels = [t for t, _ in pairs]
        preds = [p for _, p in pairs]
        counts = score_predictions(labels, preds)
        total = (counts.true_positives + counts.false_positives
                 + counts.false_negatives + counts.true_negatives)
        assert total == len(pairs)

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
    def test_scores_bounded(self, tp, fp, fn):
        counts = DetectionCounts(tp, fp, fn, 0)
        assert 0.0 <= counts.precision <= 1.0
        assert 0.0 <= counts.recall <= 1.0
        assert 0.0 <= counts.f_measure <= 1.0


class TestLemmatizerProperties:
    @given(tokens)
    def test_singularize_idempotent(self, word):
        once = singularize(word)
        assert singularize(once) == once
