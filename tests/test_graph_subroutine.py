"""Tests for subroutine construction (paper §4.1, Algorithm 2 +
UpdateSubroutine, Figure 5)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extraction.intelkey import IntelMessage
from repro.graph.subroutine import (
    Subroutine,
    SubroutineModel,
    message_row,
    split_instances,
)


def msg(key_id, identifiers=None, t=0.0):
    message = IntelMessage(
        key_id=key_id, timestamp=t, session_id="s", message=key_id
    )
    if identifiers:
        message.identifiers = {
            k: list(v) for k, v in identifiers.items()
        }
    return message


def row(key_id, identifiers=None, t=0.0):
    return message_row(msg(key_id, identifiers, t))


#: Sorted identifier-type signatures over a small alphabet, so that
#: overlap ties are common.
_signatures = st.sets(st.sampled_from("ABCD"), max_size=4).map(
    lambda types: tuple(sorted(types))
)


def _model_filed_in(signatures):
    """A model whose subroutines are filed in the given order."""
    model = SubroutineModel()
    for signature in signatures:
        model.subroutines[signature] = Subroutine(signature=signature)
    return model


class TestAssignInstances:
    """Algorithm 2's assignment of rows to subroutine instances
    (:func:`split_instances`)."""

    def test_no_identifier_goes_to_none_instance(self):
        # Algorithm 2 line 7-8: identifier-less messages share the NONE
        # sequence.
        instances = split_instances(
            [row("A"), row("B", {"T": ["1"]}), row("C")]
        )
        assert instances[0] == (("A", "C"), frozenset())

    def test_subset_joins_existing_instance(self):
        # Algorithm 2 line 9-12: subset/superset identifier sets merge.
        instances = split_instances([
            row("A", {"T": ["1"], "S": ["x"]}),
            row("B", {"T": ["1"]}),
        ])
        assert len(instances) == 1
        assert instances[0][0] == ("A", "B")

    def test_superset_extends_values(self):
        # The grown values {1, x} take in a later row of {x} alone.
        instances = split_instances([
            row("A", {"T": ["1"]}),
            row("B", {"T": ["1"], "S": ["x"]}),
            row("C", {"S": ["x"]}),
        ])
        assert instances == [(("A", "B", "C"), frozenset({"S", "T"}))]

    def test_disjoint_values_new_instance(self):
        # Algorithm 2 line 14.
        instances = split_instances([
            row("A", {"T": ["1"]}),
            row("A", {"T": ["2"]}),
        ])
        assert len(instances) == 2

    def test_signature_is_sorted_types(self):
        instances = split_instances([
            row("A", {"T": ["1"], "F": ["9"]}),
        ])
        assert instances[0][1] == frozenset({"F", "T"})
        model = SubroutineModel()
        model.train_session([row("A", {"T": ["1"], "F": ["9"]})])
        assert list(model.subroutines) == [("F", "T")]


class TestFigure5:
    """The paper's Figure 5 UpdateSubroutine walk-through."""

    def test_before_relation_breaks_on_interchange(self):
        sub = Subroutine(signature=("ID_1", "ID_2"))
        # Session 1: two sequences, same order A B C D.
        sub.update(["A", "B", "C", "D"])
        sub.update(["A", "B", "C", "D"])
        assert sub.relation("B", "C") == "BEFORE"
        assert sub.critical_keys == {"A", "B", "C", "D"}
        # Session 2, Seq3: B and C interchanged -> parallel.
        sub.update(["A", "C", "B", "D"])
        assert sub.relation("B", "C") == "PARALLEL"
        assert sub.relation("A", "B") == "BEFORE"
        # Seq4: no D -> D loses its critical mark.
        sub.update(["A", "B", "C"])
        assert "D" not in sub.critical_keys
        assert {"A", "B", "C"} <= sub.critical_keys

    def test_ordered_keys_respects_before(self):
        sub = Subroutine(signature=())
        sub.update(["A", "B", "C"])
        assert sub.ordered_keys() == ["A", "B", "C"]

    def test_new_key_mid_training_not_critical(self):
        sub = Subroutine(signature=())
        sub.update(["A", "B"])
        sub.update(["A", "B", "E"])
        assert "E" not in sub.critical_keys
        assert "A" in sub.critical_keys


class TestCheckInstance:
    def make_trained(self):
        sub = Subroutine(signature=("T",))
        sub.update(["A", "B", "C"])
        sub.update(["A", "B", "C"])
        return sub

    def test_clean_instance_passes(self):
        sub = self.make_trained()
        assert sub.check_instance(["A", "B", "C"]) == []

    def test_missing_critical_key_reported(self):
        sub = self.make_trained()
        problems = sub.check_instance(["A", "B"])
        assert any("missing critical" in p for p in problems)

    def test_order_violation_reported(self):
        sub = self.make_trained()
        problems = sub.check_instance(["B", "A", "C"])
        assert any("order violation" in p for p in problems)

    def test_unexpected_key_reported(self):
        sub = self.make_trained()
        problems = sub.check_instance(["A", "B", "C", "Z"])
        assert any("unexpected key" in p for p in problems)

    def test_incomplete_session_skips_missing_check(self):
        sub = self.make_trained()
        assert sub.check_instance(["A"], complete=False) == []


class TestSubroutineModel:
    def test_signature_partitioning(self):
        model = SubroutineModel()
        model.train_session([
            row("A", {"T": ["1"]}),
            row("B", {"T": ["1"]}),
            row("C"),
        ])
        assert ("T",) in model.subroutines
        assert () in model.subroutines

    def test_best_match_exact(self):
        model = SubroutineModel()
        model.train_session([row("A", {"T": ["1"]})])
        assert model.best_match(("T",)) is model.subroutines[("T",)]

    def test_best_match_subset(self):
        model = SubroutineModel()
        model.train_session([
            row("A", {"T": ["1"], "S": ["s1"]}),
        ])
        # An instance that only accumulated T so far matches the (S, T)
        # subroutine.
        assert model.best_match(("T",)) is model.subroutines[("S", "T")]

    def test_best_match_none_for_foreign(self):
        model = SubroutineModel()
        model.train_session([row("A", {"T": ["1"]})])
        assert model.best_match(("X",)) is None

    def test_best_match_prefers_fewer_extra_types(self):
        model = _model_filed_in([("A", "B", "C"), ("A", "B")])
        assert model.best_match(("A",)).signature == ("A", "B")

    def test_best_match_breaks_subset_ties_by_signature(self):
        model = _model_filed_in([("A", "C"), ("A", "B")])
        assert model.best_match(("A", "B", "C")).signature == ("A", "B")

    @settings(max_examples=200)
    @given(
        st.lists(_signatures, min_size=1, max_size=8, unique=True).flatmap(
            lambda sigs: st.tuples(st.just(sigs), st.permutations(sigs))
        ),
        _signatures,
    )
    def test_best_match_ignores_filing_order(self, filings, query):
        filed, permuted = filings
        want = _model_filed_in(filed).best_match(query)
        got = _model_filed_in(permuted).best_match(query)
        assert (got and got.signature) == (want and want.signature)

    def test_stats(self):
        model = SubroutineModel()
        model.train_session(
            [row("A", {"T": ["1"]}), row("B", {"T": ["1"]})]
        )
        stats = model.stats()
        assert stats["max"] == 2
        assert stats["count"] == 1
