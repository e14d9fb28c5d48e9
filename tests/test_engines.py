"""Tests for the bounded-search engines and the top-level analysis API."""

import pytest

from repro.analysis import (
    Verdict,
    check_containment,
    contains,
    equivalent,
    node_satisfiable,
    path_satisfiable,
    relevant_alphabet,
    satisfiable,
)
from repro.edtd import DTD, book_edtd
from repro.semantics import evaluate_nodes, evaluate_path
from repro.xpath import parse_node, parse_path


class TestNodeSatisfiable:
    def test_witness_is_minimal_and_valid(self):
        result = node_satisfiable(parse_node("p and <down[q and <down>]>"))
        assert result
        assert result.witness.size == 3  # minimal: p -> q -> leaf
        assert result.witness_node in evaluate_nodes(
            result.witness, parse_node("p and <down[q and <down>]>"))

    def test_unsat_within_bound(self):
        result = node_satisfiable(parse_node("p and not p"), max_nodes=3)
        assert not result
        assert result.verdict is Verdict.NO_WITNESS_WITHIN_BOUND
        assert not result.conclusive
        assert result.explored_up_to == 3

    def test_alphabet_includes_fresh_label(self):
        # ¬p is satisfiable only with a non-p label available.
        result = node_satisfiable(parse_node("not p"))
        assert result
        assert result.witness.label(result.witness_node) != "p"

    def test_relevant_alphabet(self):
        assert relevant_alphabet(parse_node("p and q")) == ["p", "q", "z"]
        book = book_edtd()
        assert relevant_alphabet(parse_node("p"), edtd=book) == \
            sorted(book.concrete_labels())

    def test_with_edtd(self):
        book = book_edtd()
        result = node_satisfiable(parse_node("Paragraph"), max_nodes=4,
                                  edtd=book)
        assert result
        assert book.conforms(result.witness)

    def test_trees_checked_accounting(self):
        result = node_satisfiable(parse_node("p"), max_nodes=2)
        assert result.trees_checked >= 1


class TestPathSatisfiable:
    def test_satisfiable_path(self):
        result = path_satisfiable(parse_path("down[p]/down[q]"))
        assert result
        relation = evaluate_path(result.witness, parse_path("down[p]/down[q]"))
        assert relation

    def test_empty_path(self):
        result = path_satisfiable(parse_path("down[p and not p]"), max_nodes=3)
        assert not result


class TestContainment:
    @pytest.mark.parametrize("alpha, beta, contained", [
        ("down[p]", "down", True),
        ("down", "down[p]", False),
        ("down/down", "down+", True),
        ("down*", "down* union up", True),
        ("down* intersect down/down", "down/down", True),
        ("following", None, None),  # placeholder, skipped below
    ])
    def test_check_containment(self, alpha, beta, contained):
        if beta is None:
            pytest.skip("placeholder row")
        result = check_containment(parse_path(alpha), parse_path(beta),
                                   max_nodes=4)
        assert result.contained == contained

    def test_counterexample_decodes(self):
        result = check_containment(parse_path("down*"), parse_path("down"),
                                   max_nodes=4)
        assert not result.contained
        tree = result.counterexample
        d, e = result.counterexample_pair
        assert e in evaluate_path(tree, parse_path("down*")).get(d, ())
        assert e not in evaluate_path(tree, parse_path("down")).get(d, frozenset())

    def test_edtd_restricted_containment(self):
        schema = DTD({"a": "(a | b)*", "b": "eps"}, root="a")
        alpha = parse_path("down*[b]/down")
        beta = parse_path("down[a and not a]")
        unrestricted = check_containment(alpha, beta, max_nodes=4)
        assert not unrestricted.contained
        restricted = check_containment(alpha, beta, max_nodes=4, edtd=schema)
        assert restricted.contained


class TestDispatcher:
    def test_downward_cap_goes_conclusive(self):
        result = satisfiable(parse_node("<down[p] intersect down[q]>"))
        assert result.verdict is Verdict.UNSATISFIABLE
        assert result.conclusive

    def test_non_downward_goes_to_automata(self):
        # Outside CoreXPath↓(∩), but inside CoreXPath(*, ≈): since the
        # 2ATA emptiness engine landed this is decided conclusively
        # instead of falling through to the bounded search.
        result = satisfiable(parse_node("<up> and not <up>"), max_nodes=3)
        assert result.verdict is Verdict.UNSATISFIABLE
        assert result.conclusive

    def test_non_downward_forced_bounded_is_inconclusive(self):
        result = satisfiable(parse_node("<up> and not <up>"), max_nodes=3,
                             method="bounded")
        assert result.verdict is Verdict.NO_WITNESS_WITHIN_BOUND

    def test_method_expspace_rejects_bad_fragment(self):
        with pytest.raises(ValueError):
            satisfiable(parse_node("<up>"), method="expspace")

    def test_method_bounded_forces_search(self):
        result = satisfiable(parse_node("p and not p"), method="bounded",
                             max_nodes=3)
        assert result.verdict is Verdict.NO_WITNESS_WITHIN_BOUND

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            satisfiable(parse_node("p"), method="magic")

    def test_contains_dispatch_conclusive(self):
        result = contains(parse_path("down* intersect down"), parse_path("down"))
        assert result.contained and result.conclusive

    def test_contains_counterexample_through_reduction(self):
        result = contains(parse_path("down*"), parse_path("down"))
        assert not result.contained
        tree = result.counterexample
        d, e = result.counterexample_pair
        assert e in evaluate_path(tree, parse_path("down*")).get(d, frozenset())

    def test_equivalent(self):
        a = parse_path("down/down*")
        b = parse_path("down*/down")
        result = equivalent(a, b)
        assert result.contained and result.conclusive
        result2 = equivalent(parse_path("down"), parse_path("down*"))
        assert not result2.contained
