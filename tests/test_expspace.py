"""Tests for the Figure 2 algorithm (CoreXPath↓(∩) satisfiability w.r.t.
EDTDs) — cross-validated against exhaustive bounded search."""

import random

import pytest

from repro.analysis import (
    TooManyModalAtoms,
    TypeSystem,
    downward_cap_satisfiable,
)
from repro.analysis.problems import Verdict
from repro.edtd import DTD, book_edtd, nested_sections_edtd
from repro.semantics import evaluate_nodes
from repro.trees import all_trees
from repro.xpath import parse_node
from repro.xpath.ast import Axis

from .helpers import random_node


def brute_force_sat(phi, edtd, max_nodes):
    for tree in all_trees(max_nodes, sorted(edtd.concrete_labels())):
        if edtd.conforms(tree) and evaluate_nodes(tree, phi):
            return True
    return False


@pytest.fixture
def permissive():
    return DTD({"p": "(p|q)*", "q": "(p|q)*"}, root="q")


class TestAgainstBruteForce:
    CASES = [
        "p",
        "p and q",
        "<down[p] intersect down*>",
        "<down[p] intersect down[q]>",
        "not <down> and <down*>",
        "<down*[p]/down*[q] intersect down/down>",
        "<down/down intersect down*[p]/down> and not <down[p]>",
        "p and not <down*[p]>",
        "<down intersect down>",
        "every_placeholder",
    ]

    @pytest.mark.parametrize("source", CASES[:-1])
    def test_verdicts_match(self, source, permissive):
        phi = parse_node(source)
        result = downward_cap_satisfiable(phi, permissive)
        expected = brute_force_sat(phi, permissive, 5)
        assert bool(result) == expected, source
        assert result.conclusive

    def test_random_formulas(self, permissive):
        rng = random.Random(91)
        checked = 0
        for _ in range(30):
            phi = random_node(rng, 2, frozenset({"cap"}), axes=(Axis.DOWN,))
            try:
                result = downward_cap_satisfiable(phi, permissive)
            except TooManyModalAtoms:
                continue
            checked += 1
            assert bool(result) == brute_force_sat(phi, permissive, 4), phi
        assert checked >= 20

    def test_witness_is_a_model(self, permissive):
        phi = parse_node("<down*[p]/down*[q] intersect down/down>")
        result = downward_cap_satisfiable(phi, permissive)
        assert result
        assert permissive.conforms(result.witness)
        assert evaluate_nodes(result.witness, phi)


class TestSchemaInteraction:
    def test_book_schema(self):
        book = book_edtd()
        # An Image directly under Book is impossible.
        phi = parse_node("Book and <down[Image]>")
        assert not downward_cap_satisfiable(phi, book)
        # An Image two levels under a Chapter is fine.
        phi2 = parse_node("Chapter and <down/down[Image]>")
        result = downward_cap_satisfiable(phi2, book)
        assert result and book.conforms(result.witness)

    def test_edtd_abstract_types_respected(self):
        edtd = nested_sections_edtd(2)
        deep = parse_node("s and <down[s and <down[s]>]>")
        shallow = parse_node("s and <down[s]>")
        assert not downward_cap_satisfiable(deep, edtd)
        assert downward_cap_satisfiable(shallow, edtd)

    def test_content_model_order(self):
        schema = DTD({"a": "b c", "b": "eps", "c": "eps"}, root="a")
        # "a child c followed (as a sibling walk downward cannot see)…" —
        # check simply that b-before-c is enforced through satisfiability:
        # a node with only a c-child cannot exist.
        phi = parse_node("a and <down[c]> and not <down[b]>")
        assert not downward_cap_satisfiable(phi, schema)
        phi2 = parse_node("a and <down[c]> and <down[b]>")
        assert downward_cap_satisfiable(phi2, schema)


class TestTypeSystem:
    def test_modal_atom_guard(self, permissive):
        # Deeply nested intersections of long compositions explode the
        # simple-path set; the guard must fire rather than hang.
        deep = parse_node("<down*[p]/down*[q] intersect down*[q]/down*[p]>")
        with pytest.raises(TooManyModalAtoms):
            downward_cap_satisfiable(deep, permissive, max_modal_atoms=4)

    def test_types_enumerated_are_consistent(self, permissive):
        phi = parse_node("<down[p] intersect down*>")
        from repro.xpath.ast import AxisClosure, Filter, SomePath
        wrapped = SomePath(Filter(AxisClosure(Axis.DOWN), phi))
        system = TypeSystem(wrapped, permissive)
        types = system.all_types()
        assert types
        for t in types:
            # ↓*-monotonicity closure condition holds by construction.
            for suffix in system.modal_atoms:
                if suffix[0] == "down*" and t.holds_suffix(suffix[1:]):
                    assert t.holds_suffix(suffix)


class TestAdmission:
    """``ExpspaceEngine.admits`` tests the inputs' fragment instead of
    building the Prop. 4/5 reductions; it must agree with testing the
    reductions' formulas, which is what it used to do."""

    @staticmethod
    def _admits_via_reduction(problem):
        from repro.analysis.problems import ProblemKind
        from repro.analysis.reductions import (
            containment_to_node_unsat,
            sat_to_edtd_sat,
        )
        from repro.xpath.fragments import DOWNWARD_CAP

        if problem.kind is ProblemKind.SATISFIABILITY:
            if not DOWNWARD_CAP.admits(problem.phi):
                return False
            if problem.edtd is None:
                return DOWNWARD_CAP.admits(sat_to_edtd_sat(problem.phi).formula)
            return True
        if problem.kind is ProblemKind.CONTAINMENT:
            reduction = containment_to_node_unsat(problem.alpha, problem.beta,
                                                  problem.edtd)
            return DOWNWARD_CAP.admits(reduction.formula)
        return False

    @pytest.mark.parametrize("edtd", [None, book_edtd()],
                             ids=["schemaless", "book"])
    def test_agrees_with_testing_the_reduction(self, edtd):
        from repro.analysis.expspace import ExpspaceEngine
        from repro.analysis.problems import Problem, ProblemKind

        from .helpers import random_path

        rng = random.Random(2416)
        engine = ExpspaceEngine()
        operators = frozenset({"cap", "minus", "star", "eq"})
        admitted = 0
        for _ in range(1000):
            # Mostly downward, so both answers occur often.
            axes = rng.choice([(Axis.DOWN,), (Axis.DOWN,), tuple(Axis)])
            ops = rng.choice([frozenset({"cap"}), operators])
            if rng.random() < 0.3:
                problem = Problem(ProblemKind.SATISFIABILITY, edtd=edtd,
                                  phi=random_node(rng, 3, ops, axes))
            else:
                problem = Problem(ProblemKind.CONTAINMENT, edtd=edtd,
                                  alpha=random_path(rng, 3, ops, axes),
                                  beta=random_path(rng, 3, ops, axes))
            expected = self._admits_via_reduction(problem)
            assert engine.admits(problem) is expected, problem
            admitted += expected
        assert 150 <= admitted <= 850
