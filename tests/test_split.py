"""Top-level ``except``/``intersect`` containments decided exactly: the
``split`` engine and ``∩`` directly under an existential test in
``automata``."""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.analysis import Problem, ProblemKind, contains, satisfiable
from repro.analysis.automata_engine import AutomataEngine
from repro.analysis.problems import Verdict
from repro.analysis.registry import SplitEngine
from repro.edtd import book_edtd
from repro.semantics import evaluate_path
from repro.trees import random_tree
from repro.xpath import parse_node, parse_path
from repro.xpath.ast import Axis, Complement, Intersect

from .helpers import random_path

#: The four E15 shapes that used to fall through to bounded search, with
#: answers derived by hand (a node carries exactly one label, so an
#: A-node is never a B-node, and a parent labelled A is not labelled B)
#: and the engine that decides them.
E15_SHAPES = [
    ("down*[{A}]", "down* except down*[{B}]", True, "split"),
    ("up*[{A}]", "up* except up*[{B}]", True, "split"),
    ("down[{A}]", "down except down[{B}]", True, "split"),
    ("up[{A}] intersect up*[{B}]", "up", True, "automata"),
]


def _decided(alpha: str, beta: str, **kwargs):
    result = contains(parse_path(alpha), parse_path(beta), stats=True,
                      **kwargs)
    return result, result.stats["meta"]["engine_decision"]["chosen"]


def _assert_refutes(result, alpha, beta) -> None:
    """The counterexample pair is in α and not in β, by the evaluator
    (``alpha``/``beta`` as source text or parsed)."""
    alpha, beta = (parse_path(e) if isinstance(e, str) else e
                   for e in (alpha, beta))
    assert result.verdict is Verdict.SATISFIABLE and result.conclusive
    tree = result.counterexample
    source, target = result.counterexample_pair
    assert target in evaluate_path(tree, alpha).get(source, ())
    assert target not in evaluate_path(tree, beta).get(source, ())


class TestE15Shapes:
    @pytest.mark.parametrize("labels", [("a", "b"), ("q", "p")])
    @pytest.mark.parametrize("alpha, beta, expected, engine", E15_SHAPES)
    def test_conclusive_with_hand_derived_answer(self, alpha, beta,
                                                 expected, engine, labels):
        a, b = labels
        result, chosen = _decided(alpha.format(A=a, B=b),
                                  beta.format(A=a, B=b))
        assert result.conclusive
        assert result.contained is expected
        assert chosen == engine

    def test_split_counts_its_dispatches(self):
        with obs.record("run") as recording:
            contains(parse_path("down[a]"), parse_path("down except down[b]"))
        assert recording.counters.get("dispatch.split") == 1
        assert "dispatch.bounded" not in recording.counters


class TestCounterexamples:
    @pytest.mark.parametrize("alpha, beta", [
        ("down[a]", "down except down[a]"),
        ("up*[a]", "up* except up[a]"),
        ("down except down[a]", "down[a]"),
    ])
    def test_negatives_are_refuted_by_split(self, alpha, beta):
        result, chosen = _decided(alpha, beta)
        assert chosen == "split"
        _assert_refutes(result, alpha, beta)

    def test_schema_relative_split(self):
        edtd = book_edtd()
        holds, chosen = _decided("down[Chapter]", "down except down[Book]",
                                 edtd=edtd)
        assert chosen == "split" and holds.contained and holds.conclusive
        fails, chosen = _decided("down[Chapter]", "down except down[Chapter]",
                                 edtd=edtd)
        assert chosen == "split" and not fails.contained
        assert edtd.conforms(fails.counterexample)
        _assert_refutes(fails, "down[Chapter]", "down except down[Chapter]")

    @pytest.mark.parametrize("lie, message", [
        # A ⟨α ∩ γ⟩ "witness" without an α ∩ γ target at its node.
        (ProblemKind.SATISFIABILITY, "no α ∩ γ target"),
        # A "counterexample" to α ⊑ β that is in β after all: the
        # dispatch's witness check refuses it.
        (ProblemKind.CONTAINMENT, "does not refute the containment"),
    ])
    def test_a_wrong_counterexample_is_caught(self, monkeypatch, lie,
                                              message):
        # A sub-problem answer whose witness does not refute the original
        # containment must raise, never become a verdict.
        from repro.analysis import default_registry, registry
        from repro.analysis.problems import ContainmentResult
        from repro.trees import XMLTree

        real = registry.plan_and_run
        tree = XMLTree(["b", "a"], [None, 0])  # a b-root with an a-child

        def lying(problem):
            if problem.kind is not lie:
                return real(problem)
            if lie is ProblemKind.SATISFIABILITY:
                return real(Problem(ProblemKind.SATISFIABILITY,
                                    phi=parse_node("not <up>")))
            return ContainmentResult(Verdict.SATISFIABLE, tree, (0, 1))

        monkeypatch.setattr(registry, "plan_and_run", lying)
        problem = Problem(ProblemKind.CONTAINMENT,
                          alpha=parse_path("down[a]"),
                          beta=parse_path("down except down[b]"),
                          engine="split")
        with pytest.raises(RuntimeError, match=message):
            default_registry().plan_and_run(problem)


class TestAdmission:
    def test_not_admitted_without_a_conclusive_engine_for_every_part(self):
        # ⟨down[p] ∩ (down[q] except down[p])⟩ keeps an except: no
        # conclusive engine takes it, so the split would only trade one
        # bounded search for another.
        problem = Problem(
            ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
            beta=parse_path("down except (down[q] except down[p])"),
            max_nodes=4).canonical()
        assert isinstance(problem.beta, Complement)
        assert not SplitEngine().admits(problem)
        with obs.record("run") as recording:
            result = contains(problem.alpha, problem.beta, max_nodes=4)
        assert not result.conclusive
        assert recording.counters.get("dispatch.bounded") == 1
        assert "dispatch.split" not in recording.counters

    def test_schema_parts_outside_every_conclusive_engine(self):
        problem = Problem(ProblemKind.CONTAINMENT,
                          alpha=parse_path("up[Chapter]"),
                          beta=parse_path("up except up[Book]"),
                          edtd=book_edtd(), max_nodes=4).canonical()
        assert not SplitEngine().admits(problem)

    def test_only_containments_with_a_top_level_except(self):
        engine = SplitEngine()
        for alpha, beta in [("down", "down/(down except down[p])"),
                            ("down[p]", "down")]:
            assert not engine.admits(Problem(
                ProblemKind.CONTAINMENT, alpha=parse_path(alpha),
                beta=parse_path(beta)).canonical())
        assert not engine.admits(Problem(
            ProblemKind.SATISFIABILITY,
            phi=parse_node("<down except down[p]>")))


class TestAutomataIntersect:
    def test_admits_intersect_under_a_test(self):
        engine = AutomataEngine()
        admitted = [
            Problem(ProblemKind.SATISFIABILITY,
                    phi=parse_node("<(up intersect up*[q])[p]>")),
            Problem(ProblemKind.CONTAINMENT,
                    alpha=parse_path("up[a] intersect up*[b]"),
                    beta=parse_path("up")),
            Problem(ProblemKind.CONTAINMENT, alpha=parse_path("up/up"),
                    beta=parse_path("up/up intersect up*[a]")),
        ]
        assert all(engine.admits(problem) for problem in admitted)
        assert not engine.admits(Problem(
            ProblemKind.SATISFIABILITY,
            phi=parse_node("<down/(up intersect up[p])>")))

    def test_intersect_on_the_right(self):
        result, chosen = _decided("up[a]", "up intersect up*[a]")
        assert chosen == "automata" and result.contained and result.conclusive
        result, chosen = _decided("up", "up intersect up*[a]")
        assert chosen == "automata"
        _assert_refutes(result, "up", "up intersect up*[a]")

    def test_witness_is_checked_against_the_formula_before_the_rewrite(
            self, monkeypatch):
        from repro.analysis import automata_engine, default_registry
        from repro.xpath.rewrite import intersect_tests_via_eq

        phi = parse_node("<up[a] intersect up[b]>")
        assert satisfiable(phi, method="automata").verdict \
            is Verdict.UNSATISFIABLE
        # The engine sees the canonical form, whose ∩ operand order
        # follows the order the interner first met them in.
        canonical = Problem(ProblemKind.SATISFIABILITY, phi=phi).canonical()
        # Rewriting to a weaker formula yields a witness of the weaker
        # formula only: the plan check against φ itself must refuse it.
        weaker = parse_node("<up[a]>")
        monkeypatch.setattr(automata_engine, "intersect_tests_via_eq",
                            lambda expr: weaker if expr == canonical.phi
                            else intersect_tests_via_eq(expr))
        with pytest.raises(RuntimeError,
                           match="does not satisfy the formula"):
            default_registry().plan_and_run(Problem(
                ProblemKind.SATISFIABILITY, phi=phi, engine="automata"))


class TestDifferential:
    def test_default_ladder_never_contradicts_bounded_search(self):
        """Random containments with a top-level except or intersect: the
        default ladder and bounded search at a small bound never disagree
        where both are conclusive, and every counterexample refutes."""
        rng = random.Random(1601)
        problems, conclusive = 60, 0
        for _ in range(problems):
            # One axis direction per problem: mixed up/down unions make
            # single 2ATA runs take seconds, which says nothing about the
            # split or the rewrite.
            axes = rng.choice([(Axis.DOWN,), (Axis.UP,)])
            a, b, c = (random_path(rng, 1, axes=axes, labels=("p", "q"))
                       for _ in range(3))
            alpha, beta = rng.choice([
                (a, Complement(b, c)), (Complement(a, c), b),
                (Intersect(a, c), b), (a, Intersect(b, c)),
            ])
            default = contains(alpha, beta, max_nodes=4)
            bounded = contains(alpha, beta, method="bounded", max_nodes=4)
            conclusive += default.conclusive
            if not default.contained:
                _assert_refutes(default, alpha, beta)
            if default.contained and default.conclusive:
                assert bounded.contained, (alpha, beta)
            if not bounded.contained:
                assert not default.contained, (alpha, beta)
        assert conclusive >= 0.9 * problems

    def test_split_agrees_with_random_trees(self):
        # A proven containment holds on every sampled tree.
        rng = random.Random(1602)
        for a, b in [("down*[a]", "down* except down*[b]"),
                     ("up*[a]", "up* except up*[b]"),
                     ("down except down[a]", "down[not a] union down[b]")]:
            result = contains(parse_path(a), parse_path(b))
            assert result.contained and result.conclusive
            alpha, beta = parse_path(a), parse_path(b)
            for _ in range(20):
                tree = random_tree(rng, 8, ["a", "b", "c"])
                left, right = evaluate_path(tree, alpha), evaluate_path(tree, beta)
                for source, targets in left.items():
                    assert targets <= right.get(source, frozenset())
