"""Tests for the 2ATA construction (§3.3): Table III and Lemma 12."""

import json
import random

import pytest

from repro.analysis.reductions import containment_to_node_unsat
from repro.automata import (
    TwoATA,
    accepts,
    build_twoata,
    closure,
    decide_emptiness,
    nf_render,
    to_normal_form,
)
from repro.automata.nf import (
    NFAnd,
    NFLabel,
    NFLoop,
    NFNot,
    NFTop,
    PathAutomaton,
)
from repro.semantics import evaluate_nodes
from repro.trees import XMLTree, random_tree
from repro.xpath import parse_node, parse_path

from .helpers import random_node, run_with_hash_seed

STAR_EQ = frozenset({"star", "eq"})


class TestClosure:
    def test_contains_shifted_loops_and_negations(self):
        nf = to_normal_form(parse_node("eq(down, down)"))
        cl = closure(nf)
        assert nf in cl
        loops = [e for e in cl if isinstance(e, NFLoop)]
        states = loops[0].automaton.num_states
        # All state pairs are present, positively and negated.
        assert len(loops) >= states * states
        assert any(isinstance(e, NFNot) for e in cl)

    def test_closure_polynomial_in_formula(self):
        sizes = []
        for n in range(1, 5):
            inner = "/".join(["down"] * n)
            ata = build_twoata(parse_node(f"<{inner}>"))
            sizes.append(ata.num_states)
        # Quadratic-ish growth, not exponential: successive ratios bounded.
        ratios = [b / a for a, b in zip(sizes, sizes[1:])]
        assert max(ratios) < 3


class TestAcceptancePriorities:
    def test_loop_states_get_priority_one(self):
        ata = build_twoata(parse_node("p"))
        for index, expr in enumerate(ata.state_exprs):
            expected = 1 if isinstance(expr, NFLoop) else 2
            assert ata.priority(index) == expected

    def test_initial_state_is_wrapped_loop(self):
        ata = build_twoata(parse_node("p"))
        assert isinstance(ata.initial_expr, NFLoop)


class TestLemma12:
    """A_φ accepts T iff T satisfies φ somewhere."""

    @pytest.mark.parametrize("source", [
        "p",
        "not p",
        "p and not q",
        "<down[p]>",
        "not <down*[p]>",
        "eq(down*, down/down)",
        "eq(down*[p]/up, .)",
        "<(down[p])*[q]>",
        "not eq(down[p], right*)",
    ])
    def test_acceptance_matches_satisfaction(self, source):
        rng = random.Random(41)
        phi = parse_node(source)
        ata = build_twoata(phi)
        hits = 0
        for _ in range(10):
            tree = random_tree(rng, 7, ["p", "q"])
            expected = bool(evaluate_nodes(tree, phi))
            hits += expected
            assert accepts(ata, tree) == expected, (source, tree.to_spec())

    def test_acceptance_random_formulas(self):
        rng = random.Random(42)
        for _ in range(10):
            phi = random_node(rng, 2, STAR_EQ)
            ata = build_twoata(phi)
            for _ in range(4):
                tree = random_tree(rng, 6, ["p", "q"])
                assert accepts(ata, tree) == bool(evaluate_nodes(tree, phi))

    def test_single_node_trees(self):
        ata = build_twoata(parse_node("p and not <down>"))
        assert accepts(ata, XMLTree(["p"], [None]))
        assert not accepts(ata, XMLTree(["q"], [None]))
        # "somewhere": the leaf p-child satisfies it even under a p-root.
        assert accepts(ata, XMLTree.build(("p", ["p"])))
        assert accepts(ata, XMLTree.build(("q", ["p"])))
        # No leaf carries p here: every p-node has a child.
        assert not accepts(ata, XMLTree.build(("q", [("p", ["q"])])))

    def test_deep_chain(self):
        phi = parse_node("p and not <down*[q]>")
        ata = build_twoata(phi)
        assert accepts(ata, XMLTree.chain("ppp"))
        assert not accepts(ata, XMLTree.chain("ppq"))

    def test_loop_formula_on_wide_tree(self):
        # eq(↓[p], ↓[q]): a child that is both p and q — impossible.
        ata = build_twoata(parse_node("eq(down[p], down[q])"))
        for spec in [("a", ["p", "q"]), ("a", [("p", ["q"])])]:
            assert not accepts(ata, XMLTree.build(spec))

    def test_delta_is_memoized(self):
        ata = build_twoata(parse_node("p"))
        tree = XMLTree.build(("p", ["q"]))
        accepts(ata, tree)
        memo_size = len(ata._delta_memo)
        accepts(ata, tree)
        assert len(ata._delta_memo) == memo_size


def e1_family(n: int) -> str:
    """EXPERIMENTS.md E1: ``eq(↓ⁿ, ↓*) ∧ ¬⟨↓ⁿ⁺¹[p]⟩``."""
    chain = "/".join(["down"] * n)
    longer = "/".join(["down"] * (n + 1))
    return f"eq({chain}, down*) and not <{longer}[p]>"


def rendered_states(ata: TwoATA) -> list[str]:
    memo: dict = {}
    return [nf_render(expr, memo) for expr in ata.state_exprs]


class TestStateNumbering:
    """States are numbered by structural rendering: a pure function of the
    formula, computed without ``repr``."""

    def test_construction_never_calls_repr(self, monkeypatch):
        formulas = [
            parse_node(e1_family(8)),
            # The fresh-automata template "star-up-pair" through Prop. 4.
            containment_to_node_unsat(
                parse_path("(up[a]/up[b])*"), parse_path("up*")
            ).formula,
        ]
        expected = [build_twoata(phi).state_exprs for phi in formulas]

        def no_repr(self):
            raise AssertionError(f"repr of {type(self).__name__} called")

        for cls in (NFLabel, NFTop, NFNot, NFAnd, NFLoop, PathAutomaton):
            monkeypatch.setattr(cls, "__repr__", no_repr)
        built = [build_twoata(phi).state_exprs for phi in formulas]
        assert len(built[0]) == 814
        assert built == expected

    def test_order_ignores_hash_seed(self):
        code = (
            "import json, sys\n"
            "from repro.automata import build_twoata, nf_render\n"
            "from repro.xpath import parse_node\n"
            "memo = {}\n"
            "ata = build_twoata(parse_node(sys.argv[1]))\n"
            "print(json.dumps([nf_render(e, memo) for e in ata.state_exprs]))\n"
        )
        first, second = (
            json.loads(run_with_hash_seed(["-c", code, e1_family(2)], seed))
            for seed in (0, 1)
        )
        assert first == second
        assert first == rendered_states(build_twoata(parse_node(e1_family(2))))
        # Sorted by a rendering that tells every state apart.
        assert first == sorted(set(first))

    def test_order_ignores_interner_history(self):
        phi = parse_node(e1_family(2))
        before = rendered_states(build_twoata(phi))
        # Unrelated builds and emptiness checks grow the process-global
        # normal-form and automaton-base interners.
        for source in ("c and <up[d]> and not <up>", "<right[c]> and d"):
            decide_emptiness(build_twoata(parse_node(source)))
        assert rendered_states(build_twoata(phi)) == before
