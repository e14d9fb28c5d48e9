"""Tests for the rewriting lemmas: converse (§3.1) and the Figure 1
constructive inclusions."""

import random

import pytest

from repro.semantics import evaluate_nodes, evaluate_path
from repro.trees import random_tree
from repro.xpath import parse_node, parse_path
from repro.xpath.ast import (
    And,
    Complement,
    Filter,
    ForLoop,
    Intersect,
    Not,
    PathEquality,
    SomePath,
    Union,
)
from repro.xpath.measures import operators_used
from repro.xpath.rewrite import (
    complement_via_for,
    converse,
    eq_via_intersect,
    intersect_tests_via_eq,
    intersect_via_complement,
    intersect_via_eq,
    relativize_axes,
    substitute_label,
    union_via_complement,
)

from .helpers import random_node, random_path, relation_as_pairs


def inverse(pairs):
    return {(b, a) for (a, b) in pairs}


class TestConverse:
    @pytest.mark.parametrize("source", [
        "down", "up", "left", "right", "down*", "left*", ".",
        "down/right", "down union up*", "down[p]/left",
        "(down[p] union right)*", "down* intersect down/down",
        "down except down[p]",
    ])
    def test_converse_inverts_relation(self, source):
        rng = random.Random(21)
        path = parse_path(source)
        conv = converse(path)
        for _ in range(15):
            tree = random_tree(rng, 8, ["p", "q"])
            fwd = relation_as_pairs(evaluate_path(tree, path))
            bwd = relation_as_pairs(evaluate_path(tree, conv))
            assert bwd == inverse(fwd), source

    def test_converse_random(self):
        rng = random.Random(22)
        for _ in range(40):
            path = random_path(rng, 3, frozenset({"star", "cap"}))
            conv = converse(path)
            tree = random_tree(rng, 7, ["p", "q"])
            assert relation_as_pairs(evaluate_path(tree, conv)) == \
                inverse(relation_as_pairs(evaluate_path(tree, path)))

    def test_converse_involutive(self):
        rng = random.Random(23)
        for _ in range(30):
            path = random_path(rng, 3, frozenset({"star"}))
            tree = random_tree(rng, 6, ["p", "q"])
            assert evaluate_path(tree, converse(converse(path))) == \
                evaluate_path(tree, path)

    def test_for_loop_unsupported(self):
        with pytest.raises(ValueError):
            converse(parse_path("for $i in down return down[. is $i]"))


class TestFigure1Inclusions:
    """The constructive expressivity inclusions of Figure 1."""

    def test_eq_via_intersect(self):
        rng = random.Random(24)
        node = parse_node("eq(down*[p], down/down)")
        rewritten = eq_via_intersect(node)
        assert "eq" not in operators_used(rewritten)
        for _ in range(25):
            tree = random_tree(rng, 8, ["p", "q"])
            assert evaluate_nodes(tree, node) == evaluate_nodes(tree, rewritten)

    def test_intersect_via_eq_diagonal(self):
        # .[(α/β˘) ≈ .] is the test form of α ∩ β.
        rng = random.Random(25)
        path = parse_path("down*[p] intersect down/down")
        test_form = intersect_via_eq(path)
        assert "cap" not in operators_used(test_form)
        exists_direct = parse_node("<down*[p] intersect down/down>")
        for _ in range(25):
            tree = random_tree(rng, 8, ["p", "q"])
            diagonal = {
                source for source, targets
                in evaluate_path(tree, test_form).items() if targets
            }
            assert diagonal == evaluate_nodes(tree, exists_direct)

    @pytest.mark.parametrize("source, expected", [
        ("<down*[p] intersect down/down>", "eq(down*[p], down/down)"),
        ("<(up intersect up*[q])[p]>", "eq(up[p], up*[q])"),
        ("<(up intersect up*)[p][q]>", "eq(up[p][q], up*)"),
        ("q and not <right intersect right*[p]>",
         "q and not eq(right, right*[p])"),
        ("<down[<up intersect up[p]>]>", "<down[eq(up, up[p])]>"),
    ])
    def test_intersect_tests_via_eq(self, source, expected):
        node = parse_node(source)
        rewritten = intersect_tests_via_eq(node)
        assert rewritten == parse_node(expected)
        assert "cap" not in operators_used(rewritten)

    @pytest.mark.parametrize("source", [
        "<down/down[p]> and q",              # no ∩ at all
        "<down/(down intersect down[p])>",   # ∩ not directly under ⟨⟩
        "eq(down intersect up, down)",       # ∩ under ≈, not under ⟨⟩
    ])
    def test_intersect_tests_via_eq_keeps_the_object(self, source):
        node = parse_node(source)
        assert intersect_tests_via_eq(node) is node

    def test_intersect_tests_via_eq_preserves_semantics(self):
        rng = random.Random(29)
        for _ in range(60):
            meet = Intersect(random_path(rng, 2, frozenset({"cap"})),
                             random_path(rng, 2, frozenset({"cap"})))
            for phi in (SomePath(Filter(meet, random_node(rng, 1))),
                        And(random_node(rng, 1), Not(SomePath(meet)))):
                rewritten = intersect_tests_via_eq(phi)
                assert rewritten is not phi
                for _ in range(4):
                    tree = random_tree(rng, 7, ["p", "q"])
                    assert evaluate_nodes(tree, rewritten) == \
                        evaluate_nodes(tree, phi), phi

    def test_intersect_via_complement(self):
        rng = random.Random(26)
        path = Intersect(parse_path("down*"), parse_path("down/down"))
        rewritten = intersect_via_complement(path)
        assert "cap" not in operators_used(rewritten)
        for _ in range(25):
            tree = random_tree(rng, 8, ["p", "q"])
            assert evaluate_path(tree, path) == evaluate_path(tree, rewritten)

    def test_union_via_complement(self):
        rng = random.Random(27)
        path = Union(parse_path("down[p]"), parse_path("right*"))
        rewritten = union_via_complement(path)
        for _ in range(25):
            tree = random_tree(rng, 8, ["p", "q"])
            assert evaluate_path(tree, path) == evaluate_path(tree, rewritten)

    @pytest.mark.parametrize("downward", [True, False])
    def test_complement_via_for(self, downward):
        rng = random.Random(28)
        if downward:
            path = Complement(parse_path("down*"), parse_path("down*[p]"))
        else:
            path = Complement(parse_path("down/up"), parse_path(".[p]"))
        rewritten = complement_via_for(path, downward_only=downward)
        assert isinstance(rewritten, ForLoop)
        for _ in range(25):
            tree = random_tree(rng, 8, ["p", "q"])
            assert evaluate_path(tree, path) == evaluate_path(tree, rewritten)


class TestSubstitution:
    def test_substitute_label(self):
        expr = parse_node("p and <down[p]> and q")
        replaced = substitute_label(expr, "p", parse_node("q or r"))
        assert replaced == parse_node("(q or r) and <down[q or r]> and q")

    def test_substitute_inside_all_constructs(self):
        from repro.xpath.measures import labels_used
        expr = parse_path("for $i in down[p] return (down*[p] intersect .[p])")
        replaced = substitute_label(expr, "p", parse_node("not q"))
        assert labels_used(replaced) == {"q"}

    def test_relativize_axes(self):
        rng = random.Random(29)
        # Relativizing to ¬s on trees without s-labels is a no-op
        # semantically.
        expr = parse_path("down*/up[p] union right")
        guarded = relativize_axes(expr, parse_node("not s"))
        for _ in range(20):
            tree = random_tree(rng, 7, ["p", "q"])
            assert evaluate_path(tree, expr) == evaluate_path(tree, guarded)

    def test_relativize_blocks_guarded_nodes(self):
        from repro.trees import XMLTree
        tree = XMLTree.build(("a", ["s", "b"]))
        expr = parse_path("down")
        guarded = relativize_axes(expr, parse_node("not s"))
        assert relation_as_pairs(evaluate_path(tree, guarded)) == {(0, 2)}
