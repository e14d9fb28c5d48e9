"""Tests for the XPath AST, parser, printers, and measures (§2.2, §2.3)."""

import random

import pytest

from repro.xpath import (
    Axis,
    AxisClosure,
    AxisStep,
    Complement,
    Filter,
    ForLoop,
    Intersect,
    Label,
    Not,
    PathEquality,
    Self,
    Seq,
    SomePath,
    Star,
    Top,
    Union,
    VarIs,
    XPathSyntaxError,
    axes_used,
    direct_intersection_depth,
    free_variables,
    intersection_depth,
    labels_used,
    operators_used,
    parse_node,
    parse_path,
    size,
    to_paper,
    to_source,
)
from repro.xpath.builders import (
    bottom,
    down,
    down_plus,
    every,
    following,
    iff,
    implies,
    or_,
    preceding,
    repeat,
    seq_all,
    union_all,
)

from .helpers import random_node, random_path


class TestParser:
    @pytest.mark.parametrize("source, expected", [
        ("down", AxisStep(Axis.DOWN)),
        ("up*", AxisClosure(Axis.UP)),
        (".", Self()),
        ("down/up", Seq(AxisStep(Axis.DOWN), AxisStep(Axis.UP))),
        ("down union right", Union(AxisStep(Axis.DOWN), AxisStep(Axis.RIGHT))),
        ("down intersect up", Intersect(AxisStep(Axis.DOWN), AxisStep(Axis.UP))),
        ("down except up", Complement(AxisStep(Axis.DOWN), AxisStep(Axis.UP))),
        ("down[p]", Filter(AxisStep(Axis.DOWN), Label("p"))),
        ("(down)*", Star(AxisStep(Axis.DOWN))),
        ("down+", Seq(AxisStep(Axis.DOWN), AxisClosure(Axis.DOWN))),
    ])
    def test_path_forms(self, source, expected):
        assert parse_path(source) == expected

    def test_over_deep_nesting_is_a_syntax_error(self):
        deep = "<down[" * 5000 + "p" + "]>" * 5000
        with pytest.raises(XPathSyntaxError, match="nests too deeply"):
            parse_node(deep)
        with pytest.raises(XPathSyntaxError, match="nests too deeply"):
            parse_path(f"down[{deep}]")

    def test_for_loop(self):
        parsed = parse_path("for $x in down return down[. is $x]")
        assert parsed == ForLoop(
            "x", AxisStep(Axis.DOWN),
            Filter(AxisStep(Axis.DOWN), VarIs("x")),
        )

    @pytest.mark.parametrize("source, expected", [
        ("p", Label("p")),
        ("true", Top()),
        ("false", Not(Top())),
        ("not p", Not(Label("p"))),
        ("p and q", Label("p") & Label("q")),
        ("<down>", SomePath(AxisStep(Axis.DOWN))),
        ("eq(down, up)", PathEquality(AxisStep(Axis.DOWN), AxisStep(Axis.UP))),
        (". is $v", VarIs("v")),
    ])
    def test_node_forms(self, source, expected):
        assert parse_node(source) == expected

    def test_or_expands(self):
        assert parse_node("p or q") == or_(Label("p"), Label("q"))

    def test_precedence(self):
        # '/' binds tighter than intersect, which binds tighter than except,
        # which binds tighter than union.
        parsed = parse_path("down/up intersect left union right except .")
        assert isinstance(parsed, Union)
        assert isinstance(parsed.right, Complement)
        assert isinstance(parsed.left, Intersect)
        assert isinstance(parsed.left.left, Seq)

    def test_quoted_labels(self):
        assert parse_node("'weird label'") == Label("weird label")
        assert parse_node(r"'it\'s'") == Label("it's")

    def test_keyword_labels_need_quotes(self):
        with pytest.raises(XPathSyntaxError):
            parse_node("union")
        assert parse_node("'union'") == Label("union")

    @pytest.mark.parametrize("bad", [
        "down[", "down union", "(down", "for $x down", "", "down]",
        "eq(down)", ". is x",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(XPathSyntaxError):
            parse_path(bad)


class TestPrinterRoundtrip:
    @pytest.mark.parametrize("ops", [
        frozenset(), frozenset({"eq"}), frozenset({"cap", "star"}),
        frozenset({"minus"}),
    ])
    def test_random_paths_roundtrip(self, ops):
        rng = random.Random(17)
        for _ in range(60):
            path = random_path(rng, 3, ops)
            assert parse_path(to_source(path)) == path

    def test_random_nodes_roundtrip(self):
        rng = random.Random(18)
        for _ in range(60):
            node = random_node(rng, 3, frozenset({"eq"}))
            assert parse_node(to_source(node)) == node

    def test_for_loop_roundtrip(self):
        path = ForLoop("i", AxisStep(Axis.DOWN),
                       Filter(Self(), VarIs("i")))
        assert parse_path(to_source(path)) == path

    def test_paper_notation(self):
        assert to_paper(parse_path("down*[p] intersect up")) == "↓*[p] ∩ ↑"
        assert to_paper(parse_node("not (p and true)")) == "¬(p ∧ ⊤)"
        assert to_paper(parse_node("eq(down, .)")) == "↓ ≈ ."
        assert to_paper(parse_node("false")) == "⊥"


class TestMeasures:
    def test_size_matches_paper_definition(self):
        # ↓⁺[p ∧ ¬⟨↓[q]⟩] from §2.2: ↓/↓* (3) + filter (1) + p (1) + ∧ (1)
        # + ¬ (1) + ⟨⟩ (1) + ↓ (1) + filter (1) + q (1) = 11.
        expr = parse_path("down+[p and not <down[q]>]")
        assert size(expr) == 11

    def test_intersection_depth(self):
        assert direct_intersection_depth(parse_path("down intersect up")) == 1
        nested = parse_path("(down intersect up) intersect left")
        assert direct_intersection_depth(nested) == 2
        flat = parse_path("(down intersect up)/(down intersect up)")
        assert direct_intersection_depth(flat) == 1
        inside_filter = parse_path("down[<down intersect up>]")
        assert direct_intersection_depth(inside_filter) == 0
        assert intersection_depth(inside_filter) == 1

    def test_labels_axes_operators(self):
        expr = parse_node("eq(down*[p], right) and not q")
        assert labels_used(expr) == {"p", "q"}
        assert axes_used(expr) == {Axis.DOWN, Axis.RIGHT}
        assert operators_used(expr) == {"eq"}

    def test_free_variables(self):
        open_expr = parse_path("down[. is $x]")
        assert free_variables(open_expr) == {"x"}
        closed = parse_path("for $x in down return down[. is $x]")
        assert free_variables(closed) == frozenset()
        shadow = parse_path("for $x in down[. is $x] return .")
        assert free_variables(shadow) == {"x"}  # free in the source clause


class TestBuilders:
    def test_every_is_negated_exists(self):
        assert every(down, Label("p")) == \
            Not(SomePath(Filter(down, Not(Label("p")))))

    def test_implies_iff_bottom(self):
        p, q = Label("p"), Label("q")
        assert implies(p, q) == Not(p & Not(q))
        assert bottom == Not(Top())
        assert iff(p, q) == implies(p, q) & implies(q, p)

    def test_repeat(self):
        assert repeat(down, 0) == Self()
        assert repeat(down, 3) == Seq(Seq(down, down), down)
        with pytest.raises(ValueError):
            repeat(down, -1)

    def test_seq_union_all(self):
        assert seq_all([]) == Self()
        assert isinstance(union_all([]), Filter)  # the empty relation

    def test_following_preceding_shapes(self):
        # ↑*/→⁺/↓* with →⁺ = →/→* (right-nested composition).
        assert to_paper(following) == "↑*/(→/→*/↓*)"
        assert to_paper(preceding) == "↑*/(←/←*/↓*)"
        assert down_plus == Seq(down, AxisClosure(Axis.DOWN))


class TestOperatorSugar:
    def test_path_sugar(self):
        assert down / down == Seq(down, down)
        assert (down | down) == Union(down, down)
        assert (down & down) == Intersect(down, down)
        assert (down - down) == Complement(down, down)
        assert down["p"] == Filter(down, Label("p"))
        assert down.star() == Star(down)
        assert down.exists() == SomePath(down)

    def test_node_sugar(self):
        p = Label("p")
        assert ~p == Not(p)
        assert (p & "q") == (p & Label("q"))

    def test_variable_names_without_sigil(self):
        with pytest.raises(ValueError):
            VarIs("$x")
        with pytest.raises(ValueError):
            ForLoop("$x", down, down)
