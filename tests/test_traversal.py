"""The AST's shape in one place: :func:`children` and :func:`map_children`.

Every structural walk in :mod:`repro.xpath` (interning, normalization, the
rewrite passes, the measures and the rewrites) visits and rebuilds children
through these two functions.  The tests build one instance of every
constructor, so a constructor added to :mod:`repro.xpath.ast` without a
shape fails here rather than deep inside a rewrite, and they bound the call
frames a recursive walk spends per level: the interner's deep-chain
capacity depends on it.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.xpath import ast
from repro.xpath.ast import (
    And,
    Axis,
    AxisClosure,
    AxisStep,
    Complement,
    Filter,
    ForLoop,
    Intersect,
    Label,
    NodeExpr,
    Not,
    PathEquality,
    PathExpr,
    Self,
    Seq,
    SomePath,
    Star,
    Top,
    Union,
    VarIs,
    children,
    map_children,
)
from repro.xpath.passes import Pass

DOWN, UP = AxisStep(Axis.DOWN), AxisStep(Axis.UP)
P, Q = Label("p"), Label("q")

#: One instance of every constructor, with its children in constructor order.
INSTANCES = [
    (AxisStep(Axis.LEFT), ()),
    (AxisClosure(Axis.RIGHT), ()),
    (Self(), ()),
    (Seq(DOWN, UP), (DOWN, UP)),
    (Union(DOWN, UP), (DOWN, UP)),
    (Filter(DOWN, P), (DOWN, P)),
    (Intersect(DOWN, UP), (DOWN, UP)),
    (Complement(DOWN, UP), (DOWN, UP)),
    (Star(DOWN), (DOWN,)),
    (ForLoop("i", DOWN, UP), (DOWN, UP)),
    (Label("p"), ()),
    (SomePath(DOWN), (DOWN,)),
    (Top(), ()),
    (Not(P), (P,)),
    (And(P, Q), (P, Q)),
    (PathEquality(DOWN, UP), (DOWN, UP)),
    (VarIs("i"), ()),
]

_IDS = [type(expr).__name__ for expr, _ in INSTANCES]


def _exported_constructors() -> set[type]:
    exported = (getattr(ast, name) for name in ast.__all__)
    return {value for value in exported
            if isinstance(value, type)
            and issubclass(value, (PathExpr, NodeExpr))
            and value not in (PathExpr, NodeExpr)}


def test_instances_cover_every_exported_constructor():
    """A new constructor needs an instance here, and so a shape."""
    assert {type(expr) for expr, _ in INSTANCES} == _exported_constructors()


@pytest.mark.parametrize("expr, expected", INSTANCES, ids=_IDS)
def test_children_in_constructor_order(expr, expected):
    assert children(expr) == expected
    assert all(got is want for got, want in zip(children(expr), expected))


@pytest.mark.parametrize("expr, expected", INSTANCES, ids=_IDS)
def test_identity_map_returns_the_node_itself(expr, expected):
    assert map_children(expr, lambda child: child) is expr


def _renamed(child):
    """A distinct replacement of the same sort as ``child``."""
    return Seq(child, Self()) if isinstance(child, PathExpr) \
        else And(child, Top())


@pytest.mark.parametrize("expr, expected", INSTANCES, ids=_IDS)
def test_renaming_rebuilds_the_constructor_and_keeps_its_data(expr,
                                                              expected):
    rebuilt = map_children(expr, _renamed)
    if not expected:
        assert rebuilt is expr
        return
    assert type(rebuilt) is type(expr)
    assert children(rebuilt) == tuple(_renamed(child) for child in expected)
    for field in dataclasses.fields(expr):
        value = getattr(expr, field.name)
        if not isinstance(value, (PathExpr, NodeExpr)):
            assert getattr(rebuilt, field.name) == value  # ForLoop.var


def test_renaming_keeps_the_loop_variable():
    rebuilt = map_children(ForLoop("x", DOWN, UP), _renamed)
    assert rebuilt == ForLoop("x", _renamed(DOWN), _renamed(UP))


@pytest.mark.parametrize("value", ["down", 42, None, PathExpr(), NodeExpr()],
                         ids=["str", "int", "None", "PathExpr", "NodeExpr"])
def test_non_expressions_raise_type_error(value):
    with pytest.raises(TypeError, match="unknown expression"):
        children(value)
    with pytest.raises(TypeError, match="unknown expression"):
        map_children(value, lambda child: child)


# ---------------------------------------------------------- frame budget

LEVELS = 50


def _deep(levels: int = LEVELS) -> NodeExpr:
    """A ``levels``-deep expression whose deepest leaf is the label ``p``;
    each round adds two levels through a unary and a binary constructor."""
    expr: NodeExpr = Label("p")
    for index in range(levels // 2):
        if index % 2:
            expr = Not(And(Top(), expr))
        else:
            expr = SomePath(Filter(Seq(DOWN, UP), expr))
    return expr


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_recursive_walk_spends_at_most_two_frames_per_level():
    depths = {}

    def walk(expr):
        depths[expr] = _frame_depth()
        return map_children(expr, walk)

    expr = _deep()
    walk(expr)
    assert depths[Label("p")] - depths[expr] <= 2 * LEVELS


def test_pass_walk_spends_at_most_two_frames_per_level():
    """``Pass._walk`` recurses through ``map_children`` with a
    ``functools.partial``; a lambda or a comprehension in between would
    double its frames per level."""
    depths = {}

    def probe(expr, alphabet):
        depths[expr] = _frame_depth()
        return None

    expr = _deep()
    Pass("probe", rule=probe).apply(expr, None, [0])
    assert depths[Label("p")] - depths[expr] <= 2 * LEVELS
