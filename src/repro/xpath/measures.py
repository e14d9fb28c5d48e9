"""Syntactic measures on expressions: size, intersection depth, inventories.

*Size* follows §2.3 exactly: the number of nodes in the syntax tree, i.e. the
total number of occurrences of constructors, labels, and atomic path
expressions.  *Intersection depth* follows the ``dd``/``d`` definitions just
before Lemma 17.
"""

from __future__ import annotations

from typing import Iterator

from .ast import (
    Axis,
    AxisClosure,
    AxisStep,
    Complement,
    Expr,
    Filter,
    ForLoop,
    Intersect,
    Label,
    NodeExpr,
    PathEquality,
    PathExpr,
    Self,
    Seq,
    Star,
    Union,
    VarIs,
    children,
)

__all__ = [
    "size",
    "dag_size",
    "intersection_depth",
    "direct_intersection_depth",
    "subexpressions",
    "node_subexpressions",
    "path_subexpressions",
    "labels_used",
    "axes_used",
    "operators_used",
    "free_variables",
]

def size(expr: Expr) -> int:
    """Number of nodes in the syntax tree of ``expr`` (§2.3).  An axis
    closure ``τ*`` is one node: the paper's grammar makes it atomic."""
    result = 1
    for child in children(expr):
        result += size(child)
    return result


def dag_size(expr: Expr) -> int:
    """Number of *distinct* subexpressions of ``expr``.

    This is what the interner actually materializes (one canonical node per
    distinct subexpression) and what the plan compiler allocates slots for;
    the rewrite pipeline's cost model ranks by :func:`size` first and this
    second, so sharing-increasing rewrites win ties."""
    return len(set(subexpressions(expr)))


def direct_intersection_depth(path: PathExpr) -> int:
    """``dd(α)``: nesting of ``∩`` not crossing into filter node expressions."""
    match path:
        case AxisStep() | AxisClosure() | Self():
            return 0
        case Seq(left=a, right=b) | Union(left=a, right=b) | Complement(left=a, right=b):
            return max(direct_intersection_depth(a), direct_intersection_depth(b))
        case Intersect(left=a, right=b):
            return max(direct_intersection_depth(a), direct_intersection_depth(b)) + 1
        case Filter(path=a):
            return direct_intersection_depth(a)
        case Star(path=a):
            return direct_intersection_depth(a)
        case ForLoop(source=a, body=b):
            return max(direct_intersection_depth(a), direct_intersection_depth(b))
    raise TypeError(f"unknown path expression {path!r}")


def intersection_depth(expr: Expr) -> int:
    """``d(α)``/``d(φ)``: max direct intersection depth of any path occurring
    anywhere in ``expr``, including inside filter node expressions."""
    best = 0
    for sub in subexpressions(expr):
        if isinstance(sub, PathExpr):
            best = max(best, direct_intersection_depth(sub))
    return best


def subexpressions(expr: Expr) -> Iterator[Expr]:
    """All subexpressions of ``expr`` (both sorts), including ``expr`` itself,
    in pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def node_subexpressions(expr: Expr) -> set[NodeExpr]:
    """The set ``sub(φ)`` of node subexpressions (§5), as a set."""
    return {sub for sub in subexpressions(expr) if isinstance(sub, NodeExpr)}


def path_subexpressions(expr: Expr) -> set[PathExpr]:
    return {sub for sub in subexpressions(expr) if isinstance(sub, PathExpr)}


def labels_used(expr: Expr) -> frozenset[str]:
    """All labels ``p ∈ Σ`` occurring in ``expr``."""
    return frozenset(
        sub.name for sub in subexpressions(expr) if isinstance(sub, Label)
    )


def axes_used(expr: Expr) -> frozenset[Axis]:
    """All basic axes occurring in ``expr`` (τ and τ* both count as τ)."""
    axes: set[Axis] = set()
    for sub in subexpressions(expr):
        if isinstance(sub, (AxisStep, AxisClosure)):
            axes.add(sub.axis)
    return frozenset(axes)


def operators_used(expr: Expr) -> frozenset[str]:
    """Which of the extensions ``{'eq', 'cap', 'minus', 'for', 'star'}`` occur.

    ``'eq'`` is ``≈``, ``'cap'`` is ``∩``, ``'minus'`` is ``−``, ``'star'``
    is general transitive closure (not τ*, which is CoreXPath)."""
    ops: set[str] = set()
    for sub in subexpressions(expr):
        if isinstance(sub, PathEquality):
            ops.add("eq")
        elif isinstance(sub, Intersect):
            ops.add("cap")
        elif isinstance(sub, Complement):
            ops.add("minus")
        elif isinstance(sub, (ForLoop, VarIs)):
            ops.add("for")
        elif isinstance(sub, Star):
            ops.add("star")
    return frozenset(ops)


def free_variables(expr: Expr) -> frozenset[str]:
    """Node variables occurring free in ``expr`` (§7 semantics)."""
    match expr:
        case VarIs(var=v):
            return frozenset({v})
        case ForLoop(var=v, source=a, body=b):
            return free_variables(a) | (free_variables(b) - {v})
    result: frozenset[str] = frozenset()
    for child in children(expr):
        result |= free_variables(child)
    return result
