"""Equivalence- and satisfiability-preserving rewritings on expressions.

Implements the syntactic transformations the paper uses as lemmas:

* :func:`converse` — the converse ``α˘`` of a CoreXPath(*, ≈) path
  expression (§3.1, item (1)).
* :func:`eq_via_intersect` / :func:`intersect_via_complement` /
  :func:`complement_via_for` / :func:`union_via_complement` — the
  constructive inclusions behind the Figure 1 hierarchy.
* :func:`intersect_tests_via_eq` — the inverse of ``eq_via_intersect``,
  applied to every ``⟨α ∩ β⟩`` test of an expression.
* :func:`substitute_label` — uniform replacement of an atomic label by a
  node expression (used by `let` elimination and the Prop. 4/5/6 reductions).
* :func:`relativize_axes` — replace every axis ``τ`` by ``τ[γ]`` (and ``τ*``
  by ``τ*[γ]``), making an expression blind to guard-violating *endpoints*.
"""

from __future__ import annotations

from .ast import (
    AxisClosure,
    AxisStep,
    Complement,
    Expr,
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
    Union,
    VarIs,
    map_children,
)
from .builders import down_star, up_star
from .measures import subexpressions

__all__ = [
    "converse",
    "eq_via_intersect",
    "intersect_tests_via_eq",
    "intersect_via_eq",
    "intersect_via_complement",
    "union_via_complement",
    "complement_via_for",
    "universal_path",
    "substitute_label",
    "relativize_axes",
    "map_paths",
]

#: ``U := ↑*/↓*`` — the universal relation on a tree (§2.2).
universal_path = Seq(up_star, down_star)


def converse(path: PathExpr) -> PathExpr:
    """The converse ``α˘`` with ``[[α˘]] = {(m, n) | (n, m) ∈ [[α]]}``.

    Defined for path expressions without ``for`` (the paper defines it for
    CoreXPath(*, ≈); we additionally let it distribute over ``∩`` and ``−``,
    which is sound since converse commutes with intersection and difference).
    """
    match path:
        case AxisStep(axis=a):
            return AxisStep(a.converse)
        case AxisClosure(axis=a):
            return AxisClosure(a.converse)
        case Self():
            return Self()
        case Seq(left=a, right=b):
            return Seq(converse(b), converse(a))
        case Union(left=a, right=b):
            return Union(converse(a), converse(b))
        case Intersect(left=a, right=b):
            return Intersect(converse(a), converse(b))
        case Complement(left=a, right=b):
            return Complement(converse(a), converse(b))
        case Filter(path=a, predicate=p):
            # (α[φ])˘ = .[φ]/α˘
            return Seq(Filter(Self(), p), converse(a))
        case Star(path=a):
            return Star(converse(a))
        case ForLoop():
            raise ValueError("converse is not defined for for-loops")
    raise TypeError(f"unknown path expression {path!r}")


def eq_via_intersect(node: PathEquality) -> SomePath:
    """``α ≈ β  ≡  ⟨α ∩ β⟩`` (§2.2): path equality via path intersection."""
    return SomePath(Intersect(node.left, node.right))


def intersect_tests_via_eq(expr: Expr) -> Expr:
    """The inverse of :func:`eq_via_intersect`, wherever it applies: every
    ``⟨(α ∩ β)[φ]⟩`` in ``expr`` becomes ``α[φ] ≈ β`` and every
    ``⟨α ∩ β⟩`` becomes ``α ≈ β`` (a chain of filters moves onto ``α``).

    Sound by §2.2: both sides hold at ``n`` iff some ``m`` satisfying
    ``φ`` is reached from ``n`` by both ``α`` and ``β``.  It lets the 2ATA
    engine, which decides CoreXPath(*, ≈), take an intersection directly
    under an existential test; ``∩`` anywhere else is left alone.  Returns
    ``expr`` itself when nothing changes, without walking it when no
    ``∩`` occurs.
    """
    if not any(isinstance(sub, Intersect) for sub in subexpressions(expr)):
        return expr

    def walk(e: Expr) -> Expr:
        e = map_children(e, walk)
        if not isinstance(e, SomePath):
            return e
        core, predicates = e.path, []
        while isinstance(core, Filter):
            predicates.append(core.predicate)
            core = core.path
        if not isinstance(core, Intersect):
            return e
        left = core.left
        for predicate in reversed(predicates):
            left = Filter(left, predicate)
        return PathEquality(left, core.right)

    return walk(expr)


def intersect_via_eq(path: Intersect) -> PathExpr:
    """Express ``⟨α ∩ β⟩``-style *tests* via ≈ is direct; for the *relation*
    the paper's §3.1 route is ``loop``: ``α ∩ β`` has no direct ≈ equivalent
    as a path, but ``loop(α/β˘) = (α/β˘) ≈ .`` captures ``⟨α ∩ β⟩``.

    This helper returns ``.[ (α/β˘) ≈ . ]`` — the *test* form, a path
    expression whose diagonal is exactly the set of nodes where α and β meet.
    """
    meet = PathEquality(Seq(path.left, converse(path.right)), Self())
    return Filter(Self(), meet)


def intersect_via_complement(path: Intersect) -> Complement:
    """``α ∩ β  ≡  α − (α − β)`` (§7, proof of Theorem 30)."""
    return Complement(path.left, Complement(path.left, path.right))


def union_via_complement(path: Union) -> PathExpr:
    """``α ∪ β ≡ U − ((U − α) ∩ (U − β))`` with ``U = ↑*/↓*`` (§2.2),
    where the inner ``∩`` is itself expanded via complementation."""
    not_left = Complement(universal_path, path.left)
    not_right = Complement(universal_path, path.right)
    meet = intersect_via_complement(Intersect(not_left, not_right))
    return Complement(universal_path, meet)


def complement_via_for(path: Complement, var: str = "i",
                       downward_only: bool = False) -> ForLoop:
    """``α − β`` via a one-variable for-loop (proof of Theorem 31)::

        for $i in α return .[¬⟨β[. is $i]⟩]/travel[. is $i]

    where ``travel`` is ``↓*`` when both operands are downward
    (``downward_only=True``, exactly the paper's statement) and the universal
    ``↑*/↓*`` otherwise, which generalizes the same idea to all axes.
    """
    travel: PathExpr = down_star if downward_only else universal_path
    guard = Filter(Self(), Not(SomePath(Filter(path.right, VarIs(var)))))
    return ForLoop(var, path.left, Seq(guard, Filter(travel, VarIs(var))))


def substitute_label(expr: Expr, name: str, replacement: NodeExpr) -> Expr:
    """Uniformly replace the atomic label ``name`` by ``replacement``."""

    def walk(e: Expr) -> Expr:
        if isinstance(e, Label):
            return replacement if e.name == name else e
        return map_children(e, walk)

    return walk(expr)


def relativize_axes(expr: Expr, guard: NodeExpr) -> Expr:
    """Replace every axis ``τ`` with ``τ[guard]`` and ``τ*`` with ``τ*[guard]``.

    This filters the *endpoints* of axis steps, which is the transformation
    used in Propositions 4/5 and Lemma 18 — there the guard excludes a set of
    auxiliary nodes that are structurally guaranteed (root-only or
    rightmost-leaf-only) never to occur strictly inside a surviving ``τ*``
    path, so endpoint filtering equals true relativization.
    """

    def walk(e: Expr) -> Expr:
        if isinstance(e, (AxisStep, AxisClosure)):
            return Filter(e, guard)
        return map_children(e, walk)

    return walk(expr)


def map_paths(expr: Expr, transform) -> Expr:
    """Rebuild ``expr`` bottom-up, applying ``transform`` to every *path*
    subexpression after its children have been rebuilt.  ``transform`` must
    accept and return a path expression; identity is expressed by returning
    the argument unchanged."""

    def walk(e: Expr) -> Expr:
        rebuilt = map_children(e, walk)
        return transform(rebuilt) if isinstance(e, PathExpr) else rebuilt

    return walk(expr)
