"""Abstract syntax of CoreXPath and all its extensions (Definition 3 + §2.2).

Two mutually recursive sorts:

* **Path expressions** (binary relations over tree nodes)::

      α ::= τ | τ* | . | α/β | α ∪ β | α[φ]           (CoreXPath, τ an axis)
          | α ∩ β                                      (path intersection)
          | α − β                                      (path complementation)
          | α*                                         (transitive closure)
          | for $i in α return β                       (iteration, §7)

* **Node expressions** (sets of tree nodes)::

      φ ::= p | ⟨α⟩ | ⊤ | ¬φ | φ ∧ ψ                   (CoreXPath, p a label)
          | α ≈ β                                      (path equality)
          | . is $i                                    (variable test, §7)

All AST classes are immutable, hashable dataclasses.  :func:`children` and
:func:`map_children` are the one description of each constructor's shape:
structural walks elsewhere visit and rebuild children through them instead
of matching on every constructor.  Derived connectives
(∨, ⇒, ⊥, every, τ⁺, ...) are provided as constructor functions in
:mod:`repro.xpath.builders` so that the *size* of an expression (§2.3) is
always the literal size of its syntax tree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Callable

__all__ = [
    "Axis",
    "PathExpr",
    "AxisStep",
    "AxisClosure",
    "Self",
    "Seq",
    "Union",
    "Filter",
    "Intersect",
    "Complement",
    "Star",
    "ForLoop",
    "NodeExpr",
    "Label",
    "SomePath",
    "Top",
    "Not",
    "And",
    "PathEquality",
    "VarIs",
    "Expr",
    "children",
    "map_children",
]


class Axis(enum.Enum):
    """The four basic axes of CoreXPath: ↓ (child), ↑ (parent), → (next
    sibling), ← (previous sibling).  Following Marx [2004] (and the paper),
    the non-transitive sibling axes are primitive."""

    DOWN = "down"
    UP = "up"
    RIGHT = "right"
    LEFT = "left"

    @property
    def converse(self) -> "Axis":
        return _CONVERSE[self]

    @property
    def symbol(self) -> str:
        return _SYMBOL[self]

    def __repr__(self) -> str:  # stable across enum re-imports, nice in tests
        return f"Axis.{self.name}"


_CONVERSE = {Axis.DOWN: Axis.UP, Axis.UP: Axis.DOWN,
             Axis.RIGHT: Axis.LEFT, Axis.LEFT: Axis.RIGHT}
_SYMBOL = {Axis.DOWN: "↓", Axis.UP: "↑",
           Axis.RIGHT: "→", Axis.LEFT: "←"}


class PathExpr:
    """Base class of path expressions.  Supports operator sugar:

    ``a / b`` composition, ``a | b`` union, ``a & b`` intersection,
    ``a - b`` complementation, ``a[phi]`` filter, ``a.star()`` closure.
    """

    # Storage for the memoized structural hash (see _install_cached_hash).
    __slots__ = ("_hash_value",)

    def __truediv__(self, other: "PathExpr") -> "Seq":
        return Seq(self, _as_path(other))

    def __or__(self, other: "PathExpr") -> "Union":
        return Union(self, _as_path(other))

    def __and__(self, other: "PathExpr") -> "Intersect":
        return Intersect(self, _as_path(other))

    def __sub__(self, other: "PathExpr") -> "Complement":
        return Complement(self, _as_path(other))

    def __getitem__(self, predicate: "NodeExpr") -> "Filter":
        return Filter(self, _as_node(predicate))

    def star(self) -> "Star":
        """The reflexive-transitive closure ``α*`` (§2.2, operator ``*``)."""
        return Star(self)

    def exists(self) -> "SomePath":
        """The node expression ``⟨α⟩``."""
        return SomePath(self)


class NodeExpr:
    """Base class of node expressions.  Supports ``~phi`` negation and
    ``phi & psi`` conjunction sugar."""

    # Storage for the memoized structural hash (see _install_cached_hash).
    __slots__ = ("_hash_value",)

    def __invert__(self) -> "Not":
        return Not(self)

    def __and__(self, other: "NodeExpr") -> "And":
        return And(self, _as_node(other))


def _as_path(value) -> "PathExpr":
    if not isinstance(value, PathExpr):
        raise TypeError(f"expected a path expression, got {value!r}")
    return value


def _as_node(value) -> "NodeExpr":
    if isinstance(value, str):
        return Label(value)
    if not isinstance(value, NodeExpr):
        raise TypeError(f"expected a node expression, got {value!r}")
    return value


# --------------------------------------------------------------------- paths


@dataclass(frozen=True, slots=True, repr=False)
class AxisStep(PathExpr):
    """A basic axis step ``τ`` for ``τ ∈ {↓, ↑, →, ←}``."""

    axis: Axis

    def __repr__(self) -> str:
        return f"AxisStep({self.axis!r})"


@dataclass(frozen=True, slots=True, repr=False)
class AxisClosure(PathExpr):
    """The reflexive-transitive closure ``τ*`` of a *basic axis*.

    This is part of plain CoreXPath (unlike :class:`Star`, which closes an
    arbitrary path expression and belongs to the ``*`` extension).
    """

    axis: Axis

    def __repr__(self) -> str:
        return f"AxisClosure({self.axis!r})"


@dataclass(frozen=True, slots=True, repr=False)
class Self(PathExpr):
    """The identity relation ``.``."""

    def __repr__(self) -> str:
        return "Self()"


@dataclass(frozen=True, slots=True, repr=False)
class Seq(PathExpr):
    """Composition ``α/β``."""

    left: PathExpr
    right: PathExpr

    def __repr__(self) -> str:
        return f"Seq({self.left!r}, {self.right!r})"


@dataclass(frozen=True, slots=True, repr=False)
class Union(PathExpr):
    """Union ``α ∪ β``."""

    left: PathExpr
    right: PathExpr

    def __repr__(self) -> str:
        return f"Union({self.left!r}, {self.right!r})"


@dataclass(frozen=True, slots=True, repr=False)
class Filter(PathExpr):
    """Filter ``α[φ]``: pairs of ``α`` whose target satisfies ``φ``."""

    path: PathExpr
    predicate: NodeExpr

    def __repr__(self) -> str:
        return f"Filter({self.path!r}, {self.predicate!r})"


@dataclass(frozen=True, slots=True, repr=False)
class Intersect(PathExpr):
    """Path intersection ``α ∩ β`` (extension ``∩``)."""

    left: PathExpr
    right: PathExpr

    def __repr__(self) -> str:
        return f"Intersect({self.left!r}, {self.right!r})"


@dataclass(frozen=True, slots=True, repr=False)
class Complement(PathExpr):
    """Path complementation ``α − β`` (extension ``−``)."""

    left: PathExpr
    right: PathExpr

    def __repr__(self) -> str:
        return f"Complement({self.left!r}, {self.right!r})"


@dataclass(frozen=True, slots=True, repr=False)
class Star(PathExpr):
    """Reflexive-transitive closure ``α*`` of an arbitrary path (extension ``*``)."""

    path: PathExpr

    def __repr__(self) -> str:
        return f"Star({self.path!r})"


@dataclass(frozen=True, slots=True, repr=False)
class ForLoop(PathExpr):
    """``for $var in source return body`` (extension ``for``, §7)."""

    var: str
    source: PathExpr
    body: PathExpr

    def __post_init__(self) -> None:
        if not self.var or self.var.startswith("$"):
            raise ValueError("variable names are stored without the '$' sigil")

    def __repr__(self) -> str:
        return f"ForLoop({self.var!r}, {self.source!r}, {self.body!r})"


# --------------------------------------------------------------------- nodes


@dataclass(frozen=True, slots=True, repr=False)
class Label(NodeExpr):
    """An atomic label test ``p`` for ``p ∈ Σ``."""

    name: str

    def __repr__(self) -> str:
        return f"Label({self.name!r})"


@dataclass(frozen=True, slots=True, repr=False)
class SomePath(NodeExpr):
    """``⟨α⟩``: the current node has an ``α``-successor."""

    path: PathExpr

    def __repr__(self) -> str:
        return f"SomePath({self.path!r})"


@dataclass(frozen=True, slots=True, repr=False)
class Top(NodeExpr):
    """The universally true node expression ``⊤``."""

    def __repr__(self) -> str:
        return "Top()"


@dataclass(frozen=True, slots=True, repr=False)
class Not(NodeExpr):
    """Negation ``¬φ``."""

    child: NodeExpr

    def __repr__(self) -> str:
        return f"Not({self.child!r})"


@dataclass(frozen=True, slots=True, repr=False)
class And(NodeExpr):
    """Conjunction ``φ ∧ ψ``."""

    left: NodeExpr
    right: NodeExpr

    def __repr__(self) -> str:
        return f"And({self.left!r}, {self.right!r})"


@dataclass(frozen=True, slots=True, repr=False)
class PathEquality(NodeExpr):
    """Path equality ``α ≈ β`` (extension ``≈``): some node is reachable by
    both ``α`` and ``β`` from the current node."""

    left: PathExpr
    right: PathExpr

    def __repr__(self) -> str:
        return f"PathEquality({self.left!r}, {self.right!r})"


@dataclass(frozen=True, slots=True, repr=False)
class VarIs(NodeExpr):
    """``. is $var``: the current node is the one bound to ``$var`` (§7)."""

    var: str

    def __post_init__(self) -> None:
        if not self.var or self.var.startswith("$"):
            raise ValueError("variable names are stored without the '$' sigil")

    def __repr__(self) -> str:
        return f"VarIs({self.var!r})"


#: Union type of the two sorts.
Expr = PathExpr | NodeExpr


def _install_cached_hash(cls: type) -> None:
    """Memoize the dataclass-generated ``__hash__`` in the ``_hash_value``
    slot of the base classes.

    The hash-consing tables in :mod:`repro.xpath.intern` use expressions as
    dict keys, so each node may be hashed many times; without memoization
    every lookup re-hashes the entire subtree, which is quadratic overall
    and — for the left-deep spines the normalizer builds — deep enough to
    overflow the interpreter stack.  With it, hashing a node whose children
    have been hashed before touches only that node.
    """
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return object.__getattribute__(self, "_hash_value")
        except AttributeError:
            value = field_hash(self)
            object.__setattr__(self, "_hash_value", value)
            return value

    cls.__hash__ = __hash__  # type: ignore[method-assign]


_CONSTRUCTORS = (AxisStep, AxisClosure, Self, Seq, Union, Filter, Intersect,
                 Complement, Star, ForLoop, Label, SomePath, Top, Not, And,
                 PathEquality, VarIs)

for _cls in _CONSTRUCTORS:
    _install_cached_hash(_cls)
del _cls

# ----------------------------------------------------------------- traversal

#: Each constructor's child fields in constructor order: the fields of an
#: expression sort.  Its other fields (an axis, a label, a variable name)
#: are data, which :func:`map_children` keeps.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls) if f.type in ("PathExpr", "NodeExpr"))
    for cls in _CONSTRUCTORS
}


def children(expr: Expr) -> tuple[Expr, ...]:
    """The immediate subexpressions of ``expr`` in constructor order
    (``()`` for a leaf); ``TypeError`` for a non-expression."""
    names = _CHILD_FIELDS.get(type(expr))
    if names is None:
        raise TypeError(f"unknown expression {expr!r}")
    if not names:
        return ()
    if len(names) == 1:
        return (getattr(expr, names[0]),)
    return (getattr(expr, names[0]), getattr(expr, names[1]))


def map_children(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """``expr``'s constructor rebuilt over ``fn`` of each child, in
    constructor order (``ForLoop.var`` is kept); ``expr`` itself when no
    child changed, and for a leaf.  ``TypeError`` for a non-expression.

    Recursive walks call this once per level, so it adds exactly one frame
    per level: it is unrolled by arity, with no comprehension or generator
    (either would add a frame of its own, and the deep chains the
    interner accepts would no longer fit its recursion limit).
    """
    names = _CHILD_FIELDS.get(type(expr))
    if names is None:
        raise TypeError(f"unknown expression {expr!r}")
    if not names:
        return expr
    a = getattr(expr, names[0])
    x = fn(a)
    if len(names) == 1:
        return expr if x is a else type(expr)(x)
    b = getattr(expr, names[1])
    y = fn(b)
    if x is a and y is b:
        return expr
    if type(expr) is ForLoop:
        return ForLoop(expr.var, x, y)
    return type(expr)(x, y)
