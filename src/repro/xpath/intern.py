"""Hash-consing and normalization of expressions.

Two facilities that give every expression a *stable structural identity*:

* :func:`intern_expr` — hash-consing.  Structurally equal expressions are
  collapsed onto one shared immutable instance, and every canonical instance
  carries a dense integer :func:`intern_key`.  Downstream memo tables
  (the evaluator, the plan cache) key on these integers instead of ``id()``
  of arbitrary short-lived objects, so cache identity no longer depends on
  callers keeping AST objects alive.
* :func:`normalize` — a semantics-preserving canonicalization pass: flatten,
  sort and deduplicate the commutative/associative connectives (``∪``,
  ``∧``, ``∩``), collapse the unit laws ``./α = α/. = α`` and ``α[⊤] = α``,
  and cancel double negation ``¬¬φ = φ``.  Normal forms are interned and
  idempotent: ``normalize(normalize(e)) is normalize(e)``.  Operands are
  sorted by their source text, a structural key, so a normal form (and the
  verdict-cache key built from it) is the same in every process, whatever
  each interned first.

Both tables are process-global and monotone: canonical nodes are kept alive
for the lifetime of the process, which is what makes ``id``-free integer
keys sound.  The size of the tables is bounded by the number of *distinct*
subexpressions ever seen, which for the workloads in this repository is
small (thousands, not millions).

Interning and normalization visit and rebuild children through
:func:`~repro.xpath.ast.map_children`; only the normalizer's rewrite rules
match on constructors.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Callable

from .ast import (
    And,
    Expr,
    Filter,
    Intersect,
    Not,
    Self,
    Seq,
    Star,
    Top,
    Union,
    map_children,
)
from .printer import to_source

__all__ = [
    "DenseInterner",
    "intern_expr",
    "intern_key",
    "is_interned",
    "normalize",
    "free_variables_cached",
    "interned_count",
]


class DenseInterner:
    """A generic dense-key hash-consing table.

    The discipline is the one this module applies to expression ASTs:
    structurally equal (hashable) values collapse onto one canonical
    instance which is kept alive for the lifetime of the table, and every
    canonical instance carries a dense integer key assigned in first-seen
    order.  Downstream memo tables key on these integers instead of
    hashing deep structures repeatedly (or relying on ``id()`` of
    short-lived objects).  Other layers — notably the automata core
    (:mod:`repro.automata.core`) — instantiate their own tables for their
    own value universes.
    """

    __slots__ = ("_table", "_keys", "_lock")

    def __init__(self) -> None:
        self._table: dict = {}
        self._keys: dict[int, int] = {}
        self._lock = threading.RLock()

    def canonical(self, value):
        """The canonical shared instance structurally equal to ``value``."""
        with self._lock:
            hit = self._table.get(value)
            if hit is None:
                self._table[value] = value
                self._keys[id(value)] = len(self._keys)
                hit = value
            return hit

    def key(self, value) -> int:
        """A dense process-stable integer identifying ``value`` up to
        structural equality."""
        with self._lock:
            return self._keys[id(self.canonical(value))]

    def __len__(self) -> int:
        return len(self._table)

_lock = threading.RLock()


def _after_fork_in_child() -> None:
    # A parent thread interning at fork time would leave the child's copy
    # of the lock held forever.
    global _lock
    _lock = threading.RLock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_after_fork_in_child)

#: Interning walks the AST recursively; generated formulas (DTD encodings,
#: the Theorem 30 reductions) nest deeply enough to exceed CPython's
#: default 1000-frame limit, so the public entry points guarantee headroom.
_MIN_RECURSION_LIMIT = 20_000


def _ensure_recursion_headroom() -> None:
    if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
        sys.setrecursionlimit(_MIN_RECURSION_LIMIT)

#: structural value -> canonical instance (the hash-consing table).
_TABLE: dict[Expr, Expr] = {}
#: id(canonical) -> dense integer key.  Safe: _TABLE keeps canonicals alive.
_KEYS: dict[int, int] = {}
#: id(canonical) -> canonical normal form (already interned).
_NORMAL: dict[int, Expr] = {}
#: id(canonical) -> free node variables of the expression.
_FREE_VARS: dict[int, frozenset[str]] = {}


def interned_count() -> int:
    """Number of distinct canonical expressions interned so far."""
    return len(_TABLE)


def is_interned(expr: Expr) -> bool:
    """True iff ``expr`` is itself the canonical instance of its value."""
    return _TABLE.get(expr) is expr


def _canon(expr: Expr) -> Expr:
    """Intern a node whose children are already canonical."""
    canonical = _TABLE.get(expr)
    if canonical is None:
        _TABLE[expr] = expr
        _KEYS[id(expr)] = len(_KEYS)
        canonical = expr
    return canonical


def intern_expr(expr: Expr) -> Expr:
    """The canonical shared instance structurally equal to ``expr``."""
    with _lock:
        _ensure_recursion_headroom()
        return _intern(expr)


def _intern(expr: Expr) -> Expr:
    hit = _TABLE.get(expr)
    if hit is not None:
        return hit
    return _canon(map_children(expr, _intern))


def intern_key(expr: Expr) -> int:
    """A dense process-stable integer identifying ``expr`` up to structure."""
    with _lock:
        _ensure_recursion_headroom()
        return _KEYS[id(_intern(expr))]


def free_variables_cached(expr: Expr) -> frozenset[str]:
    """Free node variables of ``expr``, cached on the canonical instance."""
    with _lock:
        canonical = _intern(expr)
        cached = _FREE_VARS.get(id(canonical))
        if cached is None:
            from .measures import free_variables

            cached = free_variables(canonical)
            _FREE_VARS[id(canonical)] = cached
        return cached


# ------------------------------------------------------------- normalization


def _flatten(expr: Expr, ctor: type) -> list[Expr]:
    """Leaves of a (left- or right-leaning) ``ctor`` spine."""
    out: list[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ctor):
            stack.append(node.right)  # type: ignore[attr-defined]
            stack.append(node.left)  # type: ignore[attr-defined]
        else:
            out.append(node)
    return out


#: id(canonical operand) -> its source text, the operand sort key.
_SORT_KEY: dict[int, str] = {}


def _sort_key(part: Expr) -> str:
    """The order of ``∪``/``∧``/``∩`` operands: their source text, a pure
    function of structure.  An intern key would order operands by first
    sight, which differs between processes."""
    key = _SORT_KEY.get(id(part))
    if key is None:
        key = _SORT_KEY[id(part)] = to_source(part)
    return key


def _normalized_parts(expr: Expr, ctor: type) -> list[Expr]:
    """Normalized leaves of a ``ctor`` spine, re-flattened (a leaf may itself
    normalize to a ``ctor`` node), deduplicated (idempotence) and sorted by
    :func:`_sort_key` (commutativity)."""
    flat: list[Expr] = []
    for part in _flatten(expr, ctor):
        normal = _normalize(part)
        if isinstance(normal, ctor):
            flat.extend(_flatten(normal, ctor))
        else:
            flat.append(normal)
    # Parts are interned, so identity is structural equality.
    unique = {id(part): part for part in flat}
    return sorted(unique.values(), key=_sort_key)


def _rebuild(parts: list[Expr], ctor: Callable[[Expr, Expr], Expr]) -> Expr:
    """Left-deep spine over the already-normalized, sorted parts."""
    result = parts[0]
    for part in parts[1:]:
        result = _canon(ctor(result, part))
    return result


def normalize(expr: Expr) -> Expr:
    """The canonical normal form of ``expr`` (interned, idempotent).

    The pass is purely semantics-preserving — ``[[normalize(e)]] = [[e]]``
    on every tree and assignment — so engines may evaluate the normal form
    in place of the original.  Syntactic measures (``size``, fragments)
    should keep being computed on the original expression.
    """
    with _lock:
        _ensure_recursion_headroom()
        return _normalize(_intern(expr))


def _normalize(expr: Expr) -> Expr:
    cached = _NORMAL.get(id(expr))
    if cached is not None:
        return cached
    match expr:
        case Seq(left=a, right=b):
            a, b = _normalize(a), _normalize(b)
            if isinstance(a, Self):
                result = b
            elif isinstance(b, Self):
                result = a
            else:
                result = _canon(Seq(a, b))
        case Union():
            result = _rebuild(_normalized_parts(expr, Union), Union)
        case Intersect():
            result = _rebuild(_normalized_parts(expr, Intersect), Intersect)
        case Filter(path=a, predicate=p):
            a, p = _normalize(a), _normalize(p)
            result = a if isinstance(p, Top) else _canon(Filter(a, p))
        case Star(path=a):
            a = _normalize(a)
            if isinstance(a, (Star, Self)):
                result = a  # (α*)* = α* and .* = . (closures are reflexive).
            else:
                result = _canon(Star(a))
        case Not(child=c):
            c = _normalize(c)
            result = c.child if isinstance(c, Not) else _canon(Not(c))
        case And():
            result = _rebuild(_normalized_parts(expr, And), And)
        case _:  # no rule at this node: normalize the children
            result = _canon(map_children(expr, _normalize))
    _NORMAL[id(expr)] = result
    # A normal form is its own normal form (idempotence).
    _NORMAL.setdefault(id(result), result)
    return result
