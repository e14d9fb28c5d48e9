"""The rewrite pass manager: cost-guided canonicalization of interned ASTs.

Simplification used to be scattered over four layers — ``intern.normalize``,
``analysis.optimize``'s union rebuilding, ad-hoc cleanup in the automata
normal form, and per-engine tricks — each reimplementing overlapping rule
subsets and none running systematically before dispatch.  This module
consolidates them into one pipeline:

* A :class:`Pass` is a *named, declared, semantics-preserving* rule set.
  Local passes rewrite one node at a time (bottom-up, children already
  rewritten through :func:`~repro.xpath.ast.map_children`, so the walk
  knows no constructor shapes); whole-expression passes (the
  :func:`~repro.xpath.intern.normalize` wrapper) transform the root in one
  shot.  Every rule is an equivalence of the paper's semantics —
  ``[[rewrite(e)]] = [[e]]`` on every tree and assignment — so engines may
  decide the canonical form in place of the original.
* A :class:`Pipeline` is an ordered pass list run to a **cost-guided
  fixpoint**: after each pass the result is kept only if its cost — the
  tuple ``(size, dag_size)`` from :mod:`repro.xpath.measures` — did not
  increase.  Rounds repeat until no pass fires (bounded by ``max_rounds``).
* Three registered levels (:data:`PIPELINES`): ``none`` (intern only),
  ``basic`` (pipeline level 0 — exactly ``intern.normalize``), and ``full``
  (normalize plus the whole rule catalog).  Every engine sees the
  session default level, set by the CLI's ``--passes`` flag
  (:func:`set_default_pipeline`).

Rule catalog of the ``full`` level (each pass individually verified against
the reference evaluator in ``tests/test_passes.py``):

``normalize``      flatten/sort/dedupe ``∪ ∧ ∩``, unit laws, ``¬¬φ = φ``.
``dead-labels``    ``p → ⊥`` for labels outside the schema alphabet.
``booleans``       ``⊥``/``⊤`` propagation in ``∧``, ``φ ∧ ¬φ → ⊥``,
                   ``α ≈ α → ⟨α⟩``, ``⟨α⟩ → ⊤`` when ``α`` contains the
                   identity, ``⟨∅⟩ → ⊥``.
``path-units``     the empty path ``∅ ≡ .[⊥]`` propagates through every
                   path constructor (``∅/α = ∅``, ``α ∪ ∅ = α``, ...).
``star-algebra``   ``(τ)* → τ*``, ``(τ*)* → τ*``, ``(α ∪ .)* = α*``,
                   ``(.[φ])* = .``.
``filters``        predicate hoisting/fusion: ``α[φ][ψ] = α[φ ∧ ψ]``,
                   ``α/.[φ] = α[φ]``, and ``Seq``-spine fusion
                   ``τ*/τ* = τ*``, ``α*/α* = α*``.
``subsumption``    union factoring (drop members subsumed by a sibling)
                   and its duals for ``∩`` and ``−``.

Observability: every accepted pass application counts
``rewrite.pass.<name>.fired`` and adds the expression sizes to
``rewrite.pass.<name>.nodes_before`` / ``.nodes_after``; rejected (cost-
increasing) applications count ``rewrite.pass.<name>.rejected``.

Canonical forms are memoized process-globally per ``(level, alphabet)`` on
the interned identity of the input, so re-canonicalizing — the engine
registry does it once per dispatch, the plan compiler once per compile —
is a dictionary hit.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

from .. import obs
from .ast import (
    And,
    AxisClosure,
    AxisStep,
    Complement,
    Expr,
    Filter,
    ForLoop,
    Intersect,
    Label,
    Not,
    PathEquality,
    PathExpr,
    Self,
    Seq,
    SomePath,
    Star,
    Top,
    Union,
    children,
    map_children,
)
from .intern import _flatten, intern_expr, normalize
from .measures import size

__all__ = [
    "FALSE",
    "EMPTY_PATH",
    "Pass",
    "PassStats",
    "Pipeline",
    "PIPELINES",
    "PASS_LEVELS",
    "canonical",
    "canonical_with_stats",
    "cost",
    "default_pipeline",
    "get_pipeline",
    "is_empty_path",
    "mark_canonical",
    "register_pipeline",
    "rebuild_union",
    "set_default_pipeline",
    "union_members",
]

#: Canonical false: ``¬⊤`` (prints as ``false``, parses back).
FALSE = intern_expr(Not(Top()))
#: Canonical empty path: ``.[false]`` — the ``∅`` relation.  Every rule
#: that derives emptiness rewrites to this exact interned instance.
EMPTY_PATH = intern_expr(Filter(Self(), FALSE))

_SELF = intern_expr(Self())
_TOP = intern_expr(Top())


def is_empty_path(path: PathExpr) -> bool:
    """Is ``path`` the canonical empty relation?  (Syntactic check against
    :data:`EMPTY_PATH`; the pipeline funnels every derivably-empty path
    onto that one instance.)"""
    return intern_expr(path) is EMPTY_PATH


#: id(interned expr) -> adjusted size.  Safe: canonical nodes are immortal.
_GUARD_SIZE: dict[int, int] = {}


def _adjusted_size(expr: Expr) -> int:
    """Syntax-tree size with the canonical constants ``∅`` (``.[false]``)
    and ``⊥`` (``false``) priced as single atoms — otherwise collapsing a
    3-node expression to the 4-node ``.[false]`` would look like a cost
    increase and the guard would block the emptiness rules on exactly the
    smallest inputs."""
    if expr is EMPTY_PATH or expr is FALSE:
        return 1
    cached = _GUARD_SIZE.get(id(expr))
    if cached is not None:
        return cached
    result = 1 + sum(_adjusted_size(child) for child in children(expr))
    _GUARD_SIZE[id(expr)] = result
    return result


def _adjusted_dag(expr: Expr) -> int:
    """Distinct-subexpression count with the canonical constants collapsed
    to atoms (their internals are not descended into)."""
    seen: set[int] = set()
    stack: list[Expr] = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node is EMPTY_PATH or node is FALSE:
            continue
        stack.extend(children(node))
    return len(seen)


def cost(expr: Expr) -> tuple[int, int]:
    """The pipeline's cost of ``expr``: syntax-tree size first (what every
    engine's complexity scales with; the canonical ``∅``/``⊥`` constants
    count as atoms), distinct-subexpression count second (what the interned
    DAG and the plan compiler actually materialize — see
    :func:`repro.xpath.measures.dag_size`)."""
    root = intern_expr(expr)
    return (_adjusted_size(root), _adjusted_dag(root))


# -------------------------------------------------------------- rule helpers


def _rebuild(parts: list[Expr], ctor: Callable[[Expr, Expr], Expr]) -> Expr:
    """Left-deep spine over ``parts`` (at least one), interned."""
    result = parts[0]
    for part in parts[1:]:
        result = intern_expr(ctor(result, part))
    return result


def union_members(query: PathExpr) -> list[PathExpr]:
    """The flattened members of a ``∪`` spine (a non-union is one member).

    This is *the* union-flattening implementation — ``analysis.optimize``
    used to carry its own copy which neither deduplicated nor ordered
    members, so its rebuilt unions diverged from the normalizer's canonical
    spines (and missed the plan cache).  Both layers now share this one.
    """
    return _flatten(intern_expr(query), Union)  # type: ignore[return-value]


def rebuild_union(members: list[PathExpr]) -> PathExpr:
    """The canonical union of ``members``: interned, left-deep, in the
    normalizer's member order once normalized."""
    if not members:
        return EMPTY_PATH
    return normalize(_rebuild(list(members), Union))  # type: ignore[arg-type]


def _contains_identity(path: PathExpr) -> bool:
    """Conservatively: does ``[[path]]`` include the identity relation on
    every tree?  (Sound, not complete — ``False`` just means "unknown".)"""
    match path:
        case Self() | AxisClosure() | Star():
            return True
        case Union(left=a, right=b):
            return _contains_identity(a) or _contains_identity(b)
        case Seq(left=a, right=b) | Intersect(left=a, right=b):
            return _contains_identity(a) and _contains_identity(b)
        case _:
            return False


def _subsumes(big: PathExpr, small: PathExpr) -> bool:
    """Conservatively: ``[[small]] ⊆ [[big]]`` on every tree?

    Purely syntactic — identity, closures over their steps, filters /
    intersections / complements under their base paths, and composition /
    union distribution into transitively-closed paths.
    """
    if big is small:
        return True
    if isinstance(big, AxisClosure):
        if isinstance(small, Self):
            return True
        if isinstance(small, AxisStep) and small.axis is big.axis:
            return True
        if isinstance(small, (Seq, Union)):
            # τ* is closed under composition (τ*/τ* = τ*) and union.
            return _subsumes(big, small.left) and _subsumes(big, small.right)
    if isinstance(big, Star):
        if isinstance(small, Self) or _subsumes(big.path, small):
            return True
        if isinstance(small, (Seq, Union)):
            return _subsumes(big, small.left) and _subsumes(big, small.right)
    if isinstance(small, Filter):
        return _subsumes(big, small.path)
    if isinstance(small, Intersect):
        return _subsumes(big, small.left) or _subsumes(big, small.right)
    if isinstance(small, Complement):
        return _subsumes(big, small.left)
    if isinstance(small, Union):
        return _subsumes(big, small.left) and _subsumes(big, small.right)
    return False


def _drop_subsumed(members: list[Expr], keeps_smaller: bool) -> list[Expr] | None:
    """Members with redundant entries removed, or ``None`` if nothing drops.

    ``keeps_smaller=False`` is the union direction (drop a member contained
    in a sibling); ``True`` is the intersection direction (drop a member
    containing a sibling).  On mutual subsumption the earlier member wins.
    """
    dropped = [False] * len(members)
    for i, m in enumerate(members):
        for j, s in enumerate(members):
            if i == j or dropped[j]:
                continue
            big, small = (m, s) if keeps_smaller else (s, m)
            if _subsumes(big, small) and (j < i or not _subsumes(small, big)):
                dropped[i] = True
                break
    if not any(dropped):
        return None
    return [m for i, m in enumerate(members) if not dropped[i]]


# ------------------------------------------------------------- the rule sets


def _rule_booleans(expr: Expr, alphabet: frozenset[str] | None) -> Expr | None:
    """⊥/⊤ propagation in ``∧``, contradictions, ``≈``/``⟨·⟩`` collapses."""
    match expr:
        case And():
            members = _flatten(expr, And)
            if any(m is FALSE for m in members):
                return FALSE
            kept = [m for m in members if m is not _TOP]
            ids = {id(m) for m in kept}
            if any(isinstance(m, Not) and id(m.child) in ids for m in kept):
                return FALSE  # φ ∧ ¬φ (both conjuncts present) = ⊥.
            if len(kept) == len(members):
                return None
            if not kept:
                return _TOP
            return _rebuild(kept, And)
        case PathEquality(left=a, right=b):
            if a is EMPTY_PATH or b is EMPTY_PATH:
                return FALSE
            if a is b:
                return intern_expr(SomePath(a))  # α ≈ α = ⟨α⟩.
            return None
        case SomePath(path=a):
            if a is EMPTY_PATH:
                return FALSE
            if _contains_identity(a):
                return _TOP  # (n, n) ∈ [[α]] for every n, so ⟨α⟩ ≡ ⊤.
            return None
    return None


def _rule_path_units(expr: Expr, alphabet: frozenset[str] | None) -> Expr | None:
    """Propagate the empty path ``∅`` through every path constructor."""
    match expr:
        case Seq(left=a, right=b):
            if a is EMPTY_PATH or b is EMPTY_PATH:
                return EMPTY_PATH
        case Union():
            members = _flatten(expr, Union)
            kept = [m for m in members if m is not EMPTY_PATH]
            if len(kept) == len(members):
                return None
            return _rebuild(kept, Union) if kept else EMPTY_PATH
        case Intersect():
            if any(m is EMPTY_PATH for m in _flatten(expr, Intersect)):
                return EMPTY_PATH
        case Complement(left=a, right=b):
            if a is EMPTY_PATH:
                return EMPTY_PATH
            if b is EMPTY_PATH:
                return a
        case Filter(path=a, predicate=p):
            if expr is EMPTY_PATH:
                return None
            if a is EMPTY_PATH or p is FALSE:
                return EMPTY_PATH
        case Star(path=a):
            if a is EMPTY_PATH:
                return _SELF  # ∅* = . (reflexive closure of nothing).
            if isinstance(a, Filter) and isinstance(a.path, Self):
                return _SELF  # (.[φ])* = . (closure of a sub-identity).
        case ForLoop(source=a, body=b):
            if a is EMPTY_PATH or b is EMPTY_PATH:
                return EMPTY_PATH  # no bindings, or every binding empty.
    return None


def _rule_star_algebra(expr: Expr, alphabet: frozenset[str] | None) -> Expr | None:
    """Collapse general closures onto the CoreXPath axis-closure form."""
    match expr:
        case Star(path=AxisStep(axis=axis)) | Star(path=AxisClosure(axis=axis)):
            return intern_expr(AxisClosure(axis))
        case Star(path=Union() as inner):
            members = _flatten(inner, Union)
            kept = [m for m in members if not isinstance(m, Self)]
            if len(kept) == len(members):
                return None
            if not kept:
                return _SELF
            # (α ∪ .)* = α*: closures are already reflexive.
            return intern_expr(Star(_rebuild(kept, Union)))  # type: ignore[arg-type]
    return None


def _rule_filters(expr: Expr, alphabet: frozenset[str] | None) -> Expr | None:
    """Predicate fusion/hoisting and ``Seq``-spine fusion."""
    match expr:
        case Filter(path=Filter(path=a, predicate=p), predicate=q):
            return intern_expr(Filter(a, intern_expr(And(p, q))))
        case Seq():
            members = _flatten(expr, Seq)
            out: list[Expr] = []
            changed = False
            for member in members:
                prev = out[-1] if out else None
                if prev is not None and isinstance(member, Filter) \
                        and isinstance(member.path, Self):
                    # α/.[φ] = α[φ]: the trailing test filters α's target.
                    out[-1] = intern_expr(Filter(prev, member.predicate))
                    changed = True
                elif prev is not None and (
                        (isinstance(prev, AxisClosure)
                         and isinstance(member, AxisClosure)
                         and prev.axis is member.axis)
                        or (isinstance(prev, Star) and isinstance(member, Star)
                            and prev.path is member.path)):
                    changed = True  # τ*/τ* = τ* and α*/α* = α* (transitive).
                else:
                    out.append(member)
            if not changed and len(out) == len(members):
                return None
            return _rebuild(out, Seq)
    return None


def _rule_subsumption(expr: Expr, alphabet: frozenset[str] | None) -> Expr | None:
    """Union factoring and its ``∩``/``−`` duals via :func:`_subsumes`."""
    match expr:
        case Union():
            kept = _drop_subsumed(_flatten(expr, Union), keeps_smaller=False)
            if kept is None:
                return None
            return _rebuild(kept, Union)
        case Intersect():
            kept = _drop_subsumed(_flatten(expr, Intersect), keeps_smaller=True)
            if kept is None:
                return None
            return _rebuild(kept, Intersect)
        case Complement(left=a, right=b):
            if _subsumes(b, a):
                return EMPTY_PATH  # α − β = ∅ when α ⊆ β syntactically.
    return None


def _rule_dead_labels(expr: Expr, alphabet: frozenset[str] | None) -> Expr | None:
    """``p → ⊥`` for labels no conforming document can carry.  Only runs
    when a schema alphabet is in scope (``Problem.canonical`` passes the
    EDTD's concrete labels)."""
    if alphabet is not None and isinstance(expr, Label) \
            and expr.name not in alphabet:
        return FALSE
    return None


# ---------------------------------------------------------- passes/pipelines


@dataclass(frozen=True)
class Pass:
    """One named, semantics-preserving rule set.

    Exactly one of ``rule`` (a local rewrite applied bottom-up; receives a
    node whose children are already rewritten and returns a replacement or
    ``None``) and ``whole`` (a whole-expression transform) is set.
    ``needs_alphabet`` passes are skipped unless a schema alphabet is given.
    """

    name: str
    rule: Callable[[Expr, frozenset[str] | None], Expr | None] | None = None
    whole: Callable[[Expr], Expr] | None = None
    needs_alphabet: bool = False

    def apply(self, expr: Expr, alphabet: frozenset[str] | None,
              fired: list[int]) -> Expr:
        """``expr`` rewritten by this pass (interned); bumps ``fired[0]``
        once per accepted rule application."""
        if self.whole is not None:
            result = intern_expr(self.whole(expr))
            if result is not expr:
                fired[0] += 1
            return result
        assert self.rule is not None
        memo: dict[int, Expr] = {}
        return self._walk(alphabet, memo, fired, intern_expr(expr))

    def _walk(self, alphabet: frozenset[str] | None, memo: dict[int, Expr],
              fired: list[int], expr: Expr) -> Expr:
        hit = memo.get(id(expr))
        if hit is not None:
            return hit
        # A partial, not a lambda: the walk's recursion must stay at two
        # frames per level (_walk, map_children) for deep inputs to fit
        # the interner's recursion limit.
        node = intern_expr(map_children(
            expr, partial(self._walk, alphabet, memo, fired)))
        assert self.rule is not None
        # Re-apply the rule at this node until it stops firing: one rewrite
        # can expose another local redex (e.g. filter fusion after fusion).
        for _ in range(64):
            out = self.rule(node, alphabet)
            if out is None:
                break
            out = intern_expr(out)
            if out is node:
                break
            fired[0] += 1
            node = out
        memo[id(expr)] = node
        memo[id(node)] = node
        return node


@dataclass(frozen=True)
class PassStats:
    """Aggregated per-pass statistics of one :meth:`Pipeline.run`."""

    level: str
    nodes_before: int = 0
    nodes_after: int = 0
    per_pass: dict = field(default_factory=dict)

    def record(self, name: str, fired: int, before: int, after: int) -> None:
        entry = self.per_pass.setdefault(
            name, {"fired": 0, "nodes_before": 0, "nodes_after": 0})
        entry["fired"] += fired
        entry["nodes_before"] += before
        entry["nodes_after"] += after


class Pipeline:
    """An ordered pass list run to a cost-guided fixpoint."""

    def __init__(self, name: str, passes: Iterable[Pass],
                 max_rounds: int = 12):
        self.name = name
        self.passes = tuple(passes)
        self.max_rounds = max_rounds

    def describe(self) -> dict:
        return {"name": self.name,
                "passes": [p.name for p in self.passes]}

    def run(self, expr: Expr, alphabet: frozenset[str] | None = None,
            stats: PassStats | None = None) -> Expr:
        """The canonical form of ``expr`` under this pipeline (interned).

        Each pass application is accepted only if the :func:`cost` did not
        increase; rounds repeat until no pass changes the expression."""
        current = intern_expr(expr)
        for _ in range(self.max_rounds):
            changed = False
            for p in self.passes:
                if p.needs_alphabet and alphabet is None:
                    continue
                fired = [0]
                before = current
                result = p.apply(current, alphabet, fired)
                if result is current:
                    continue
                before_cost, after_cost = cost(before), cost(result)
                if after_cost > before_cost:
                    obs.count(f"rewrite.pass.{p.name}.rejected")
                    continue
                obs.count(f"rewrite.pass.{p.name}.fired", fired[0])
                obs.count(f"rewrite.pass.{p.name}.nodes_before", before_cost[0])
                obs.count(f"rewrite.pass.{p.name}.nodes_after", after_cost[0])
                if stats is not None:
                    stats.record(p.name, fired[0], before_cost[0],
                                 after_cost[0])
                current = result
                changed = True
            if not changed:
                break
        return current


#: Pipeline level 0 — exactly the interning normalizer.
_NORMALIZE_PASS = Pass("normalize", whole=normalize)

_FULL_PASSES = (
    _NORMALIZE_PASS,
    Pass("dead-labels", rule=_rule_dead_labels, needs_alphabet=True),
    Pass("booleans", rule=_rule_booleans),
    Pass("path-units", rule=_rule_path_units),
    Pass("star-algebra", rule=_rule_star_algebra),
    Pass("filters", rule=_rule_filters),
    Pass("subsumption", rule=_rule_subsumption),
)

#: The registered pipeline levels.  ``none`` interns without rewriting,
#: ``basic`` is the historical ``normalize`` behaviour, ``full`` runs the
#: whole catalog.
PIPELINES: dict[str, Pipeline] = {}

#: The level names in increasing strength, as the CLI exposes them.
PASS_LEVELS = ("none", "basic", "full")


def register_pipeline(pipeline: Pipeline) -> Pipeline:
    """Add (or replace) a pipeline under its name."""
    PIPELINES[pipeline.name] = pipeline
    return pipeline


register_pipeline(Pipeline("none", ()))
register_pipeline(Pipeline("basic", (_NORMALIZE_PASS,)))
register_pipeline(Pipeline("full", _FULL_PASSES))


def get_pipeline(name: str) -> Pipeline:
    pipeline = PIPELINES.get(name)
    if pipeline is None:
        raise ValueError(f"unknown pipeline {name!r} "
                         f"(registered: {', '.join(sorted(PIPELINES))})")
    return pipeline


_lock = threading.RLock()


def _after_fork_in_child() -> None:
    # A parent thread canonicalizing at fork time would leave the child's
    # copy of the lock held forever.
    global _lock
    _lock = threading.RLock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_after_fork_in_child)

_DEFAULT_LEVEL = "full"
#: (level, alphabet, id(interned input)) -> canonical form.  Canonical
#: instances are immortal (the intern table holds them), so id-keys are safe.
_CANON: dict[tuple[str, frozenset[str] | None, int], Expr] = {}


def default_pipeline() -> str:
    """The session-wide pipeline level used when none is requested."""
    return _DEFAULT_LEVEL


def set_default_pipeline(level: str) -> str:
    """Set the session default level; returns the previous one."""
    global _DEFAULT_LEVEL
    get_pipeline(level)  # validate
    with _lock:
        previous = _DEFAULT_LEVEL
        _DEFAULT_LEVEL = level
        return previous


def canonical(expr: Expr, level: str | None = None,
              alphabet: Iterable[str] | None = None) -> Expr:
    """The canonical form of ``expr`` at ``level`` (default: the session
    level), interned and idempotent: ``canonical(canonical(e)) is
    canonical(e)``.  ``alphabet`` enables schema-aware dead-branch
    elimination (pass the EDTD's concrete labels)."""
    sigma = frozenset(alphabet) if alphabet is not None else None
    with _lock:
        name = level if level is not None else _DEFAULT_LEVEL
        root = intern_expr(expr)
        key = (name, sigma, id(root))
        hit = _CANON.get(key)
        if hit is not None:
            return hit
        result = get_pipeline(name).run(root, sigma)
        _CANON[key] = result
        _CANON.setdefault((name, sigma, id(result)), result)
        return result


def mark_canonical(expr: Expr,
                   alphabet: Iterable[str] | None = None) -> Expr:
    """Record ``expr`` as its own canonical form at the session level and
    ``alphabet``; returns its interned instance.

    For an expression that :func:`canonical` produced in another process
    at the session level and the same alphabet: unpickled, it misses this
    process's memo, and since the pipeline is idempotent its canonical
    form is itself, so recording it saves re-running the pipeline.  An
    existing memo entry is kept.  Marking an expression that is not
    canonical only leaves it unsimplified: engines still see an
    equivalent expression.
    """
    sigma = frozenset(alphabet) if alphabet is not None else None
    with _lock:
        root = intern_expr(expr)
        _CANON.setdefault((_DEFAULT_LEVEL, sigma, id(root)), root)
        return root


def canonical_with_stats(
    expr: Expr, level: str | None = None,
    alphabet: Iterable[str] | None = None,
) -> tuple[Expr, PassStats]:
    """Like :func:`canonical` but uncached, returning per-pass statistics
    (the ``repro simplify`` command's payload)."""
    sigma = frozenset(alphabet) if alphabet is not None else None
    name = level if level is not None else _DEFAULT_LEVEL
    root = intern_expr(expr)
    stats = PassStats(level=name, nodes_before=size(root))
    result = get_pipeline(name).run(root, sigma, stats=stats)
    stats = PassStats(level=name, nodes_before=stats.nodes_before,
                      nodes_after=size(result), per_pass=stats.per_pass)
    with _lock:
        _CANON.setdefault((name, sigma, id(root)), result)
        _CANON.setdefault((name, sigma, id(result)), result)
    return result, stats
