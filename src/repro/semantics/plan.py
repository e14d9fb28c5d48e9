"""Compile-once / run-many evaluation plans.

The bounded engines evaluate the *same* one or two expressions over
thousands of enumerated trees.  The legacy evaluator re-walked the AST and
re-keyed its memo tables for every tree; this module splits that work:

* :func:`compile_plan` — done **once** per (set of) expressions.  The
  expressions are normalized and interned (:mod:`repro.xpath.intern`), then
  lowered to a post-order array of ops over *slots*.  Slots are allocated by
  intern key, so a subexpression shared between ``α`` and ``β`` — or
  appearing twice inside one expression — occupies a single slot and is
  evaluated once per tree (common-subexpression elimination for free).
  Plans are cached globally by the intern keys of their normalized roots.
* :class:`Plan.run` — done once **per tree**.  For variable-free
  expressions (every Table I workload) this is a straight-line sweep over
  the op array filling a positional register file: no memo-key hashing, no
  AST dispatch, no free-variable bookkeeping.  Expressions with ``for``
  loops or ``. is $x`` tests fall back to recursive slot evaluation with a
  (slot, restricted-assignment) memo — the same semantics as the reference
  evaluator.
* :class:`TreeContext` — per-tree axis relations and a label→nodes index,
  shared by every plan executed against that tree.

Observability: ``plan.cache.hit`` / ``plan.cache.miss`` count global plan
cache behaviour, ``plan.cse.shared`` counts slots reused across roots at
compile time.
"""

from __future__ import annotations

import os
import threading
from typing import Mapping, Union as TypingUnion

from .. import obs
from ..trees import MultiLabelTree, XMLTree
from ..xpath.ast import (
    And,
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
)
from ..xpath import passes
from ..xpath.intern import free_variables_cached, intern_key, normalize
from .relalg import (
    EMPTY_TARGETS,
    Relation,
    compose,
    difference,
    intersect,
    reflexive_transitive_closure,
    union,
)

__all__ = [
    "Plan",
    "TreeContext",
    "UnboundVariableError",
    "compile_plan",
    "plan_cache_info",
    "clear_plan_cache",
]

#: A slot's value during execution: a relation (path) or a node set (node).
SlotValue = TypingUnion[Relation, frozenset[int]]


class UnboundVariableError(LookupError):
    """A ``. is $x`` test was evaluated with ``$x`` unbound."""


class TreeContext:
    """Per-tree evaluation state: axis relations and a label index.

    Build one per tree and reuse it across every plan executed on that tree
    — the axis relations and label index are computed at most once each.
    """

    __slots__ = (
        "tree",
        "shape",
        "all_nodes",
        "_multi",
        "_axis_cache",
        "_axis_closure_cache",
        "_label_cache",
        "_self_relation",
    )

    def __init__(self, tree: XMLTree | MultiLabelTree):
        self.tree = tree
        self._multi = isinstance(tree, MultiLabelTree)
        self.shape = tree.skeleton if self._multi else tree
        self.all_nodes: frozenset[int] = frozenset(self.shape.nodes)
        self._axis_cache: dict[Axis, Relation] = {}
        self._axis_closure_cache: dict[Axis, Relation] = {}
        self._label_cache: dict[str, frozenset[int]] = {}
        self._self_relation: Relation | None = None

    # ------------------------------------------------------------- relations

    def axis_relation(self, axis: Axis) -> Relation:
        relation = self._axis_cache.get(axis)
        if relation is None:
            relation = self._build_axis(axis)
            self._axis_cache[axis] = relation
        return relation

    def axis_closure_relation(self, axis: Axis) -> Relation:
        relation = self._axis_closure_cache.get(axis)
        if relation is None:
            relation = self._build_axis_closure(axis)
            self._axis_closure_cache[axis] = relation
        return relation

    def self_relation(self) -> Relation:
        relation = self._self_relation
        if relation is None:
            relation = {node: frozenset((node,)) for node in self.all_nodes}
            self._self_relation = relation
        return relation

    def label_nodes(self, name: str) -> frozenset[int]:
        """All nodes carrying ``name``, via a lazily-built label index."""
        nodes = self._label_cache.get(name)
        if nodes is None:
            if self._multi:
                has_label = self.tree.has_label  # type: ignore[union-attr]
                nodes = frozenset(
                    node for node in self.all_nodes if has_label(node, name)
                )
                self._label_cache[name] = nodes
            else:
                # Build the full index in one pass: subsequent labels are free.
                index: dict[str, set[int]] = {}
                label_of = self.tree.label  # type: ignore[union-attr]
                for node in self.all_nodes:
                    index.setdefault(label_of(node), set()).add(node)
                for label, members in index.items():
                    self._label_cache.setdefault(label, frozenset(members))
                nodes = self._label_cache.setdefault(name, EMPTY_TARGETS)
        return nodes

    def node_has_label(self, node: int, name: str) -> bool:
        if self._multi:
            return self.tree.has_label(node, name)  # type: ignore[union-attr]
        return self.tree.label(node) == name  # type: ignore[union-attr]

    def _build_axis(self, axis: Axis) -> Relation:
        shape = self.shape
        relation: Relation = {}
        if axis is Axis.DOWN:
            for node in shape.nodes:
                kids = shape.children(node)
                if kids:
                    relation[node] = frozenset(kids)
        elif axis is Axis.UP:
            for node in shape.nodes:
                parent = shape.parent(node)
                if parent is not None:
                    relation[node] = frozenset((parent,))
        elif axis is Axis.RIGHT:
            for node in shape.nodes:
                sibling = shape.next_sibling(node)
                if sibling is not None:
                    relation[node] = frozenset((sibling,))
        elif axis is Axis.LEFT:
            for node in shape.nodes:
                sibling = shape.prev_sibling(node)
                if sibling is not None:
                    relation[node] = frozenset((sibling,))
        return relation

    def _build_axis_closure(self, axis: Axis) -> Relation:
        shape = self.shape
        relation: Relation = {}
        if axis is Axis.DOWN:
            for node in shape.nodes:
                relation[node] = frozenset(shape.descendants_or_self(node))
        elif axis is Axis.UP:
            for node in shape.nodes:
                relation[node] = frozenset((node, *shape.ancestors(node)))
        elif axis is Axis.RIGHT:
            for node in shape.nodes:
                relation[node] = frozenset(
                    (node, *shape.following_siblings(node))
                )
        elif axis is Axis.LEFT:
            for node in shape.nodes:
                relation[node] = frozenset(
                    (node, *shape.preceding_siblings(node))
                )
        return relation


# Opcodes.  Each op is a tuple (opcode, *operands); operand slots are
# integers referring to earlier positions in the op array (post-order).
OP_AXIS = "axis"          # (OP_AXIS, Axis)
OP_CLOSURE = "closure"    # (OP_CLOSURE, Axis)
OP_SELF = "self"          # (OP_SELF,)
OP_SEQ = "seq"            # (OP_SEQ, left_slot, right_slot)
OP_UNION = "union"        # ...
OP_INTERSECT = "intersect"
OP_COMPLEMENT = "complement"
OP_FILTER = "filter"      # (OP_FILTER, path_slot, predicate_slot)
OP_STAR = "star"          # (OP_STAR, path_slot)
OP_FOR = "for"            # (OP_FOR, var, source_slot, body_slot)
OP_LABEL = "label"        # (OP_LABEL, name)
OP_SOME = "some"          # (OP_SOME, path_slot)
OP_TOP = "top"            # (OP_TOP,)
OP_NOT = "not"            # (OP_NOT, child_slot)
OP_AND = "and"            # (OP_AND, left_slot, right_slot)
OP_PATHEQ = "patheq"      # (OP_PATHEQ, left_slot, right_slot)
OP_VAR = "var"            # (OP_VAR, name)


class Plan:
    """A compiled evaluation plan over one or more root expressions.

    ``run(tree_or_context, assignment)`` returns one result per root, in
    compile order: a :data:`Relation` for path roots, a ``frozenset[int]``
    for node roots.
    """

    __slots__ = ("roots", "ops", "exprs", "root_slots", "has_binders")

    def __init__(self, roots: tuple[Expr, ...], ops: list[tuple],
                 exprs: list[Expr], root_slots: tuple[int, ...],
                 has_binders: bool):
        #: normalized, interned root expressions (compile order).
        self.roots = roots
        #: post-order op array; ops[i] computes the value of slot i.
        self.ops = ops
        #: the interned subexpression each slot stands for.
        self.exprs = exprs
        #: slot index of each root's value.
        self.root_slots = root_slots
        #: True iff any op binds or reads a node variable.
        self.has_binders = has_binders

    def __len__(self) -> int:
        return len(self.ops)

    def run(self, tree: XMLTree | MultiLabelTree | TreeContext,
            assignment: Mapping[str, int] | None = None,
            ) -> tuple[SlotValue, ...]:
        context = tree if isinstance(tree, TreeContext) else TreeContext(tree)
        if self.has_binders or assignment:
            executor = _RecursiveExecutor(self, context, dict(assignment or {}))
            return tuple(executor.eval(slot, executor.assignment)
                         for slot in self.root_slots)
        registers = self._run_straight_line(context)
        return tuple(registers[slot] for slot in self.root_slots)

    def run_single(self, tree: XMLTree | MultiLabelTree | TreeContext,
                   assignment: Mapping[str, int] | None = None) -> SlotValue:
        """``run`` for single-root plans."""
        return self.run(tree, assignment)[0]

    # --------------------------------------------------- straight-line mode

    def _run_straight_line(self, ctx: TreeContext) -> list[SlotValue]:
        """Fill the register file in one post-order sweep.

        Only sound when no op binds or reads a variable: every slot's value
        is then a function of the tree alone, so each is computed exactly
        once regardless of how many parents share it.
        """
        registers: list[SlotValue] = []
        append = registers.append
        all_nodes = ctx.all_nodes
        for op in self.ops:
            tag = op[0]
            if tag == OP_AXIS:
                append(ctx.axis_relation(op[1]))
            elif tag == OP_CLOSURE:
                append(ctx.axis_closure_relation(op[1]))
            elif tag == OP_SELF:
                append(ctx.self_relation())
            elif tag == OP_SEQ:
                append(compose(registers[op[1]], registers[op[2]]))
            elif tag == OP_UNION:
                append(union(registers[op[1]], registers[op[2]]))
            elif tag == OP_INTERSECT:
                append(intersect(registers[op[1]], registers[op[2]]))
            elif tag == OP_COMPLEMENT:
                append(difference(registers[op[1]], registers[op[2]]))
            elif tag == OP_FILTER:
                allowed = registers[op[2]]
                append({
                    source: kept
                    for source, targets in registers[op[1]].items()
                    if (kept := targets & allowed)
                })
            elif tag == OP_STAR:
                append(reflexive_transitive_closure(registers[op[1]],
                                                    all_nodes))
            elif tag == OP_LABEL:
                append(ctx.label_nodes(op[1]))
            elif tag == OP_SOME:
                append(frozenset(
                    node for node, targets in registers[op[1]].items()
                    if targets
                ))
            elif tag == OP_TOP:
                append(all_nodes)
            elif tag == OP_NOT:
                append(all_nodes - registers[op[1]])
            elif tag == OP_AND:
                append(registers[op[1]] & registers[op[2]])
            elif tag == OP_PATHEQ:
                left_rel = registers[op[1]]
                right_rel = registers[op[2]]
                append(frozenset(
                    node for node, targets in left_rel.items()
                    if targets & right_rel.get(node, EMPTY_TARGETS)
                ))
            else:  # pragma: no cover - compile() never emits others here
                raise TypeError(f"op {tag!r} requires the recursive executor")
        return registers


class _RecursiveExecutor:
    """Slot-at-a-time evaluation for plans with variables.

    Memoizes per (slot, assignment restricted to the slot's free variables)
    — the plan-level analogue of the reference evaluator's memo tables, but
    keyed by dense slot indices instead of object identities.
    """

    __slots__ = ("plan", "ctx", "assignment", "_memo", "_free")

    def __init__(self, plan: Plan, ctx: TreeContext,
                 assignment: dict[str, int]):
        self.plan = plan
        self.ctx = ctx
        self.assignment = assignment
        self._memo: dict[tuple, SlotValue] = {}
        self._free: list[frozenset[str] | None] = [None] * len(plan.ops)

    def _free_vars(self, slot: int) -> frozenset[str]:
        fvs = self._free[slot]
        if fvs is None:
            fvs = free_variables_cached(self.plan.exprs[slot])
            self._free[slot] = fvs
        return fvs

    def eval(self, slot: int, assignment: dict[str, int]) -> SlotValue:
        fvs = self._free_vars(slot)
        relevant = tuple(sorted(
            (v, assignment[v]) for v in fvs if v in assignment
        ))
        memo_key = (slot, relevant)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        result = self._eval_raw(slot, assignment)
        self._memo[memo_key] = result
        return result

    def _eval_raw(self, slot: int, env: dict[str, int]) -> SlotValue:
        op = self.plan.ops[slot]
        ctx = self.ctx
        tag = op[0]
        if tag == OP_AXIS:
            return ctx.axis_relation(op[1])
        if tag == OP_CLOSURE:
            return ctx.axis_closure_relation(op[1])
        if tag == OP_SELF:
            return ctx.self_relation()
        if tag == OP_SEQ:
            return compose(self.eval(op[1], env), self.eval(op[2], env))
        if tag == OP_UNION:
            return union(self.eval(op[1], env), self.eval(op[2], env))
        if tag == OP_INTERSECT:
            return intersect(self.eval(op[1], env), self.eval(op[2], env))
        if tag == OP_COMPLEMENT:
            return difference(self.eval(op[1], env), self.eval(op[2], env))
        if tag == OP_FILTER:
            allowed = self.eval(op[2], env)
            return {
                source: kept
                for source, targets in self.eval(op[1], env).items()
                if (kept := targets & allowed)
            }
        if tag == OP_STAR:
            return reflexive_transitive_closure(self.eval(op[1], env),
                                                ctx.all_nodes)
        if tag == OP_FOR:
            return self._for_loop(op[1], op[2], op[3], env)
        if tag == OP_LABEL:
            return ctx.label_nodes(op[1])
        if tag == OP_SOME:
            return frozenset(
                node for node, targets in self.eval(op[1], env).items()
                if targets
            )
        if tag == OP_TOP:
            return ctx.all_nodes
        if tag == OP_NOT:
            return ctx.all_nodes - self.eval(op[1], env)
        if tag == OP_AND:
            return self.eval(op[1], env) & self.eval(op[2], env)
        if tag == OP_PATHEQ:
            left_rel = self.eval(op[1], env)
            right_rel = self.eval(op[2], env)
            return frozenset(
                node for node, targets in left_rel.items()
                if targets & right_rel.get(node, EMPTY_TARGETS)
            )
        if tag == OP_VAR:
            name = op[1]
            if name not in env:
                raise UnboundVariableError(f"variable ${name} is unbound")
            return frozenset((env[name],))
        raise TypeError(f"unknown op {tag!r}")  # pragma: no cover

    def _for_loop(self, var: str, source_slot: int, body_slot: int,
                  env: dict[str, int]) -> Relation:
        source_relation = self.eval(source_slot, env)
        result: dict[int, set[int]] = {}
        bound_values = {
            k for targets in source_relation.values() for k in targets
        }
        body_relations = {}
        for value in bound_values:
            inner = dict(env)
            inner[var] = value
            body_relations[value] = self.eval(body_slot, inner)
        for node, witnesses in source_relation.items():
            targets: set[int] = set()
            for value in witnesses:
                targets |= body_relations[value].get(node, EMPTY_TARGETS)
            if targets:
                result[node] = targets
        return {node: frozenset(targets) for node, targets in result.items()}


# ------------------------------------------------------------- compilation


class _Compiler:
    """Lowers interned expressions to a shared post-order op array."""

    def __init__(self) -> None:
        self.ops: list[tuple] = []
        self.exprs: list[Expr] = []
        self.slot_of: dict[int, int] = {}  # intern key -> slot
        self.has_binders = False
        self.shared = 0  # CSE: slot lookups that hit an existing slot

    def slot(self, expr: Expr) -> int:
        key = intern_key(expr)
        existing = self.slot_of.get(key)
        if existing is not None:
            self.shared += 1
            return existing
        op = self._lower(expr)
        index = len(self.ops)
        self.ops.append(op)
        self.exprs.append(expr)
        self.slot_of[key] = index
        return index

    def _lower(self, expr: Expr) -> tuple:
        match expr:
            case AxisStep(axis=a):
                return (OP_AXIS, a)
            case AxisClosure(axis=a):
                return (OP_CLOSURE, a)
            case Self():
                return (OP_SELF,)
            case Seq(left=a, right=b):
                return (OP_SEQ, self.slot(a), self.slot(b))
            case Union(left=a, right=b):
                return (OP_UNION, self.slot(a), self.slot(b))
            case Intersect(left=a, right=b):
                return (OP_INTERSECT, self.slot(a), self.slot(b))
            case Complement(left=a, right=b):
                return (OP_COMPLEMENT, self.slot(a), self.slot(b))
            case Filter(path=a, predicate=p):
                return (OP_FILTER, self.slot(a), self.slot(p))
            case Star(path=a):
                return (OP_STAR, self.slot(a))
            case ForLoop(var=v, source=a, body=b):
                self.has_binders = True
                return (OP_FOR, v, self.slot(a), self.slot(b))
            case Label(name=name):
                return (OP_LABEL, name)
            case SomePath(path=a):
                return (OP_SOME, self.slot(a))
            case Top():
                return (OP_TOP,)
            case Not(child=c):
                return (OP_NOT, self.slot(c))
            case And(left=a, right=b):
                return (OP_AND, self.slot(a), self.slot(b))
            case PathEquality(left=a, right=b):
                return (OP_PATHEQ, self.slot(a), self.slot(b))
            case VarIs(var=v):
                self.has_binders = True
                return (OP_VAR, v)
        raise TypeError(f"unknown expression {expr!r}")


_cache_lock = threading.RLock()


def _after_fork_in_child() -> None:
    # A parent thread compiling a plan at fork time would leave the child's
    # copy of the lock held forever.
    global _cache_lock
    _cache_lock = threading.RLock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_after_fork_in_child)

#: (pipeline level, *intern keys of the canonical roots) -> compiled plan.
_PLAN_CACHE: dict[tuple, Plan] = {}
_cache_hits = 0
_cache_misses = 0


def compile_plan(*exprs: PathExpr | NodeExpr) -> Plan:
    """Compile one plan evaluating every given expression on a shared
    register file.  Results of :meth:`Plan.run` align with the argument
    order.

    Roots are canonicalized by the rewrite pipeline
    (:mod:`repro.xpath.passes`) at the session level before lowering —
    normalization is guaranteed as a floor even at level ``none`` (the
    CSE slot allocation wants the normalizer's sharing), so the historical
    ``normalize``-only behaviour is the ``--passes none`` baseline.  Plans
    are cached globally by the pipeline level plus the intern keys of the
    canonical roots, so repeated compilation of the same queries — or of
    syntactic variants with the same canonical form — is a dict lookup.
    """
    global _cache_hits, _cache_misses
    if not exprs:
        raise ValueError("compile_plan needs at least one expression")
    level = passes.default_pipeline()
    with _cache_lock:
        roots = tuple(passes.canonical(normalize(e), level=level)
                      for e in exprs)
        cache_key = (level, *(intern_key(root) for root in roots))
        plan = _PLAN_CACHE.get(cache_key)
        if plan is not None:
            _cache_hits += 1
            obs.count("plan.cache.hit")
            return plan
        _cache_misses += 1
        obs.count("plan.cache.miss")
        compiler = _Compiler()
        root_slots = tuple(compiler.slot(root) for root in roots)
        if compiler.shared:
            obs.count("plan.cse.shared", compiler.shared)
        plan = Plan(roots, compiler.ops, compiler.exprs, root_slots,
                    compiler.has_binders)
        _PLAN_CACHE[cache_key] = plan
        return plan


def plan_cache_info() -> dict[str, int]:
    """Global plan-cache statistics (process lifetime)."""
    with _cache_lock:
        return {
            "plans": len(_PLAN_CACHE),
            "hits": _cache_hits,
            "misses": _cache_misses,
        }


def clear_plan_cache() -> None:
    """Drop all cached plans (the intern tables are left untouched)."""
    global _cache_hits, _cache_misses
    with _cache_lock:
        _PLAN_CACHE.clear()
        _cache_hits = 0
        _cache_misses = 0
