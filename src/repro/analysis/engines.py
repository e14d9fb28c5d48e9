"""Satisfiability engines based on systematic model search.

This is the dispatch ladder's fallback below the conclusive procedures
(the Figure 2 EXPSPACE engine and the Theorem 10 2ATA emptiness engine of
:mod:`repro.analysis.automata_engine`): a witness search that is

* **complete for satisfiable inputs** given enough budget — it enumerates
  *every* tree up to the size bound over the relevant label alphabet, in
  order of increasing size, so the first witness found is minimal; and
* **exact up to the bound** for unsatisfiable inputs — "no tree with ≤ n
  nodes satisfies φ" is a theorem, not a sample.

The relevant alphabet is the expressions' labels plus one fresh label, which
is sufficient by the relabeling argument in the proof of Prop. 4.  With an
EDTD, candidate trees are generated directly from the schema
(:func:`repro.edtd.generate.all_conforming_trees`) rather than enumerated
and filtered.

Since the engine-kernel refactor the searches are plan-based: each query is
compiled once (:func:`repro.semantics.compile_plan` — normalized, interned,
common subexpressions shared between ``α`` and ``β``) and the compiled plan
is executed against a fresh :class:`~repro.semantics.TreeContext` per
candidate tree.  :class:`BoundedEngine` and :class:`RandomEngine` adapt
these searches to the engine registry.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from .. import obs
from ..edtd import EDTD, all_conforming_trees, random_conforming_tree
from ..semantics import TreeContext, compile_plan
from ..trees import XMLTree, all_trees, random_tree
from ..xpath.ast import Expr, NodeExpr, PathExpr
from ..xpath.measures import labels_used
from .problems import (
    DEFAULT_MAX_NODES,
    ContainmentResult,
    Problem,
    ProblemKind,
    SatResult,
    Verdict,
)
from .reductions import fresh_label
from .registry import Engine, default_registry

__all__ = [
    "BoundedEngine",
    "RandomEngine",
    "node_satisfiable",
    "path_satisfiable",
    "check_containment",
    "relevant_alphabet",
    "random_witness_search",
    "DEFAULT_MAX_NODES",
]


def relevant_alphabet(*exprs: Expr | EDTD, edtd: EDTD | None = None) -> list[str]:
    """The labels worth trying in models of the given expressions: their own
    labels plus one shared fresh label (without an EDTD), or the schema's
    concrete labels (with).

    Accepts any number of expressions — engines working on several inputs
    (containment's ``α`` and ``β``) compute one joint alphabet instead of
    unioning per-expression alphabets each carrying its own fresh label.
    For backward compatibility the EDTD may also be passed as the last
    positional argument.
    """
    if exprs and isinstance(exprs[-1], EDTD):
        if edtd is not None:
            raise TypeError("EDTD given both positionally and by keyword")
        edtd = exprs[-1]
        exprs = exprs[:-1]
    if edtd is not None:
        return sorted(edtd.concrete_labels())
    used: set[str] = set()
    for expr in exprs:
        assert not isinstance(expr, EDTD)
        used |= labels_used(expr)
    return sorted(used | {fresh_label(used)})


def _candidate_trees(
    max_nodes: int,
    edtd: EDTD | None,
    alphabet: Iterable[str] | None,
    *exprs: Expr,
) -> Iterator[XMLTree]:
    """Candidate models in increasing size order.

    With a schema (and no explicit alphabet override) trees are generated
    directly from the schema; otherwise all trees over the relevant
    alphabet are enumerated, filtered by conformance if needed.
    """
    if edtd is not None and alphabet is None:
        return all_conforming_trees(edtd, max_nodes)
    if alphabet is None:
        alphabet = relevant_alphabet(*exprs)
    trees = all_trees(max_nodes, list(alphabet))
    if edtd is None:
        return iter(trees)
    return (tree for tree in trees if edtd.conforms(tree))


def _sized_trees(trees: Iterable[XMLTree]) -> Iterator[XMLTree]:
    """Wrap a size-ordered tree stream with one obs span per candidate size;
    a plain pass-through when instrumentation is off.  The per-size spans
    are what the Table I growth plots need — the cost of the search
    concentrates in the last size tried."""
    if obs.active() is None:
        yield from trees
        return
    current_size: int | None = None
    size_span = obs.NULL_SPAN
    enumerated = 0
    try:
        for tree in trees:
            if tree.size != current_size:
                size_span.annotate(trees=enumerated)
                size_span.finish()
                current_size = tree.size
                enumerated = 0
                size_span = obs.span("bounded.size", nodes=current_size).start()
            enumerated += 1
            obs.count("trees.enumerated")
            yield tree
    finally:
        size_span.annotate(trees=enumerated)
        size_span.finish()


def node_satisfiable(
    phi: NodeExpr,
    max_nodes: int = DEFAULT_MAX_NODES,
    edtd: EDTD | None = None,
    alphabet: Iterable[str] | None = None,
) -> SatResult:
    """Is some node of some XML tree (conforming to ``edtd``, if given) in
    ``[[φ]]``?  Exhaustive over all trees with at most ``max_nodes`` nodes."""
    plan = compile_plan(phi)
    checked = 0
    with obs.span("bounded.search", problem="node-satisfiability",
                  max_nodes=max_nodes):
        for tree in _sized_trees(
                _candidate_trees(max_nodes, edtd, alphabet, phi)):
            checked += 1
            obs.count("evaluator.calls")
            nodes = plan.run(TreeContext(tree))[0]
            assert isinstance(nodes, frozenset)
            if nodes:
                obs.count("trees.checked", checked)
                return SatResult(Verdict.SATISFIABLE, tree, min(nodes),
                                 explored_up_to=tree.size, trees_checked=checked)
        obs.count("trees.checked", checked)
        return SatResult(Verdict.NO_WITNESS_WITHIN_BOUND,
                         explored_up_to=max_nodes, trees_checked=checked)


def path_satisfiable(
    alpha: PathExpr,
    max_nodes: int = DEFAULT_MAX_NODES,
    edtd: EDTD | None = None,
    alphabet: Iterable[str] | None = None,
) -> SatResult:
    """Is ``[[α]]`` nonempty on some tree?  (§2.3 path satisfiability.)"""
    plan = compile_plan(alpha)
    checked = 0
    with obs.span("bounded.search", problem="path-satisfiability",
                  max_nodes=max_nodes):
        for tree in _sized_trees(
                _candidate_trees(max_nodes, edtd, alphabet, alpha)):
            checked += 1
            obs.count("evaluator.calls")
            relation = plan.run(TreeContext(tree))[0]
            assert isinstance(relation, dict)
            for source, targets in sorted(relation.items()):
                if targets:
                    obs.count("trees.checked", checked)
                    return SatResult(Verdict.SATISFIABLE, tree, source,
                                     explored_up_to=tree.size,
                                     trees_checked=checked)
        obs.count("trees.checked", checked)
        return SatResult(Verdict.NO_WITNESS_WITHIN_BOUND,
                         explored_up_to=max_nodes, trees_checked=checked)


def check_containment(
    alpha: PathExpr,
    beta: PathExpr,
    max_nodes: int = DEFAULT_MAX_NODES,
    edtd: EDTD | None = None,
) -> ContainmentResult:
    """Does ``[[α]] ⊆ [[β]]`` hold on every tree (conforming to ``edtd``)?

    Searches directly for a counterexample tree.  Both sides are compiled
    into one shared plan, so subexpressions common to ``α`` and ``β`` are
    evaluated once per candidate tree; the joint alphabet is the labels of
    both expressions plus one fresh label (sufficient by Prop. 4's
    relabeling argument).
    """
    plan = compile_plan(alpha, beta)
    checked = 0
    with obs.span("bounded.search", problem="containment",
                  max_nodes=max_nodes):
        for tree in _sized_trees(
                _candidate_trees(max_nodes, edtd, None, alpha, beta)):
            checked += 1
            obs.count("evaluator.calls")
            left, right = plan.run(TreeContext(tree))
            assert isinstance(left, dict) and isinstance(right, dict)
            for source, targets in sorted(left.items()):
                extra = targets - right.get(source, frozenset())
                if extra:
                    obs.count("trees.checked", checked)
                    return ContainmentResult(
                        Verdict.SATISFIABLE, tree, (source, min(extra)),
                        explored_up_to=tree.size, trees_checked=checked,
                    )
        obs.count("trees.checked", checked)
        return ContainmentResult(Verdict.NO_WITNESS_WITHIN_BOUND,
                                 explored_up_to=max_nodes, trees_checked=checked)


def random_witness_search(
    phi: NodeExpr,
    rng: random.Random,
    attempts: int = 2000,
    max_nodes: int = 12,
    edtd: EDTD | None = None,
    alphabet: Iterable[str] | None = None,
) -> SatResult:
    """Randomized witness search: samples larger trees than the exhaustive
    engine can afford.  Finding a witness is conclusive; not finding one is
    only evidence."""
    alphabet = list(alphabet) if alphabet is not None else relevant_alphabet(phi, edtd=edtd)
    plan = compile_plan(phi)
    with obs.span("bounded.random_search", attempts=attempts,
                  max_nodes=max_nodes):
        for attempt in range(attempts):
            if edtd is not None:
                tree = random_conforming_tree(edtd, rng, max_nodes=max_nodes)
            else:
                tree = random_tree(rng, max_nodes, alphabet)
            obs.count("trees.sampled")
            obs.count("evaluator.calls")
            nodes = plan.run(TreeContext(tree))[0]
            assert isinstance(nodes, frozenset)
            if nodes:
                return SatResult(Verdict.SATISFIABLE, tree, min(nodes),
                                 trees_checked=attempt + 1)
        return SatResult(Verdict.NO_WITNESS_WITHIN_BOUND, trees_checked=attempts)


# ----------------------------------------------------------- registry glue


class BoundedEngine(Engine):
    """Exhaustive bounded model search — admits every input fragment; its
    negative verdicts are exact only up to the size bound."""

    name = "bounded"
    conclusive = False
    cost_hint = 100

    def admits(self, problem: Problem) -> bool:
        return problem.kind in (ProblemKind.SATISFIABILITY,
                                ProblemKind.CONTAINMENT)

    def solve(self, problem: Problem,
              session=None) -> SatResult | ContainmentResult:
        obs.note("engine", self.name)
        obs.count(f"dispatch.{self.name}")
        if problem.kind is ProblemKind.SATISFIABILITY:
            assert problem.phi is not None
            return node_satisfiable(problem.phi, max_nodes=problem.max_nodes,
                                    edtd=problem.edtd)
        assert problem.alpha is not None and problem.beta is not None
        return check_containment(problem.alpha, problem.beta,
                                 max_nodes=problem.max_nodes, edtd=problem.edtd)


class RandomEngine(Engine):
    """Randomized witness sampling: reaches deeper trees than exhaustive
    search, but only its positive verdicts mean anything.  Never chosen
    automatically — the bounded engine admits everything this one does at a
    lower cost hint — so it runs only when forced by name."""

    name = "random"
    conclusive = False
    cost_hint = 1000
    attempts = 2000
    sample_max_nodes = 12

    def admits(self, problem: Problem) -> bool:
        return problem.kind is ProblemKind.SATISFIABILITY

    def solve(self, problem: Problem, session=None) -> SatResult:
        obs.note("engine", self.name)
        obs.count(f"dispatch.{self.name}")
        assert problem.phi is not None
        rng = random.Random(0)
        return random_witness_search(
            problem.phi, rng, attempts=self.attempts,
            max_nodes=max(problem.max_nodes, self.sample_max_nodes),
            edtd=problem.edtd,
        )


default_registry().register(BoundedEngine())
default_registry().register(RandomEngine())
