"""The static-analysis problems of §2.3: their IR and answer types.

Three problems: *path containment*, *path satisfiability* and *node
satisfiability*, each optionally relativized to an EDTD.  A :class:`Problem`
is the first-class description of one such question — what is asked, of
which expressions, under which schema and search budget — and is what the
engine registry (:mod:`repro.analysis.registry`) dispatches on.

Because the general procedures in this reproduction decide problems by
bounded model search (see DESIGN.md §2), answers are three-valued: a
positive answer comes with a witness, a negative one records up to which
model size the search was exhaustive — and is marked *conclusive* when a
complete procedure (or a small-model theorem) covers that bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from ..edtd import EDTD
from ..trees import XMLTree
from ..xpath.ast import Expr, NodeExpr, PathExpr

__all__ = [
    "DEFAULT_MAX_NODES",
    "Problem",
    "ProblemKind",
    "Verdict",
    "SatResult",
    "ContainmentResult",
]

#: Default exhaustive-search bound for the bounded engines.
DEFAULT_MAX_NODES = 6


class ProblemKind(enum.Enum):
    """What is being asked of the analysis layer."""

    #: Is ``[[φ]]`` nonempty on some (conforming) tree?  Uses ``phi``.
    SATISFIABILITY = "satisfiability"
    #: Does ``[[α]] ⊆ [[β]]`` hold on every (conforming) tree?
    CONTAINMENT = "containment"
    #: Two-sided containment ``α ≡ β``.
    EQUIVALENCE = "equivalence"


@dataclass(frozen=True)
class Problem:
    """One decision problem, ready for engine dispatch.

    ``engine`` optionally *forces* a registered engine by name (the CLI's
    ``--engine`` flag and the legacy ``method=`` keyword map here);
    ``None`` lets the registry pick the cheapest conclusive engine that
    admits the input.
    """

    kind: ProblemKind
    phi: NodeExpr | None = None
    alpha: PathExpr | None = None
    beta: PathExpr | None = None
    edtd: EDTD | None = None
    max_nodes: int = DEFAULT_MAX_NODES
    engine: str | None = None

    def __post_init__(self) -> None:
        if self.kind is ProblemKind.SATISFIABILITY:
            if self.phi is None:
                raise ValueError("satisfiability needs phi")
        elif self.alpha is None or self.beta is None:
            raise ValueError(f"{self.kind.value} needs alpha and beta")

    def expressions(self) -> tuple[Expr, ...]:
        """The input expressions, in a fixed order."""
        if self.kind is ProblemKind.SATISFIABILITY:
            assert self.phi is not None
            return (self.phi,)
        assert self.alpha is not None and self.beta is not None
        return (self.alpha, self.beta)

    def forced(self, engine: str | None) -> "Problem":
        """The same problem with the engine preference replaced."""
        return replace(self, engine=engine)

    def canonical(self) -> "Problem":
        """The same problem with every input expression canonicalized by
        the rewrite pipeline (:mod:`repro.xpath.passes`) at the session
        level.

        With a schema, the EDTD's concrete labels are passed as the
        alphabet, enabling dead-branch elimination — sound because the
        problem only quantifies over conforming documents.  The
        canonicalization is semantics-preserving, so verdicts (and cache
        entries — see :func:`repro.parallel.cache.problem_fingerprint`) for
        the canonical problem are verdicts for the original.  Idempotent:
        canonicalizing twice returns structurally identical expressions.
        """
        from ..xpath import passes

        alphabet = (frozenset(self.edtd.concrete_labels())
                    if self.edtd is not None else None)

        def canon(expr):
            if expr is None:
                return None
            return passes.canonical(expr, alphabet=alphabet)

        return replace(self, phi=canon(self.phi), alpha=canon(self.alpha),
                       beta=canon(self.beta))


class Verdict(enum.Enum):
    """Outcome of a satisfiability or containment check."""

    #: Satisfiable / not contained — a concrete witness tree exists.
    SATISFIABLE = "satisfiable"
    #: Proven unsatisfiable / contained (the search bound was conclusive).
    UNSATISFIABLE = "unsatisfiable"
    #: No witness up to the search bound; not a proof.
    NO_WITNESS_WITHIN_BOUND = "no-witness-within-bound"


@dataclass(frozen=True)
class SatResult:
    """Result of a (node or path) satisfiability check."""

    verdict: Verdict
    witness: XMLTree | None = None
    witness_node: int | None = None
    explored_up_to: int | None = None
    trees_checked: int = 0
    #: Optional observability payload: a ``repro.obs.RunRecord`` dict
    #: describing the run that produced this result (None unless the caller
    #: asked for stats).
    stats: dict | None = None

    def __bool__(self) -> bool:
        """Truthy iff satisfiable."""
        return self.verdict is Verdict.SATISFIABLE

    @property
    def conclusive(self) -> bool:
        return self.verdict is not Verdict.NO_WITNESS_WITHIN_BOUND

    def with_stats(self, stats: dict | None) -> "SatResult":
        """The same result carrying an observability record."""
        return replace(self, stats=stats)


@dataclass(frozen=True)
class ContainmentResult:
    """Result of a containment check ``α ⊑ β``.

    A *counterexample* is a tree plus a pair in ``[[α]] \\ [[β]]``.  For
    equivalence checks, ``per_direction`` carries the exact per-direction
    results (forward ``α ⊑ β`` first; a direction that was short-circuited
    is ``None``) — the top-level ``explored_up_to``/``trees_checked`` are
    aggregates and cannot express, e.g., one conclusive and one bounded
    direction.
    """

    verdict: Verdict
    counterexample: XMLTree | None = None
    counterexample_pair: tuple[int, int] | None = None
    explored_up_to: int | None = None
    trees_checked: int = 0
    #: Optional observability payload (see :class:`SatResult.stats`).
    stats: dict | None = None
    #: For equivalence checks: (forward, backward) direction results.
    per_direction: tuple["ContainmentResult | None",
                         "ContainmentResult | None"] | None = field(
        default=None, compare=False)

    def __bool__(self) -> bool:
        """Truthy iff containment *holds* (as far as the check could tell);
        use :attr:`conclusive` to distinguish proof from bounded evidence."""
        return self.verdict is not Verdict.SATISFIABLE

    @property
    def contained(self) -> bool:
        return self.verdict is not Verdict.SATISFIABLE

    @property
    def conclusive(self) -> bool:
        return self.verdict is not Verdict.NO_WITNESS_WITHIN_BOUND

    def with_stats(self, stats: dict | None) -> "ContainmentResult":
        """The same result carrying an observability record."""
        return replace(self, stats=stats)
