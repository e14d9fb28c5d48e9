"""Top-level static-analysis API: satisfiability, containment, equivalence.

These are thin wrappers: each builds a
:class:`~repro.analysis.problems.Problem` and hands it to the engine
registry (:func:`repro.analysis.registry.plan_and_run`).  Which procedure
runs — the patterns engine, the complete Figure 2 EXPSPACE engine, 2ATA
emptiness, bounded model search — is decided entirely by the registered
engines' ``admits``/``cost_hint`` declarations; no engine-specific
branching lives here.  The chosen engine and the full candidate decision
are part of the run record.

Every public entry point takes ``stats=True`` to wrap the run in a
:mod:`repro.obs` recording: the returned result then carries a
``RunRecord`` dict (engine decision, verdict, per-span timings, counters)
in its ``stats`` field.  The ``method`` keyword is the historical name for
an engine preference: ``"auto"`` lets the registry choose, any registered
engine name forces that engine (the CLI exposes this as ``--engine``).
"""

from __future__ import annotations

from .. import obs
from ..edtd import EDTD
from ..xpath.ast import Expr, NodeExpr, PathExpr
from ..xpath.fragments import fragment_of
from ..xpath.measures import labels_used, size
from .problems import (
    DEFAULT_MAX_NODES,
    ContainmentResult,
    Problem,
    ProblemKind,
    SatResult,
)
from .registry import default_registry

__all__ = ["satisfiable", "contains", "equivalent"]


def _input_info(edtd: EDTD | None, **exprs: Expr) -> dict:
    """Size/fragment/alphabet measures of the inputs, for run records."""
    info: dict = {}
    labels: set[str] = set()
    for name, expr in exprs.items():
        info[f"{name}_size"] = size(expr)
        info[f"{name}_fragment"] = fragment_of(expr).name
        labels |= labels_used(expr)
    info["labels"] = len(labels)
    info["schema"] = edtd is not None
    return info


def _engine_preference(method: str) -> str | None:
    """Map the ``method`` keyword to an engine preference, validating the
    name against the registry."""
    if method == "auto":
        return None
    registry = default_registry()
    if method not in registry.names():
        raise ValueError(
            f"unknown method {method!r} (expected 'auto' or one of: "
            f"{', '.join(registry.names())})"
        )
    return method


def _solve(problem: Problem, command: str, stats: bool,
           **inputs: Expr) -> SatResult | ContainmentResult:
    if not stats:
        return default_registry().plan_and_run(problem)
    with obs.record(command) as recording:
        recording.note("command", command)
        recording.note("method", problem.engine or "auto")
        recording.note("inputs", _input_info(problem.edtd, **inputs))
        result = default_registry().plan_and_run(problem)
        recording.note("verdict", result.verdict.value)
        recording.note("conclusive", result.conclusive)
    return result.with_stats(recording.to_run_record().to_dict())


def satisfiable(
    phi: NodeExpr,
    edtd: EDTD | None = None,
    method: str = "auto",
    max_nodes: int = DEFAULT_MAX_NODES,
    stats: bool = False,
) -> SatResult:
    """Node satisfiability (§2.3), optionally w.r.t. an EDTD.

    ``method``: ``"auto"`` lets the registry pick the cheapest conclusive
    engine that admits the input (the complete Figure 2 engine for
    CoreXPath↓(∩), bounded search otherwise); an engine name forces that
    engine (raising if it cannot take the input).  ``stats=True`` attaches
    a :mod:`repro.obs` run record to the result.
    """
    problem = Problem(ProblemKind.SATISFIABILITY, phi=phi, edtd=edtd,
                      max_nodes=max_nodes, engine=_engine_preference(method))
    result = _solve(problem, "satisfiable", stats, phi=phi)
    assert isinstance(result, SatResult)
    return result


def contains(
    alpha: PathExpr,
    beta: PathExpr,
    edtd: EDTD | None = None,
    method: str = "auto",
    max_nodes: int = DEFAULT_MAX_NODES,
    stats: bool = False,
) -> ContainmentResult:
    """Path containment ``α ⊑ β`` (§2.3), optionally w.r.t. an EDTD.

    With ``method="auto"``, downward-∩ inputs are decided conclusively via
    the Prop. 4 reduction into the Figure 2 engine; other inputs are checked
    by exhaustive counterexample search up to ``max_nodes``.  ``stats=True``
    attaches a :mod:`repro.obs` run record to the result.
    """
    problem = Problem(ProblemKind.CONTAINMENT, alpha=alpha, beta=beta,
                      edtd=edtd, max_nodes=max_nodes,
                      engine=_engine_preference(method))
    result = _solve(problem, "contains", stats, alpha=alpha, beta=beta)
    assert isinstance(result, ContainmentResult)
    return result


def equivalent(
    alpha: PathExpr,
    beta: PathExpr,
    edtd: EDTD | None = None,
    method: str = "auto",
    max_nodes: int = DEFAULT_MAX_NODES,
    stats: bool = False,
) -> ContainmentResult:
    """Two-sided containment.  Returns the first failing direction's result
    (or, when both directions hold, an aggregate whose ``per_direction``
    field carries the exact per-direction figures)."""
    problem = Problem(ProblemKind.EQUIVALENCE, alpha=alpha, beta=beta,
                      edtd=edtd, max_nodes=max_nodes,
                      engine=_engine_preference(method))
    result = _solve(problem, "equivalent", stats, alpha=alpha, beta=beta)
    assert isinstance(result, ContainmentResult)
    return result
