"""The JSON wire format shared by ``repro batch`` and the daemon.

One *request record* describes one decision problem::

    {"kind": "contains",    "alpha": "...", "beta": "..."}
    {"kind": "equivalent",  "alpha": "...", "beta": "..."}
    {"kind": "satisfiable", "expr": "..."}

with optional ``id`` (echoed on the answer; callers supply a positional
default — the input line number for ``repro batch``, a server-side
sequence number for the daemon — when absent), ``max_nodes``, ``engine``,
and — server only, checked by admission control — ``timeout`` and
``passes``.  One *answer record* carries the verdict plus the outcome
metadata: the deciding ``engine``, ``cache`` provenance and
``elapsed_s``, and — only when the solve had any — ``engine_failures``,
``declined`` (each runtime decline before the deciding engine, as
``{"engine", "reason"}``) and ``timeouts``.  Those three describe a
solve, so a cache hit carries none of them.

:func:`parse_problem_record` and :func:`outcome_record` are the single
implementation of both directions: the batch CLI, the daemon's HTTP and
JSONL endpoints, and the ``repro batch --server`` client all go through
them, so a server-decided batch is record-for-record identical to a
locally decided one.
"""

from __future__ import annotations

from ..analysis.problems import DEFAULT_MAX_NODES, Problem, ProblemKind

__all__ = ["KINDS", "outcome_record", "parse_problem_record"]

#: The request kinds the wire format knows.
KINDS = ("satisfiable", "contains", "equivalent")


def parse_problem_record(
    data,
    *,
    edtd=None,
    default_max_nodes: int = DEFAULT_MAX_NODES,
    default_engine: str | None = None,
) -> tuple[object, str, Problem]:
    """One decoded request object → ``(record_id, kind_name, Problem)``.

    ``record_id`` is the request's ``id`` field, ``None`` when absent —
    the caller substitutes its own default.  Raises :class:`ValueError`
    with a human-readable message on malformed input (not a JSON object,
    unknown ``kind`` or ``engine``, a ``max_nodes`` — the record's or the
    caller's default — that is not an integer ≥ 1, missing expression
    fields, expression syntax errors); callers scope the message
    (``line N: …``) themselves.
    """
    from ..analysis.registry import default_registry
    from ..xpath import parse_node, parse_path

    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    kind_name = data.get("kind", "contains")
    record_id = data.get("id")
    max_nodes = data.get("max_nodes", default_max_nodes)
    if not isinstance(max_nodes, int) or isinstance(max_nodes, bool) \
            or max_nodes < 1:
        raise ValueError("max_nodes must be an integer >= 1, "
                         f"not {max_nodes!r}")
    engine = data.get("engine", default_engine)
    if engine is not None and engine not in default_registry().names():
        raise ValueError(f"unknown engine {engine!r}")
    try:
        if kind_name == "satisfiable":
            problem = Problem(ProblemKind.SATISFIABILITY,
                              phi=parse_node(data["expr"]), edtd=edtd,
                              max_nodes=max_nodes, engine=engine)
        elif kind_name in ("contains", "equivalent"):
            kind = (ProblemKind.CONTAINMENT if kind_name == "contains"
                    else ProblemKind.EQUIVALENCE)
            problem = Problem(kind, alpha=parse_path(data["alpha"]),
                              beta=parse_path(data["beta"]), edtd=edtd,
                              max_nodes=max_nodes, engine=engine)
        else:
            raise ValueError(f"unknown kind {kind_name!r} (expected "
                             "'satisfiable', 'contains' or 'equivalent')")
    except KeyError as error:
        raise ValueError(
            f"missing field {error.args[0]!r}") from error
    return record_id, kind_name, problem


def outcome_record(record_id, kind_name: str, outcome) -> dict:
    """One :class:`~repro.parallel.runner.BatchOutcome` → its JSON answer
    record (the exact shape ``repro batch`` has always emitted)."""
    record: dict = {"id": record_id, "kind": kind_name}
    result = outcome.result
    if result is None:
        record["error"] = outcome.error
    else:
        record["verdict"] = result.verdict.value
        record["conclusive"] = result.conclusive
        if kind_name in ("contains", "equivalent"):
            record["contained"] = result.contained
            if result.counterexample_pair is not None:
                record["counterexample_pair"] = list(result.counterexample_pair)
    record["engine"] = outcome.engine
    record["cache"] = "hit" if outcome.cache_hit else "miss"
    record["elapsed_s"] = round(outcome.worker_time_s, 6)
    if outcome.failures:
        record["engine_failures"] = [
            {"engine": failure.engine, "error": failure.error_type,
             "message": failure.message}
            for failure in outcome.failures
        ]
    declined = [{"engine": attempt["engine"], "reason": attempt["reason"]}
                for attempt in outcome.attempts
                if attempt["status"] == "declined"]
    if declined:
        record["declined"] = declined
    timeouts = [attempt["engine"] for attempt in outcome.attempts
                if attempt["status"] == "timeout"]
    if timeouts:
        record["timeouts"] = timeouts
    return record
