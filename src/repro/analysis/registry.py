"""The pluggable engine registry: who decides which problem, and why.

An :class:`Engine` wraps one decision procedure behind a uniform interface:

* ``name`` — how users force it (``--engine NAME``, ``method=NAME``);
* ``admits(problem)`` — a cheap syntactic test: could this engine run at
  all on the problem's fragment/kind?
* ``conclusive`` — whether its negative verdicts are proofs;
* ``cost_hint`` — a rough ordering key; the registry tries admitted
  engines cheapest-first, so a complete polynomial-ish procedure beats
  exhaustive search beats random sampling;
* ``solve(problem, session)`` — run it, or return ``None`` to *decline at
  runtime* (e.g. the EXPSPACE engine's type space blows past its memory
  guard — something ``admits`` cannot see syntactically).  ``session`` is
  the problem's :class:`~repro.analysis.session.SchemaSession`, carrying
  the compile-once :class:`~repro.edtd.compiled.CompiledSchema` every
  engine consumes instead of rebuilding its per-schema machinery.

:func:`plan_and_run` is the single dispatch point for the whole analysis
API: ``satisfiable``/``contains``/``equivalent`` build a
:class:`~repro.analysis.problems.Problem` and call it.  Every run notes an
``engine_decision`` record — the full candidate list with admission
verdicts and the engine finally chosen — so run records explain *why* a
problem went where it did.

Engines self-register at import time; :func:`default_registry` imports the
builtin engine modules lazily to avoid import cycles with
:mod:`repro.analysis.engines` and :mod:`repro.analysis.expspace`.
"""

from __future__ import annotations

import time
from dataclasses import replace

from .. import obs
from .problems import ContainmentResult, Problem, ProblemKind, SatResult, Verdict

__all__ = [
    "Engine",
    "EngineDeclined",
    "EngineRegistry",
    "default_registry",
    "plan_and_run",
]

Result = SatResult | ContainmentResult


class EngineDeclined(ValueError):
    """A forced engine could not take its problem: it either does not admit
    the input or declined at runtime (e.g. a memory guard tripped)."""


class Engine:
    """Base class for decision engines.  Subclasses set the class attributes
    and implement :meth:`admits` and :meth:`solve`."""

    #: Registry name; also the ``dispatch.<name>`` counter suffix.
    name: str = "abstract"
    #: Whether negative verdicts from this engine are proofs.
    conclusive: bool = False
    #: Rough relative cost; the registry tries cheaper engines first.
    cost_hint: int = 100
    #: Which rewrite-pipeline level (:data:`repro.xpath.passes.PIPELINES`)
    #: this engine wants its inputs canonicalized at; ``None`` inherits the
    #: session default (set by the CLI's ``--passes`` flag).  An engine that
    #: declares a level gets the *original* problem re-canonicalized at
    #: that level before ``solve``.
    pipeline: str | None = None

    def admits(self, problem: Problem) -> bool:
        """Cheap syntactic admissibility check."""
        raise NotImplementedError

    def solve(self, problem: Problem, session=None) -> Result | None:
        """Decide ``problem``, or return ``None`` to decline at runtime.

        ``session`` is the problem's
        :class:`~repro.analysis.session.SchemaSession` (the dispatcher
        always passes it); engines resolve it themselves via
        :func:`~repro.analysis.session.session_for` when called directly
        with ``session=None``.
        """
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "name": self.name,
            "conclusive": self.conclusive,
            "cost_hint": self.cost_hint,
            "pipeline": self.pipeline,
        }


class EngineRegistry:
    """An ordered collection of engines plus the dispatch policy."""

    def __init__(self) -> None:
        self._engines: dict[str, Engine] = {}

    def register(self, engine: Engine) -> Engine:
        """Add (or replace) an engine under its name."""
        self._engines[engine.name] = engine
        return engine

    def names(self) -> list[str]:
        return sorted(self._engines)

    def get(self, name: str) -> Engine:
        engine = self._engines.get(name)
        if engine is None:
            raise ValueError(
                f"unknown engine {name!r} (registered: {', '.join(self.names())})"
            )
        return engine

    def candidates(self, problem: Problem) -> list[Engine]:
        """All registered engines in dispatch order (cheapest first)."""
        return sorted(self._engines.values(),
                      key=lambda engine: (engine.cost_hint, engine.name))

    def plan_and_run(self, problem: Problem, *,
                     exclude: frozenset[str] = frozenset(),
                     progress=None) -> Result:
        """Dispatch ``problem`` to an engine and return its result.

        With ``problem.engine`` set, that engine must admit and solve the
        problem (declining raises :class:`EngineDeclined`; an engine
        exception is re-raised) — except for equivalence, where the
        preference is forwarded to the per-direction subproblems.
        Otherwise admitted engines are tried cheapest-first until one
        produces a result; an engine that *raises* mid-``solve`` is treated
        like a runtime decline — the error is recorded on its
        ``engine_decision`` entry and dispatch falls through to the next
        admitted engine, re-raising only when no engine remains.  A
        :class:`EngineDeclined` escaping ``solve`` (a nested dispatch whose
        engine declined) is a *clean* decline, not an error: the entry is
        marked ``declined`` and ``dispatch.declined.<name>`` counted, never
        ``dispatch.error.<name>``.  When no engine is left to try, the
        dispatch raises :class:`EngineDeclined` too.

        ``exclude`` names engines this dispatch must not try (a worker
        resuming the ladder after a timed-out engine).  ``progress``, if
        given, is called as ``progress(event, engine_name, detail)`` around
        every top-level attempt: ``("trying", name, None)`` before
        ``solve``, then ``("declined", name, reason)``, ``("failed", name,
        exception)`` or ``("result", name, result)``.  Nested dispatches
        (equivalence sub-containments) do not report through it.

        Every problem is canonicalized by the rewrite pipeline
        (:mod:`repro.xpath.passes`) before admission checks and dispatch,
        at the session level — so fragment tests, plan-cache keys and
        verdict-cache keys all see canonical forms.  An engine that
        declares its own ``pipeline`` level gets the original problem
        re-canonicalized at that level instead (memoized, so this costs a
        dictionary hit).
        """
        original = problem
        problem = problem.canonical()
        notify = progress or _no_progress
        candidates = [engine for engine in self.candidates(problem)
                      if engine.name not in exclude]
        decision: list[dict] = []
        chosen: Engine | None = None
        forced = problem.engine
        if forced is not None and problem.kind is not ProblemKind.EQUIVALENCE:
            if forced in exclude:
                raise EngineDeclined(f"engine {forced!r} was already tried")
            engine = self.get(forced)
            decision = [dict(engine.describe(), admits=engine.admits(problem),
                             forced=True)]
            if not decision[0]["admits"]:
                obs.note("engine_decision", {"candidates": decision,
                                             "chosen": None})
                raise EngineDeclined(
                    f"engine {forced!r} does not admit this "
                    f"{problem.kind.value} problem"
                )
            chosen = engine
        else:
            for engine in candidates:
                admitted = engine.admits(problem)
                decision.append(dict(engine.describe(), admits=admitted))
                if admitted and chosen is None:
                    chosen = engine
        last_error: Exception | None = None
        dispatch_start = time.perf_counter()
        session = None  # the canonical problem's session, resolved lazily
        with obs.span("dispatch", problem=problem.kind.value):
            from .session import session_for

            while chosen is not None:
                solve_input = problem if chosen.pipeline is None \
                    else original.canonical(chosen.pipeline)
                if solve_input is problem:
                    if session is None:
                        session = session_for(problem)
                    attempt_session = session
                else:
                    # A custom-pipeline canonical form may mention a
                    # different label alphabet — its own schema.
                    attempt_session = session_for(solve_input)
                notify("trying", chosen.name, None)
                try:
                    result = chosen.solve(solve_input, attempt_session)
                except EngineDeclined as declined:
                    # A *clean* decline surfacing as an exception — e.g. a
                    # nested dispatch (equivalence sub-containments) whose
                    # forced engine declined.  This is not an engine bug:
                    # record it exactly like a ``solve() -> None`` decline
                    # so ``engine_decision`` keeps declines and errors
                    # distinguishable, and never count ``dispatch.error.*``.
                    for entry in decision:
                        if entry["name"] == chosen.name:
                            entry["declined"] = True
                    obs.count(f"dispatch.declined.{chosen.name}")
                    notify("declined", chosen.name, str(declined))
                    if forced is not None:
                        obs.note("engine_decision", {"candidates": decision,
                                                     "chosen": None})
                        raise
                    last_error = declined
                    result = None
                except Exception as error:
                    # An engine bug or an uncaught guard must not abort the
                    # whole dispatch: record the failure on the decision
                    # entry and fall through like a runtime decline.
                    for entry in decision:
                        if entry["name"] == chosen.name:
                            entry["error"] = f"{type(error).__name__}: {error}"
                    obs.count(f"dispatch.error.{chosen.name}")
                    notify("failed", chosen.name, error)
                    if forced is not None:
                        obs.note("engine_decision", {"candidates": decision,
                                                     "chosen": None})
                        raise
                    last_error = error
                    result = None
                else:
                    if result is not None:
                        obs.note("engine_decision",
                                 {"candidates": decision, "chosen": chosen.name})
                        obs.observe("dispatch.solve_s",
                                    time.perf_counter() - dispatch_start)
                        notify("result", chosen.name, result)
                        return result
                    # Runtime decline: mark it and fall through to the next
                    # admitted candidate (or fail if the engine was forced).
                    for entry in decision:
                        if entry["name"] == chosen.name:
                            entry["declined"] = True
                    obs.count(f"dispatch.declined.{chosen.name}")
                    notify("declined", chosen.name, "declined at runtime")
                    if forced is not None:
                        obs.note("engine_decision", {"candidates": decision,
                                                     "chosen": None})
                        raise EngineDeclined(
                            f"engine {forced!r} declined this "
                            f"{problem.kind.value} problem at runtime"
                        )
                chosen = next(
                    (engine for engine in candidates
                     if engine.admits(problem)
                     and not any(entry["name"] == engine.name
                                 and (entry.get("declined")
                                      or "error" in entry)
                                 for entry in decision)),
                    None,
                )
        obs.note("engine_decision", {"candidates": decision, "chosen": None})
        if last_error is not None:
            raise last_error
        raise EngineDeclined(
            f"no registered engine admits this {problem.kind.value} problem"
        )


def _no_progress(event: str, engine: str, detail) -> None:
    """The default :meth:`EngineRegistry.plan_and_run` progress hook."""


class BidirectionalEngine(Engine):
    """Decides equivalence as two containment subproblems.

    The per-direction results are preserved verbatim on
    ``ContainmentResult.per_direction``; the aggregate ``explored_up_to``
    is the tightest bound over the *inconclusive* directions only (a
    conclusively-decided direction imposes no bound), and
    ``trees_checked`` is the total work.
    """

    name = "bidirectional"
    conclusive = False  # conclusive iff both directions are.
    cost_hint = 50

    def admits(self, problem: Problem) -> bool:
        return problem.kind is ProblemKind.EQUIVALENCE

    def solve(self, problem: Problem,
              session=None) -> ContainmentResult:
        # The per-direction subproblems resolve their own sessions inside
        # the nested dispatch; the equivalence-level session is unused.
        assert problem.alpha is not None and problem.beta is not None
        forward_problem = Problem(
            ProblemKind.CONTAINMENT, alpha=problem.alpha, beta=problem.beta,
            edtd=problem.edtd, max_nodes=problem.max_nodes,
            engine=problem.engine,
        )
        with obs.span("direction", which="forward"):
            forward = plan_and_run(forward_problem)
        assert isinstance(forward, ContainmentResult)
        if forward.verdict is Verdict.SATISFIABLE:
            return _with_directions(forward, (forward, None))
        backward_problem = Problem(
            ProblemKind.CONTAINMENT, alpha=problem.beta, beta=problem.alpha,
            edtd=problem.edtd, max_nodes=problem.max_nodes,
            engine=problem.engine,
        )
        with obs.span("direction", which="backward"):
            backward = plan_and_run(backward_problem)
        assert isinstance(backward, ContainmentResult)
        if backward.verdict is Verdict.SATISFIABLE:
            return _with_directions(backward, (forward, backward))
        verdict = Verdict.UNSATISFIABLE
        if not (forward.conclusive and backward.conclusive):
            verdict = Verdict.NO_WITNESS_WITHIN_BOUND
        bounds = [direction.explored_up_to
                  for direction in (forward, backward)
                  if not direction.conclusive]
        return ContainmentResult(
            verdict,
            explored_up_to=min((b for b in bounds if b is not None),
                               default=None),
            trees_checked=forward.trees_checked + backward.trees_checked,
            per_direction=(forward, backward),
        )


def _with_directions(
    result: ContainmentResult,
    directions: tuple[ContainmentResult | None, ContainmentResult | None],
) -> ContainmentResult:
    return replace(result, per_direction=directions)


_DEFAULT: EngineRegistry | None = None


def default_registry() -> EngineRegistry:
    """The process-wide registry, with the builtin engines loaded."""
    global _DEFAULT
    if _DEFAULT is None:
        registry = EngineRegistry()
        registry.register(BidirectionalEngine())
        _DEFAULT = registry
        # Builtin engine modules self-register on import; imported lazily
        # here to break the cycle analysis.engines -> ... -> registry.
        from . import automata_engine as _automata  # noqa: F401
        from . import engines as _engines  # noqa: F401
        from . import expspace as _expspace  # noqa: F401
        from . import patterns as _patterns  # noqa: F401
    return _DEFAULT


def plan_and_run(problem: Problem) -> Result:
    """Dispatch ``problem`` through the default registry."""
    return default_registry().plan_and_run(problem)
