"""The pluggable engine registry: who decides which problem, and why.

An :class:`Engine` wraps one decision procedure behind a uniform interface:

* ``name`` — how users force it (``--engine NAME``, ``method=NAME``);
* ``admits(problem)`` — a cheap syntactic test: could this engine run at
  all on the problem's fragment/kind?
* ``conclusive`` — whether its negative verdicts are proofs;
* ``cost_hint`` — a rough ordering key; the registry tries admitted
  engines cheapest-first, so a complete polynomial-ish procedure beats
  exhaustive search;
* ``solve(problem, session)`` — decide it, or raise
  :class:`EngineDeclined` with a reason to *decline at runtime* (e.g. the
  EXPSPACE engine's type space blows past its memory guard — something
  ``admits`` cannot see syntactically).  ``session`` is the problem's
  :class:`~repro.analysis.session.SchemaSession`, carrying the
  compile-once :class:`~repro.edtd.compiled.CompiledSchema` every engine
  consumes instead of rebuilding its per-schema machinery.

Engines only decide.  :func:`plan_and_run` is the single dispatch point
for the whole analysis API (``satisfiable``/``contains``/``equivalent``
build a :class:`~repro.analysis.problems.Problem` and call it), and the
only code that handles what happens around an attempt: it opens the
attempt's ``engine.<name>`` span, records a decline with its reason or an
error, checks every witness against the problem's models (§2.3), and
notes and counts the engine that answered.  Every run notes an
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
from ..xpath.ast import Complement, Intersect, SomePath, Union
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
    """An engine does not take a problem: raised by ``solve`` to decline at
    runtime (its message is the reason, e.g. which guard tripped), and by
    the dispatch when a forced engine does not admit or declines."""


class Engine:
    """Base class for decision engines.  Subclasses set the class attributes
    and implement :meth:`admits` and :meth:`solve`."""

    #: Registry name; also the ``dispatch.<name>`` counter suffix.
    name: str = "abstract"
    #: Whether negative verdicts from this engine are proofs.
    conclusive: bool = False
    #: Rough relative cost; the registry tries cheaper engines first.
    cost_hint: int = 100

    def admits(self, problem: Problem) -> bool:
        """Cheap syntactic admissibility check."""
        raise NotImplementedError

    def solve(self, problem: Problem, session=None) -> Result:
        """Decide ``problem``, or raise :class:`EngineDeclined` with the
        reason to decline at runtime.

        Only the decision belongs here: :meth:`EngineRegistry.plan_and_run`
        traces the attempt, checks a witness, and notes and counts the
        engine that answered.  ``session`` is the problem's
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

        One admission pass asks every candidate not in ``exclude`` whether
        it ``admits`` the problem; the admitted ones form the ladder, tried
        cheapest-first until one produces a result.  With ``problem.engine``
        set the ladder has that one engine (its ``engine_decision`` entry
        carries ``forced: True``), which must admit and solve the problem:
        not admitting or declining raises :class:`EngineDeclined`, an
        engine exception is re-raised — except for equivalence, where the
        preference is forwarded to the per-direction subproblems.

        Each attempt runs in an ``engine.<name>`` span whose ``status`` is
        ``result``, ``declined`` or ``failed``.  A ``SATISFIABLE`` result
        must pass :func:`_check_witness` — its witness is evaluated on a
        compiled plan of the dispatched problem, and must conform to the
        problem's EDTD — before it counts as an answer; the engine that
        answered is then noted as the run's ``engine`` and counted as
        ``dispatch.<name>``.  An attempt ends without a result in two
        ways: ``solve`` raises :class:`EngineDeclined` (a *clean*
        decline: the entry is marked ``declined`` with the message as its
        ``reason``, and ``dispatch.declined.<name>`` is counted), or
        anything else is raised, a failed witness check included (an
        engine error: the entry records it under ``error`` and
        ``dispatch.error.<name>`` is counted).  Either way an unforced
        dispatch falls through to the next admitted engine; when none is
        left it re-raises the last error, or raises
        :class:`EngineDeclined` naming every decline's reason.  Each dispatch
        notes one ``engine_decision`` record on exit — every candidate
        with its admission verdict and any ``declined``/``error`` mark,
        plus the engine chosen (``None`` on failure) — except that an
        unknown or already-tried forced engine raises before anything is
        recorded.

        ``exclude`` names engines this dispatch must not try (a worker
        resuming the ladder after a timed-out engine).  ``progress``, if
        given, is called as ``progress(event, engine_name, detail)`` around
        every top-level attempt: ``("trying", name, None)`` before
        ``solve``, then ``("declined", name, reason)``, ``("failed", name,
        exception)`` or ``("result", name, result)``.  Nested dispatches
        (equivalence sub-containments) do not report through it.

        Every problem is canonicalized by the rewrite pipeline
        (:mod:`repro.xpath.passes`) before admission checks and dispatch,
        at the session level — so fragment tests, plan-cache keys,
        verdict-cache keys and every engine see the same canonical form.
        """
        problem = problem.canonical()
        notify = progress or _no_progress
        kind = problem.kind.value
        forced = problem.engine \
            if problem.kind is not ProblemKind.EQUIVALENCE else None
        if forced is None:
            candidates = [engine for engine in self.candidates(problem)
                          if engine.name not in exclude]
        elif forced in exclude:
            raise EngineDeclined(f"engine {forced!r} was already tried")
        else:
            candidates = [self.get(forced)]
        decision: list[dict] = []
        ladder: list[tuple[Engine, dict]] = []
        for engine in candidates:
            entry = dict(engine.describe(), admits=engine.admits(problem))
            if forced is not None:
                entry["forced"] = True
            decision.append(entry)
            if entry["admits"]:
                ladder.append((engine, entry))
        chosen: str | None = None
        try:
            if forced is not None and not ladder:
                raise EngineDeclined(
                    f"engine {forced!r} does not admit this {kind} problem")
            last_error: Exception | None = None
            dispatch_start = time.perf_counter()
            with obs.span("dispatch", problem=kind):
                from .session import session_for

                session = session_for(problem) if ladder else None
                for engine, entry in ladder:
                    name = engine.name
                    notify("trying", name, None)
                    with obs.span(f"engine.{name}") as span:
                        try:
                            result = engine.solve(problem, session)
                            if result.verdict is Verdict.SATISFIABLE:
                                _check_witness(problem, result)
                        except EngineDeclined as decline:
                            span.annotate(status="declined")
                            entry.update(declined=True, reason=str(decline))
                            obs.count(f"dispatch.declined.{name}")
                            notify("declined", name, str(decline))
                            if forced is not None:
                                raise EngineDeclined(
                                    f"engine {forced!r} declined this {kind} "
                                    f"problem at runtime: {decline}"
                                ) from decline
                            continue
                        except Exception as error:
                            # An engine bug, an uncaught guard or a witness
                            # that fails its check must not abort the whole
                            # dispatch.
                            span.annotate(status="failed")
                            entry["error"] = f"{type(error).__name__}: {error}"
                            obs.count(f"dispatch.error.{name}")
                            notify("failed", name, error)
                            if forced is not None:
                                raise
                            last_error = error
                            continue
                        span.annotate(status="result")
                    chosen = name
                    obs.note("engine", name)
                    obs.count(f"dispatch.{name}")
                    obs.observe("dispatch.solve_s",
                                time.perf_counter() - dispatch_start)
                    notify("result", name, result)
                    return result
            if last_error is not None:
                raise last_error
            reasons = "; ".join(f"{entry['name']}: {entry['reason']}"
                                for entry in decision if "reason" in entry)
            raise EngineDeclined(
                f"no registered engine admits this {kind} problem"
                + (f" ({reasons})" if reasons else ""))
        finally:
            obs.note("engine_decision",
                     {"candidates": decision, "chosen": chosen})


def _check_witness(problem: Problem, result: Result) -> None:
    """Raise unless the ``SATISFIABLE`` ``result`` is a model of
    ``problem`` (§2.3), evaluated on a compiled plan of its expressions.

    Satisfiability: ``witness_node`` is in ``[[φ]]`` on ``witness``.
    Containment: ``counterexample_pair`` is in ``[[α]]`` and not in
    ``[[β]]``.  Equivalence: the pair is in exactly one of them.  With an
    EDTD the tree must also conform to it.
    """
    from ..semantics import TreeContext, compile_plan

    if isinstance(result, SatResult):
        tree = result.witness
        assert tree is not None and problem.phi is not None
        satisfied = compile_plan(problem.phi).run_single(TreeContext(tree))
        if result.witness_node not in satisfied:
            raise RuntimeError(f"witness node {result.witness_node} does not "
                               "satisfy the formula")
    else:
        tree, pair = result.counterexample, result.counterexample_pair
        assert tree is not None and pair is not None
        source, target = pair
        in_alpha, in_beta = (
            target in relation.get(source, ()) for relation in
            compile_plan(problem.alpha, problem.beta).run(TreeContext(tree)))
        if problem.kind is ProblemKind.EQUIVALENCE:
            if in_alpha == in_beta:
                raise RuntimeError(f"counterexample {pair} does not separate "
                                   "the two sides")
        elif not in_alpha or in_beta:
            raise RuntimeError(f"counterexample {pair} does not refute the "
                               "containment")
    if problem.edtd is not None and not problem.edtd.conforms(tree):
        raise RuntimeError("witness tree does not conform to the EDTD")


def _no_progress(event: str, engine: str, detail) -> None:
    """The default :meth:`EngineRegistry.plan_and_run` progress hook."""


class BidirectionalEngine(Engine):
    """Decides equivalence as two containment subproblems.

    The per-direction results are preserved verbatim on
    ``ContainmentResult.per_direction``; the aggregate figures are those of
    :func:`_all_hold`.
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
        return _all_hold((forward, backward),
                         per_direction=(forward, backward))


def _with_directions(
    result: ContainmentResult,
    directions: tuple[ContainmentResult | None, ContainmentResult | None],
) -> ContainmentResult:
    return replace(result, per_direction=directions)


def _all_hold(parts: tuple[Result, ...], **extra) -> ContainmentResult:
    """The containment that holds because no sub-result found a witness.

    It is proven iff every part is conclusive; ``explored_up_to`` is the
    tightest bound over the *inconclusive* parts only (a conclusively
    decided part imposes no bound), and ``trees_checked`` is the total
    work.  ``extra`` fields are passed to :class:`ContainmentResult`.
    """
    bounds = [part.explored_up_to for part in parts
              if not part.conclusive and part.explored_up_to is not None]
    return ContainmentResult(
        Verdict.UNSATISFIABLE if all(part.conclusive for part in parts)
        else Verdict.NO_WITNESS_WITHIN_BOUND,
        explored_up_to=min(bounds, default=None),
        trees_checked=sum(part.trees_checked for part in parts),
        **extra,
    )


class SplitEngine(Engine):
    """Decides a containment with a top-level ``except`` on either side
    through two exact set identities:

    * ``α ⊑ β except γ``  iff  ``α ⊑ β`` and ``⟨α intersect γ⟩`` is
      unsatisfiable;
    * ``α except γ ⊑ β``  iff  ``α ⊑ β union γ``.

    Each sub-problem goes through :func:`plan_and_run`, so ``⟨α ∩ γ⟩``
    reaches ``expspace`` when it is downward and ``automata`` (as
    ``α ≈ γ``) otherwise.  The engine admits a problem only when a
    conclusive engine admits every sub-problem: a shape nothing here can
    decide still costs one bounded search, not one per sub-problem.  Its
    counterexample is checked against the original containment by the
    dispatch, like every witness.
    """

    name = "split"
    conclusive = False  # conclusive iff every sub-problem's answer is.
    cost_hint = 50

    def admits(self, problem: Problem) -> bool:
        parts = _split(problem)
        if parts is None:
            return False
        registry = default_registry()
        return all(any(engine.conclusive and engine.admits(part)
                       for engine in registry.candidates(part))
                   for part in parts)

    def solve(self, problem: Problem, session=None) -> ContainmentResult:
        # Like the equivalence directions, every sub-problem resolves its
        # own session inside the nested dispatch.
        parts = _split(problem)
        assert parts is not None
        results: list[Result] = []
        for part in parts:
            with obs.span("subproblem", kind=part.kind.value):
                result = plan_and_run(part)
            results.append(result)
            if result.verdict is Verdict.SATISFIABLE:
                tree, pair = _counterexample(problem, part, result)
                return ContainmentResult(
                    Verdict.SATISFIABLE, tree, pair, explored_up_to=tree.size,
                    trees_checked=sum(r.trees_checked for r in results))
        return _all_hold(tuple(results))


def _split(problem: Problem) -> tuple[Problem, ...] | None:
    """The canonical sub-problems :class:`SplitEngine` decides ``problem``
    by, or ``None`` when neither side of a containment is an ``except``.
    An ``except`` on the right is split first."""
    if problem.kind is not ProblemKind.CONTAINMENT:
        return None
    alpha, beta = problem.alpha, problem.beta
    scope = {"edtd": problem.edtd, "max_nodes": problem.max_nodes}
    if isinstance(beta, Complement):
        parts = (
            Problem(ProblemKind.CONTAINMENT, alpha=alpha, beta=beta.left,
                    **scope),
            Problem(ProblemKind.SATISFIABILITY,
                    phi=SomePath(Intersect(alpha, beta.right)), **scope),
        )
    elif isinstance(alpha, Complement):
        parts = (Problem(ProblemKind.CONTAINMENT, alpha=alpha.left,
                         beta=Union(beta, alpha.right), **scope),)
    else:
        return None
    return tuple(part.canonical() for part in parts)


def _counterexample(problem: Problem, part: Problem,
                    result: Result) -> tuple:
    """``(tree, (n, m))`` refuting ``problem`` from a witness of one of its
    sub-problems (the dispatch checks it against ``problem``).

    A containment part's counterexample carries over as it is.  A witness
    node ``n`` of ``⟨α ∩ γ⟩`` yields ``(n, m)`` for the least ``m`` in
    ``α(n) ∩ γ(n)``.
    """
    if isinstance(result, ContainmentResult):
        return result.counterexample, result.counterexample_pair
    from ..semantics import TreeContext, compile_plan

    tree, node = result.witness, result.witness_node
    gamma = problem.beta.right  # type: ignore[union-attr]
    in_alpha, in_gamma = compile_plan(problem.alpha, gamma).run(
        TreeContext(tree))
    meet = in_alpha.get(node, frozenset()) & in_gamma.get(node, frozenset())
    if not meet:
        raise RuntimeError(
            f"the witness of {part.phi} has no α ∩ γ target at its node")
    return tree, (node, min(meet))


_DEFAULT: EngineRegistry | None = None


def default_registry() -> EngineRegistry:
    """The process-wide registry, with the builtin engines loaded."""
    global _DEFAULT
    if _DEFAULT is None:
        registry = EngineRegistry()
        registry.register(BidirectionalEngine())
        registry.register(SplitEngine())
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
