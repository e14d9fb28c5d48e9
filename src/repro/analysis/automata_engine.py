"""The ``automata`` engine: Theorem 10's decision procedure, registered.

Satisfiability of a CoreXPath(*, ≈) node expression is decided by building
the Table III 2ATA (:func:`repro.automata.build_twoata`) and checking
emptiness over the first-child/next-sibling encoding
(:func:`repro.automata.emptiness.decide_emptiness`); containment goes
through the Prop. 4 reduction first, exactly as the paper composes
Theorem 10 with Proposition 4.  Verdicts are conclusive in both
directions — a containment that holds is *proven*, a non-containment
yields a witness tree — which is what the bounded searches in
:mod:`repro.analysis.engines` cannot offer without a user-supplied bound.

Slots into the cost ladder between the Figure 2 downward engine
(``expspace``, cost 10, schema-aware but downward-only) and the bounded
fallback (cost 100): it admits the full CoreXPath(*, ≈) fragment but no
EDTD, plus ``∩`` directly under an existential test: ``⟨(α ∩ β)[φ]⟩`` is
``α[φ] ≈ β`` (§2.2), so through Prop. 4 an ``∩`` at the top of either
side of a containment is admitted too.  Like ``expspace`` it declines at
runtime — ``solve`` raises :class:`~repro.analysis.registry.EngineDeclined`
naming the guard, and the registry falls through to ``bounded`` — when the
automaton has more than :attr:`AutomataEngine.max_states` states or the
summary saturation outgrows its guards
(:class:`~repro.automata.emptiness.EmptinessLimit`).

The decoded witness tree is checked by the registry against the input
formula, as it was before the ``∩ → ≈`` rewrite, so a checker bug can
surface as an engine error but never as a quietly wrong SAT verdict.
"""

from __future__ import annotations

from ..automata import build_twoata
from ..automata.emptiness import EmptinessLimit, EmptinessResult, decide_emptiness
from ..semantics import TreeContext, compile_plan
from ..xpath.ast import NodeExpr, SomePath
from ..xpath.fragments import CORE_STAR_EQ
from ..xpath.rewrite import intersect_tests_via_eq
from .problems import ContainmentResult, Problem, ProblemKind, SatResult, Verdict
from .registry import Engine, EngineDeclined, default_registry

__all__ = ["AutomataEngine"]


class AutomataEngine(Engine):
    """2ATA emptiness (Theorem 10) for CoreXPath(*, ≈), schemaless, plus
    ``∩`` directly under an existential test (rewritten to ``≈``)."""

    name = "automata"
    conclusive = True
    cost_hint = 40

    #: Summary-search guards handed to :func:`decide_emptiness`; sized so a
    #: declining run costs a couple of seconds at most.  Tests and
    #: benchmarks that want the full worst-case procedure can raise them
    #: per instance.  ``max_states`` gates before saturation even starts:
    #: past it, per-evaluation cost alone makes the guards unreachable in
    #: reasonable time.
    max_states = 600
    max_evals = 120_000
    max_entries = 5_000
    max_contexts = 1_000

    def admits(self, problem: Problem) -> bool:
        if problem.edtd is not None:
            return False
        if problem.kind is ProblemKind.SATISFIABILITY:
            return CORE_STAR_EQ.admits(intersect_tests_via_eq(problem.phi))
        if problem.kind is ProblemKind.CONTAINMENT:
            # Prop. 4 puts each side directly under a test, ⟨ᾱ[1]⟩ and
            # ¬⟨β̄[1]⟩, so an ∩ at the top of either side becomes ≈ there.
            return all(CORE_STAR_EQ.admits(intersect_tests_via_eq(SomePath(path)))
                       for path in (problem.alpha, problem.beta))
        return False

    def solve(self, problem: Problem,
              session=None) -> SatResult | ContainmentResult:
        # The worker-local schema session: emptiness checks over one
        # schema share the compiled alphabet partition and the bitset
        # kernel's relation memos across the whole batch instead of
        # rebuilding them per problem.
        from .session import session_for

        if session is None:
            session = session_for(problem)
        if problem.kind is ProblemKind.SATISFIABILITY:
            empty, witness, node = self._check(problem.phi, session,
                                               session.compiled.partition)
            if empty:
                return SatResult(Verdict.UNSATISFIABLE)
            return SatResult(Verdict.SATISFIABLE, witness, node,
                             explored_up_to=witness.size, trees_checked=1)

        from .reductions import containment_to_node_unsat

        reduction = containment_to_node_unsat(problem.alpha, problem.beta)
        empty, witness, node = self._check(
            reduction.formula, session, session.compiled.decorated_partition())
        if empty:
            return ContainmentResult(Verdict.UNSATISFIABLE)
        tree, pair = reduction.decode(witness, node)
        return ContainmentResult(Verdict.SATISFIABLE, tree, pair,
                                 explored_up_to=tree.size, trees_checked=1)

    def _check(self, phi: NodeExpr, session=None,
               partition=None) -> tuple[bool, object, object]:
        """Emptiness of ``A_φ``: ``(empty, witness, witness_node)``; raises
        :class:`EngineDeclined` when the automaton or the saturation
        outgrows its guards.  The automaton is built for φ with every
        ``⟨α ∩ β⟩`` test rewritten to ``α ≈ β``
        (:func:`~repro.xpath.rewrite.intersect_tests_via_eq`); the witness
        node is the least node of the witness where φ itself holds (the
        root when none does, which the registry's witness check rejects).
        ``partition`` is the compiled schema's alphabet-partition seed;
        :func:`build_twoata` adopts it only when it matches the formula's
        own mentioned labels exactly, so verdicts and counters are
        identical either way."""
        automaton = build_twoata(intersect_tests_via_eq(phi),
                                 partition=partition)
        if automaton.num_states > self.max_states:
            raise EngineDeclined(f"2ATA has {automaton.num_states} states "
                                 f"(> max_states={self.max_states})")
        try:
            result: EmptinessResult = decide_emptiness(
                automaton,
                max_evals=self.max_evals,
                max_entries=self.max_entries,
                max_contexts=self.max_contexts,
                shared=session.kernel_cache if session is not None else None,
            )
        except EmptinessLimit as guard:
            raise EngineDeclined(str(guard)) from guard
        if result.empty:
            return True, None, None
        nodes = compile_plan(phi).run_single(TreeContext(result.witness))
        return False, result.witness, min(nodes, default=0)


default_registry().register(AutomataEngine())
