"""Tests for 2ATA emptiness (Theorem 10) and the ``automata`` engine.

Three layers:

* unit tests of :func:`repro.automata.emptiness.decide_emptiness` on
  hand-picked formulas with known verdicts;
* the engine contract — admission, conclusiveness, runtime declines,
  telemetry;
* differential sweeps against the bounded search over random
  CoreXPath(*, ≈) families: wherever both engines are conclusive the
  verdicts must agree, and every SAT witness must actually satisfy the
  formula under the reference semantics (``Plan.run``).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import contains, satisfiable
from repro.analysis.automata_engine import AutomataEngine
from repro.analysis.problems import Problem, ProblemKind, Verdict
from repro.analysis.registry import EngineDeclined
from repro.automata import build_twoata, decide_emptiness
from repro.automata.emptiness import (
    DEFAULT_MAX_CONTEXTS,
    DEFAULT_MAX_ENTRIES,
    DEFAULT_MAX_EVALS,
    _BitsetChecker,
    _ReferenceChecker,
)
from repro.semantics import TreeContext, compile_plan
from repro.xpath import parse_node

from .helpers import random_node, random_path, relation_as_pairs

#: CoreXPath(*, ≈): transitive closure and path equality, no ∩ / ∖.
STAR_EQ = frozenset({"star", "eq"})


#: Hand-picked formulas with known verdicts (also the bitset-kernel corpus).
UNSAT = [
    "p and not p",
    "<up> and not <up>",
    "p and not <down*[p]>",
    "<down> and not <down[p]> and not <down[not p]>",
]
SAT = [
    "p",
    "p and <down[q]>",
    "<up[q]> and p",
    "not <up> and <down*[q and not <down>]>",
    "<left> and <right>",
]


class TestDecideEmptiness:
    @pytest.mark.parametrize("source", UNSAT)
    def test_unsatisfiable_formulas_give_empty(self, source):
        result = decide_emptiness(build_twoata(parse_node(source)))
        assert result.empty
        assert result.witness is None

    @pytest.mark.parametrize("source", SAT)
    def test_satisfiable_formulas_give_verified_witness(self, source):
        phi = parse_node(source)
        result = decide_emptiness(build_twoata(phi))
        assert not result.empty
        assert compile_plan(phi).run_single(TreeContext(result.witness))

    def test_result_carries_search_telemetry(self):
        result = decide_emptiness(build_twoata(parse_node("p")))
        assert result.entries > 0
        assert result.contexts > 0
        assert result.game_positions > 0


class TestOneDerivationPerSummary:
    """Saturation keeps exactly the derivation that discovered each
    summary, recorded after its children, so the game's verdict is "a root
    combination exists"."""

    CHECKERS = {"bitset": _BitsetChecker, "reference": _ReferenceChecker}

    @pytest.mark.parametrize("kernel", sorted(CHECKERS))
    @pytest.mark.parametrize("source", UNSAT + SAT)
    def test_each_summary_keeps_its_first_derivation(self, source, kernel):
        ata = build_twoata(parse_node(source))
        checker = self.CHECKERS[kernel](
            ata, DEFAULT_MAX_EVALS, DEFAULT_MAX_ENTRIES, DEFAULT_MAX_CONTEXTS)
        checker.saturate()
        assert checker.entries
        order = {key: index for index, key in enumerate(checker.entries)}
        for key, derivation in checker.entries.items():
            lcls, child1, child2 = derivation
            assert isinstance(lcls, int)
            for child in (child1, child2):
                assert child is None or order[child] < order[key]
            # The derivation derives its summary under its context.
            ctx_id, svec = key
            result = checker._evaluate(
                ctx_id, lcls,
                child1[1] if child1 is not None else -1,
                child2[1] if child2 is not None else -1)
            assert result.svec == svec
            assert child1 is None or child1[0] == result.ctx1
            assert child2 is None or child2[0] == result.ctx2
        verdict = decide_emptiness(ata, kernel=kernel)
        assert verdict.empty == (not checker.root_combos())


class TestAutomataEngine:
    def test_registered_between_expspace_and_bounded(self):
        from repro.analysis import default_registry
        engines = {e.name: e for e in
                   default_registry().candidates(
                       Problem(ProblemKind.SATISFIABILITY,
                               phi=parse_node("p")))}
        automata = engines["automata"]
        assert automata.conclusive
        assert engines["expspace"].cost_hint < automata.cost_hint
        assert automata.cost_hint < engines["bounded"].cost_hint

    def test_rejects_schema_and_foreign_fragments(self):
        from repro.edtd import DTD
        engine = AutomataEngine()
        with_schema = Problem(ProblemKind.SATISFIABILITY,
                              phi=parse_node("p"),
                              edtd=DTD({"p": "p*"}, root="p"))
        assert not engine.admits(with_schema)
        outside = Problem(ProblemKind.SATISFIABILITY,
                          phi=parse_node("<down except down[p]>"))
        assert not engine.admits(outside)

    def test_conclusive_unsat_where_bounded_gives_up(self):
        # Semantically (not syntactically) unsatisfiable: a grandparent
        # implies a parent.  The rewrite pipeline cannot collapse it, so
        # the ↑ axes reach dispatch and select the automata engine.
        result = satisfiable(parse_node("<up/up> and not <up>"),
                             max_nodes=3, stats=True)
        assert result.verdict is Verdict.UNSATISFIABLE
        assert result.conclusive
        assert result.stats["meta"]["engine"] == "automata"

    def test_emptiness_counters_land_in_run_records(self):
        result = satisfiable(parse_node("<up/up> and not <up>"), stats=True)
        counters = result.stats["counters"]
        assert counters["twoata.emptiness.states"] > 0
        assert counters["twoata.emptiness.bases"] > 0
        assert counters["twoata.emptiness.game_nodes"] > 0
        assert counters["twoata.emptiness.games_solved"] == 1
        assert counters["dispatch.automata"] == 1

    def test_saturation_phase_profile_lands_in_run_records(self):
        result = satisfiable(parse_node("<up/up> and not <up>"), stats=True)
        counters = result.stats["counters"]
        assert counters["twoata.emptiness.rounds"] >= 1
        assert counters["parity.games_solved"] >= 1
        assert counters["parity.recursions"] >= 1
        assert 0.0 <= result.stats["gauges"][
            "twoata.emptiness.eval_memo_hit_rate"] <= 1.0
        # Latency histograms with quantile summaries (per saturation round
        # and for the whole dispatch).
        histograms = result.stats["histograms"]
        rounds = histograms["twoata.emptiness.round_s"]
        assert rounds["count"] == counters["twoata.emptiness.rounds"]
        assert rounds["p50"] is not None and rounds["p99"] is not None
        assert rounds["p50"] <= rounds["p99"]
        assert histograms["dispatch.solve_s"]["count"] == 1
        # Phase spans nest under the emptiness solve.
        from repro.obs import RunRecord

        spans = {span["name"]
                 for span in RunRecord.from_dict(result.stats).iter_spans()}
        assert {"twoata.emptiness.saturate", "twoata.emptiness.game_build",
                "twoata.emptiness.game_solve"} <= spans

    def test_emptiness_result_reports_saturation_profile(self):
        result = decide_emptiness(
            build_twoata(parse_node("<up/up> and not <up>")))
        assert result.rounds >= 1
        assert result.evals > 0

    def test_too_many_states_declines(self):
        engine = AutomataEngine()
        engine_small = AutomataEngine()
        engine_small.max_states = 1
        problem = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"))
        assert engine.solve(problem) is not None
        with pytest.raises(EngineDeclined, match="max_states"):
            engine_small.solve(problem)


class TestDifferentialAgainstBounded:
    """Random CoreXPath(*, ≈) sweeps: automata vs bounded search.

    The bounded engine is conclusive only on the SAT side, so agreement
    means: a bounded witness forces an automata SAT, an automata UNSAT
    forces a bounded give-up, and both engines' verdicts coincide
    byte-for-byte whenever both are conclusive.
    """

    def test_node_satisfiability_sweep(self):
        rng = random.Random(7)
        engine = AutomataEngine()
        decided = 0
        for _ in range(60):
            phi = random_node(rng, 2, STAR_EQ)
            problem = Problem(ProblemKind.SATISFIABILITY, phi=phi)
            assert engine.admits(problem)
            try:
                result = engine.solve(problem)
            except EngineDeclined:  # guards tripped: dispatch falls to bounded
                continue
            decided += 1
            assert result.conclusive
            bounded = satisfiable(phi, method="bounded", max_nodes=4)
            if result.verdict is Verdict.SATISFIABLE:
                nodes = compile_plan(phi).run_single(
                    TreeContext(result.witness))
                assert result.witness_node in nodes
            else:
                assert bounded.verdict is Verdict.NO_WITNESS_WITHIN_BOUND
            if bounded.verdict is Verdict.SATISFIABLE:
                assert result.verdict is Verdict.SATISFIABLE
        assert decided >= 40

    def test_containment_sweep(self):
        rng = random.Random(11)
        engine = AutomataEngine()
        decided = 0
        for _ in range(20):
            alpha = random_path(rng, 2, STAR_EQ)
            beta = random_path(rng, 2, STAR_EQ)
            problem = Problem(ProblemKind.CONTAINMENT,
                              alpha=alpha, beta=beta)
            assert engine.admits(problem)
            try:
                result = engine.solve(problem)
            except EngineDeclined:
                continue
            decided += 1
            assert result.conclusive
            bounded = contains(alpha, beta, method="bounded", max_nodes=4)
            if result.verdict is Verdict.SATISFIABLE:
                rel_a, rel_b = compile_plan(alpha, beta).run(
                    TreeContext(result.counterexample))
                pair = result.counterexample_pair
                assert pair in relation_as_pairs(rel_a)
                assert pair not in relation_as_pairs(rel_b)
            else:
                assert bounded.verdict is not Verdict.SATISFIABLE
            if bounded.verdict is Verdict.SATISFIABLE:
                assert result.verdict is Verdict.SATISFIABLE
        assert decided >= 10
