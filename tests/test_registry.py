"""The engine registry: dispatch policy, forcing, decision records."""

from __future__ import annotations

import pytest

from repro.analysis import (
    Problem,
    ProblemKind,
    contains,
    default_registry,
    equivalent,
    plan_and_run,
    satisfiable,
)
from repro.analysis.problems import Verdict
from repro.analysis.registry import Engine, EngineDeclined, EngineRegistry
from repro.semantics import plan_cache_info
from repro.xpath import parse_node, parse_path


class TestDefaultRegistry:
    def test_builtin_engines_are_registered(self):
        names = default_registry().names()
        for expected in ("patterns", "expspace", "automata", "bidirectional",
                         "bounded"):
            assert expected in names

    def test_candidates_ordered_by_cost(self):
        problem = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"))
        candidates = default_registry().candidates(problem)
        costs = [engine.cost_hint for engine in candidates]
        assert costs == sorted(costs)
        assert candidates[0].name == "patterns"

    def test_auto_prefers_cheapest_conclusive_engine(self):
        result = satisfiable(parse_node("p"), stats=True)
        assert result.stats["meta"]["engine"] == "patterns"
        decision = result.stats["meta"]["engine_decision"]
        assert decision["chosen"] == "patterns"
        assert [c["name"] for c in decision["candidates"]] == [
            "patterns", "expspace", "automata", "bidirectional", "split",
            "bounded"]

    def test_auto_skips_patterns_outside_its_fragment(self):
        # Negation is outside the tree-pattern fragment but inside the
        # EXPSPACE engine's downward fragment.
        result = satisfiable(parse_node("p and not <down[q]>"), stats=True)
        assert result.stats["meta"]["engine"] == "expspace"
        by_name = {c["name"]: c
                   for c in result.stats["meta"]["engine_decision"]["candidates"]}
        assert by_name["patterns"]["admits"] is False
        assert "error" not in by_name["patterns"]

    def test_auto_falls_back_when_fragment_not_admitted(self):
        # Path complementation is outside the EXPSPACE engine's fragment.
        phi = parse_node("<down except down[p]>")
        result = satisfiable(phi, stats=True)
        assert result.stats["meta"]["engine"] == "bounded"
        decision = result.stats["meta"]["engine_decision"]
        by_name = {c["name"]: c for c in decision["candidates"]}
        assert by_name["expspace"]["admits"] is False
        assert by_name["bounded"]["admits"] is True

    def test_decision_record_is_attached_for_containment(self):
        result = contains(parse_path("down[p]"), parse_path("down"),
                          stats=True)
        decision = result.stats["meta"]["engine_decision"]
        assert decision["chosen"] == result.stats["meta"]["engine"]


class TestForcedEngines:
    def test_forced_engine_must_admit(self):
        phi = parse_node("<down except down[p]>")
        with pytest.raises(ValueError, match="does not admit"):
            satisfiable(phi, method="expspace")

    def test_unknown_method_is_rejected_before_dispatch(self):
        with pytest.raises(ValueError, match="unknown method"):
            satisfiable(parse_node("p"), method="quantum")

    def test_forcing_bounded_skips_the_complete_engine(self):
        result = satisfiable(parse_node("p"), method="bounded", stats=True)
        assert result.stats["meta"]["engine"] == "bounded"
        assert result.verdict is Verdict.SATISFIABLE


class TestRegistryMechanics:
    def test_get_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            EngineRegistry().get("nope")

    def test_runtime_decline_falls_through_to_next_engine(self):
        calls: list[str] = []

        class Declines(Engine):
            name = "declines"
            conclusive = True
            cost_hint = 1

            def admits(self, problem):
                return True

            def solve(self, problem, session=None):
                calls.append("declines")
                raise EngineDeclined("guard tripped")

        class Answers(Engine):
            name = "answers"
            cost_hint = 2

            def admits(self, problem):
                return True

            def solve(self, problem, session=None):
                calls.append("answers")
                from repro.analysis.problems import SatResult
                return SatResult(Verdict.UNSATISFIABLE)

        registry = EngineRegistry()
        registry.register(Declines())
        registry.register(Answers())
        problem = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"))
        result = registry.plan_and_run(problem)
        assert calls == ["declines", "answers"]
        assert result.verdict is Verdict.UNSATISFIABLE

    def test_no_admitting_engine_raises(self):
        registry = EngineRegistry()
        problem = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"))
        with pytest.raises(ValueError, match="no registered engine"):
            registry.plan_and_run(problem)

    def test_forced_decline_raises_engine_declined(self):
        phi = parse_node("<down except down[p]>")
        with pytest.raises(EngineDeclined):
            satisfiable(phi, method="expspace")

    def test_module_level_plan_and_run_uses_default_registry(self):
        problem = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"))
        result = plan_and_run(problem)
        assert result.verdict is Verdict.SATISFIABLE


class _Boom(Engine):
    name = "boom"
    cost_hint = 1

    def admits(self, problem):
        return True

    def solve(self, problem, session=None):
        raise RuntimeError("engine bug")


class _Answers(Engine):
    name = "answers"
    cost_hint = 2

    def admits(self, problem):
        return True

    def solve(self, problem, session=None):
        from repro.analysis.problems import SatResult
        return SatResult(Verdict.UNSATISFIABLE)


class TestEngineExceptionFallthrough:
    """Regression: an engine raising mid-``solve`` used to abort the whole
    dispatch; it must fall through like a runtime decline."""

    def _problem(self):
        return Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"))

    def test_raising_engine_falls_through_to_next(self):
        registry = EngineRegistry()
        registry.register(_Boom())
        registry.register(_Answers())
        result = registry.plan_and_run(self._problem())
        assert result.verdict is Verdict.UNSATISFIABLE

    def test_error_is_recorded_in_the_decision(self):
        from repro import obs
        registry = EngineRegistry()
        registry.register(_Boom())
        registry.register(_Answers())
        with obs.record("run") as recording:
            registry.plan_and_run(self._problem())
        decision = recording.meta["engine_decision"]
        assert decision["chosen"] == "answers"
        by_name = {entry["name"]: entry for entry in decision["candidates"]}
        assert by_name["boom"]["error"] == "RuntimeError: engine bug"
        assert recording.counters["dispatch.error.boom"] == 1

    def test_forced_raising_engine_reraises(self):
        registry = EngineRegistry()
        registry.register(_Boom())
        registry.register(_Answers())
        problem = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"),
                          engine="boom")
        with pytest.raises(RuntimeError, match="engine bug"):
            registry.plan_and_run(problem)

    def test_all_raising_engines_reraise_the_last_error(self):
        class Boom2(_Boom):
            name = "boom2"
            cost_hint = 2

            def solve(self, problem, session=None):
                raise KeyError("second bug")

        registry = EngineRegistry()
        registry.register(_Boom())
        registry.register(Boom2())
        with pytest.raises(KeyError, match="second bug"):
            registry.plan_and_run(self._problem())


class _DeclinesLoudly(Engine):
    """Simulates a clean decline surfacing as an exception — the shape a
    nested dispatch produces when its forced engine declines."""

    name = "loud-decline"
    conclusive = True
    cost_hint = 1

    def admits(self, problem):
        return True

    def solve(self, problem, session=None):
        raise EngineDeclined("nested dispatch declined")


class TestDeclineVsErrorDistinction:
    """Regression: a runtime-declining cheap engine must never be recorded
    as a ``dispatch.error.<name>`` — declines and genuine engine errors
    stay distinguishable in ``engine_decision``."""

    def _problem(self):
        return Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"))

    def test_engine_declined_exception_is_a_clean_decline(self):
        from repro import obs
        registry = EngineRegistry()
        registry.register(_DeclinesLoudly())
        registry.register(_Answers())
        with obs.record("run") as recording:
            result = registry.plan_and_run(self._problem())
        assert result.verdict is Verdict.UNSATISFIABLE
        decision = recording.meta["engine_decision"]
        assert decision["chosen"] == "answers"
        by_name = {entry["name"]: entry for entry in decision["candidates"]}
        assert by_name["loud-decline"].get("declined") is True
        assert "error" not in by_name["loud-decline"]
        assert recording.counters["dispatch.declined.loud-decline"] == 1
        assert "dispatch.error.loud-decline" not in recording.counters

    def test_forced_engine_declined_reraises_without_error_entry(self):
        from repro import obs
        registry = EngineRegistry()
        registry.register(_DeclinesLoudly())
        problem = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"),
                          engine="loud-decline")
        with obs.record("run") as recording:
            with pytest.raises(EngineDeclined):
                registry.plan_and_run(problem)
        by_name = {entry["name"]: entry
                   for entry in recording.meta["engine_decision"]["candidates"]}
        assert by_name["loud-decline"].get("declined") is True
        assert "error" not in by_name["loud-decline"]

    def test_patterns_runtime_decline_is_not_an_error(self):
        # ``admits`` passes (pure pattern syntax) but the canonical-model
        # guard trips at runtime: many flexible edges against a large β.
        from repro import obs
        from repro.analysis.patterns import PatternsEngine

        alpha = parse_path("/".join(["down*[p]"] * 6))
        beta = parse_path("down[p]/down[q]")
        problem = Problem(ProblemKind.CONTAINMENT, alpha=alpha, beta=beta)
        canonical = problem.canonical()
        engine = PatternsEngine()
        assert engine.admits(canonical)
        with obs.record("run") as recording:
            result = contains(alpha, beta, stats=False)
        assert result.conclusive
        counters = recording.counters
        assert counters.get("dispatch.declined.patterns", 0) >= 1
        assert "dispatch.error.patterns" not in counters


class TestEquivalenceAggregation:
    def test_per_direction_figures_are_preserved(self):
        # α ≡ β via bounded search: both directions inconclusive (the
        # ``except`` is nested, so the split engine does not reach it).
        alpha = parse_path("down/(down except down[p])")
        beta = parse_path("down/down[not p]")
        result = equivalent(alpha, beta, max_nodes=4)
        assert result.verdict is Verdict.NO_WITNESS_WITHIN_BOUND
        forward, backward = result.per_direction
        assert forward is not None and backward is not None
        assert result.trees_checked == (forward.trees_checked
                                        + backward.trees_checked)
        assert result.explored_up_to == 4
        assert forward.explored_up_to == 4
        assert backward.explored_up_to == 4

    def test_failing_forward_direction_short_circuits(self):
        result = equivalent(parse_path("down"), parse_path("down[p]"),
                            max_nodes=3)
        assert result.verdict is Verdict.SATISFIABLE  # counterexample found
        assert result.counterexample is not None
        forward, backward = result.per_direction
        assert forward is result or forward.counterexample is not None
        assert backward is None

    def test_conclusive_equivalence_has_conclusive_directions(self):
        # Downward fragment: both directions go through the complete engine.
        result = equivalent(parse_path("down[p]"), parse_path("down[p]"))
        assert result.verdict is Verdict.UNSATISFIABLE
        assert result.conclusive
        forward, backward = result.per_direction
        assert forward.conclusive and backward.conclusive
        assert result.explored_up_to is None


class TestPlanCacheCounters:
    def test_cache_hits_show_up_in_stats(self):
        phi = parse_node("<down except down[q1]>")
        first = satisfiable(phi, max_nodes=3, stats=True)
        assert first.stats["counters"].get("plan.cache.miss", 0) >= 1
        second = satisfiable(phi, max_nodes=3, stats=True)
        assert second.stats["counters"].get("plan.cache.hit", 0) >= 1

    def test_plan_cache_info_reports_progress(self):
        before = plan_cache_info()
        phi = parse_node("<down except down[q2]>")
        satisfiable(phi, max_nodes=3)
        satisfiable(phi, max_nodes=3)
        after = plan_cache_info()
        assert after["misses"] >= before["misses"] + 1
        assert after["hits"] >= before["hits"] + 1
        assert after["plans"] >= before["plans"]


class _Scripted(Engine):
    """A stub engine: ``outcome`` is what ``solve`` does — ``"result"``,
    ``"decline"`` (raises :class:`EngineDeclined`) or ``"raise"``;
    ``admits`` answers ``admitted`` and counts its calls."""

    def __init__(self, name, cost_hint, outcome="result", admitted=True):
        self.name = name
        self.cost_hint = cost_hint
        self.outcome = outcome
        self.admitted = admitted
        self.admits_calls = 0

    def admits(self, problem):
        self.admits_calls += 1
        return self.admitted

    def solve(self, problem, session=None):
        from repro.analysis.problems import SatResult

        if self.outcome == "decline":
            raise EngineDeclined(f"{self.name} guard")
        if self.outcome == "raise":
            raise RuntimeError(f"{self.name} bug")
        return SatResult(Verdict.UNSATISFIABLE)


def _registry(*engines):
    registry = EngineRegistry()
    for engine in engines:
        registry.register(engine)
    return registry


def _sat_problem(engine=None):
    return Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"),
                   engine=engine)


class TestDispatchContract:
    """Pins what one ``plan_and_run`` call does: one admission pass, the
    ``exclude`` and ``progress`` hooks, and one ``engine_decision`` per
    dispatch."""

    def test_admits_runs_once_per_dispatch(self):
        engines = [_Scripted("a", 1, "decline"), _Scripted("b", 2, "decline"),
                   _Scripted("c", 3), _Scripted("d", 4)]
        result = _registry(*engines).plan_and_run(_sat_problem())
        assert result.verdict is Verdict.UNSATISFIABLE
        assert [engine.admits_calls for engine in engines] == [1, 1, 1, 1]

    def test_excluded_engine_is_absent_from_the_decision(self):
        from repro import obs

        registry = _registry(_Scripted("a", 1), _Scripted("b", 2))
        with obs.record("run") as recording:
            registry.plan_and_run(_sat_problem(), exclude=frozenset({"a"}))
        decision = recording.meta["engine_decision"]
        assert [entry["name"] for entry in decision["candidates"]] == ["b"]
        assert decision["chosen"] == "b"

    def test_forced_engine_in_exclude_was_already_tried(self):
        from repro import obs

        registry = _registry(_Scripted("a", 1), _Scripted("b", 2))
        with obs.record("run") as recording:
            with pytest.raises(EngineDeclined, match="already tried"):
                registry.plan_and_run(_sat_problem(engine="a"),
                                      exclude=frozenset({"a"}))
        assert "engine_decision" not in recording.meta

    def test_progress_reports_every_attempt(self):
        events: list[tuple[str, str]] = []
        registry = _registry(_Scripted("a", 1, "decline"),
                             _Scripted("b", 2, "raise"), _Scripted("c", 3))
        registry.plan_and_run(
            _sat_problem(),
            progress=lambda event, name, detail: events.append((event, name)))
        assert events == [("trying", "a"), ("declined", "a"),
                          ("trying", "b"), ("failed", "b"),
                          ("trying", "c"), ("result", "c")]

    def test_equivalence_reports_only_the_top_level_attempt(self):
        events: list[tuple[str, str]] = []
        problem = Problem(ProblemKind.EQUIVALENCE, alpha=parse_path("down[p]"),
                          beta=parse_path("down[p]"))
        default_registry().plan_and_run(
            problem,
            progress=lambda event, name, detail: events.append((event, name)))
        assert events == [("trying", "bidirectional"),
                          ("result", "bidirectional")]

    @pytest.mark.parametrize("engines, forced, raised, match", [
        ([_Scripted("a", 1, admitted=False)], "a", EngineDeclined,
         "does not admit"),
        ([_Scripted("a", 1, "decline"), _Scripted("b", 2)], "a",
         EngineDeclined, "declined this satisfiability problem at runtime"),
        ([_Scripted("a", 1, "raise"), _Scripted("b", 2)], "a",
         RuntimeError, "a bug"),
        ([_Scripted("a", 1, "decline"), _Scripted("b", 2, "decline")], None,
         EngineDeclined, "no registered engine admits"),
        ([_Scripted("a", 1, admitted=False)], None, EngineDeclined,
         "no registered engine admits"),
    ], ids=["forced-not-admitted", "forced-declines", "forced-raises",
            "all-decline", "none-admits"])
    def test_every_failing_exit_records_no_choice(self, engines, forced,
                                                  raised, match):
        from repro import obs

        registry = _registry(*engines)
        with obs.record("run") as recording:
            with pytest.raises(raised, match=match):
                registry.plan_and_run(_sat_problem(engine=forced))
        decision = recording.meta["engine_decision"]
        assert decision["chosen"] is None
        if forced:  # a one-entry ladder, flagged as forced
            expected = [(forced, True)]
        else:
            expected = [(engine.name, None) for engine in engines]
        assert [(entry["name"], entry.get("forced"))
                for entry in decision["candidates"]] == expected


class TestRunRecordNamesTheChosenEngine:
    """Only the registry notes ``engine`` and counts ``dispatch.<name>``, so
    a run record names one engine, however the problem was decided."""

    def test_engine_is_the_chosen_one_and_counted_once(self):
        runs = [
            ("bidirectional", equivalent(parse_path("down[p]"),
                                         parse_path("down[p][q]"), stats=True)),
            ("split", contains(parse_path("down[a]"),
                               parse_path("down except down[b]"), stats=True)),
            # automata declines on its state guard, bounded answers.
            ("bounded", satisfiable(
                parse_node("a or <up[b]/up[a]/up[b]/up[a]>"), stats=True)),
        ]
        for expected, result in runs:
            meta, counters = result.stats["meta"], result.stats["counters"]
            chosen = meta["engine_decision"]["chosen"]
            assert chosen == expected
            assert meta["engine"] == chosen, meta
            assert counters.get(f"dispatch.{chosen}") == 1, counters


class _Lies(Engine):
    """Answers every problem with one fixed ``SATISFIABLE`` result."""

    name = "liar"
    cost_hint = 1

    def __init__(self, answer):
        self.answer = answer

    def admits(self, problem):
        return True

    def solve(self, problem, session=None):
        return self.answer


def _lie(which):
    """``(problem, wrong answer, the witness check's message)``."""
    from repro.analysis.problems import ContainmentResult, SatResult
    from repro.edtd import DTD
    from repro.trees import XMLTree

    if which == "node-outside-phi":
        return (Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p")),
                SatResult(Verdict.SATISFIABLE, XMLTree(["q"], [None]), 0),
                "does not satisfy the formula")
    if which == "pair-inside-beta":
        return (Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down"),
                        beta=parse_path("down[p]")),
                ContainmentResult(Verdict.SATISFIABLE,
                                  XMLTree(["q", "p"], [None, 0]), (0, 1)),
                "does not refute the containment")
    if which == "pair-on-both-sides":
        return (Problem(ProblemKind.EQUIVALENCE, alpha=parse_path("down"),
                        beta=parse_path("down[p]")),
                ContainmentResult(Verdict.SATISFIABLE,
                                  XMLTree(["q", "p"], [None, 0]), (0, 1)),
                "does not separate the two sides")
    # A b-node satisfies φ = b, but the schema wants an a-root.
    schema = DTD({"a": "b*", "b": "eps"}, root="a")
    return (Problem(ProblemKind.SATISFIABILITY, phi=parse_node("b"),
                    edtd=schema),
            SatResult(Verdict.SATISFIABLE, XMLTree(["b"], [None]), 0),
            "does not conform to the EDTD")


_LIES = ["node-outside-phi", "pair-inside-beta", "pair-on-both-sides",
         "tree-outside-edtd"]


def _liar_first(answer):
    """The liar, then the engines that decide its problems honestly."""
    from repro.analysis.engines import BoundedEngine
    from repro.analysis.registry import BidirectionalEngine

    return _registry(_Lies(answer), BoundedEngine(), BidirectionalEngine())


class TestWitnessCheck:
    """The dispatch checks every ``SATISFIABLE`` answer against the problem
    it dispatched; a wrong one is an engine error."""

    @pytest.mark.parametrize("which", _LIES)
    def test_wrong_witness_is_an_error_and_the_next_engine_answers(self, which):
        from repro import obs

        problem, answer, message = _lie(which)
        with obs.record("run") as recording:
            result = _liar_first(answer).plan_and_run(problem)
        decision = recording.meta["engine_decision"]
        assert decision["chosen"] == (
            "bidirectional" if problem.kind is ProblemKind.EQUIVALENCE
            else "bounded")
        liar = {entry["name"]: entry for entry in decision["candidates"]}["liar"]
        assert message in liar["error"]
        assert "declined" not in liar
        assert recording.counters["dispatch.error.liar"] == 1
        assert "dispatch.liar" not in recording.counters
        assert result.verdict is Verdict.SATISFIABLE and result != answer

    # An equivalence is never forced: the preference goes to its directions.
    @pytest.mark.parametrize("which", [lie for lie in _LIES
                                       if lie != "pair-on-both-sides"])
    def test_forced_wrong_witness_raises(self, which):
        problem, answer, message = _lie(which)
        with pytest.raises(RuntimeError, match=message):
            _liar_first(answer).plan_and_run(problem.forced("liar"))

    def test_runtime_decline_records_its_reason(self):
        result = satisfiable(parse_node("a or <up[b]/up[a]/up[b]/up[a]>"),
                             stats=True)
        by_name = {entry["name"]: entry for entry
                   in result.stats["meta"]["engine_decision"]["candidates"]}
        automata = by_name["automata"]
        assert automata["declined"] is True
        assert "max_states" in automata["reason"]
        assert "error" not in automata
