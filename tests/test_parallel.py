"""Tests for repro.parallel: the batch runner, the verdict cache,
timeouts, worker-failure isolation, and the resident worker pool's
lifecycle (replacement, recycling, reaping).

The pool uses the ``fork`` start method, so engine doubles registered in
the *parent's* default registry (the ``Raiser``/``Sleeper`` classes below)
before the pool starts are inherited by worker processes without
pickling; problems and results cross the pipe.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import time

import pytest

from repro.analysis import contains, default_registry, satisfiable
from repro.analysis.problems import (
    ContainmentResult,
    Problem,
    ProblemKind,
    SatResult,
    Verdict,
)
from repro.analysis.registry import Engine
from repro.parallel import (
    BatchError,
    ExecutorService,
    VerdictCache,
    contains_many,
    problem_fingerprint,
    run_batch,
    satisfiable_many,
)
from repro.parallel.cache import (
    decode_result,
    encode_result,
    engine_set_fingerprint,
)
from repro.xpath import parse_node, parse_path

from .helpers import random_path

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-threads notice on 3.12+


# --------------------------------------------------------- engine doubles


class Raiser(Engine):
    """Admits everything, always raises: the poison the pool must survive."""

    name = "test-raiser"
    conclusive = False
    cost_hint = 1  # cheapest: always tried first

    def admits(self, problem):
        return problem.kind in (ProblemKind.SATISFIABILITY,
                                ProblemKind.CONTAINMENT)

    def solve(self, problem, session=None):
        raise RuntimeError("injected engine failure")


class Sleeper(Engine):
    """Hangs far past any test timeout; only a terminate stops it."""

    name = "test-sleeper"
    conclusive = True
    cost_hint = 1

    def admits(self, problem):
        return problem.kind in (ProblemKind.SATISFIABILITY,
                                ProblemKind.CONTAINMENT)

    def solve(self, problem, session=None):
        time.sleep(60)
        raise AssertionError("sleeper was not terminated")


@pytest.fixture
def register_engine():
    """Register doubles in the default registry; always unregister after."""
    names: list[str] = []

    def _register(engine: Engine) -> Engine:
        default_registry().register(engine)
        names.append(engine.name)
        return engine

    yield _register
    for name in names:
        default_registry()._engines.pop(name, None)


def _pairs(seed: int, count: int):
    rng = random.Random(seed)
    operators = frozenset({"minus", "star"})
    return [(random_path(rng, 2, operators), random_path(rng, 2, operators))
            for _ in range(count)]


def _canon(results):
    return [encode_result(result) for result in results]


# ------------------------------------------------------------ verdict cache


class TestProblemFingerprint:
    def test_stable_across_reparses(self):
        first = Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                        beta=parse_path("down"))
        second = Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                         beta=parse_path("down"))
        assert problem_fingerprint(first) == problem_fingerprint(second)

    def test_sensitive_to_every_config_axis(self):
        base = Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                       beta=parse_path("down"), max_nodes=6)
        variants = [
            Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[q]"),
                    beta=parse_path("down"), max_nodes=6),
            Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down"),
                    beta=parse_path("down[p]"), max_nodes=6),
            Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                    beta=parse_path("down"), max_nodes=7),
            Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                    beta=parse_path("down"), max_nodes=6, engine="bounded"),
            Problem(ProblemKind.EQUIVALENCE, alpha=parse_path("down[p]"),
                    beta=parse_path("down"), max_nodes=6),
        ]
        keys = {problem_fingerprint(variant) for variant in variants}
        assert problem_fingerprint(base) not in keys
        assert len(keys) == len(variants)

    def test_schema_changes_the_key(self):
        from repro.edtd import DTD
        plain = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"))
        schema = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"),
                         edtd=DTD({"p": "p*"}, root="p"))
        assert problem_fingerprint(plain) != problem_fingerprint(schema)

    def test_engine_set_does_not_change_the_key(self, register_engine):
        """Since cache schema v5 the key is stable across engine
        registration: conclusive verdicts are proofs and survive ladder
        changes.  Staleness of *inconclusive* entries is handled at ``get``
        time via the per-entry engine fingerprint, not via the key."""
        problem = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"))
        before = problem_fingerprint(problem)
        register_engine(Sleeper())
        assert problem_fingerprint(problem) == before

    def test_current_engine_set_is_in_the_fingerprint(self):
        names = engine_set_fingerprint().split(",")
        assert "automata" in names
        assert "patterns" in names


class TestResultRoundTrip:
    def test_sat_result_with_witness(self):
        result = satisfiable(parse_node("p and <down[q]>"))
        assert result.witness is not None
        clone = decode_result(encode_result(result))
        assert encode_result(clone) == encode_result(result)
        assert clone.verdict is result.verdict
        assert clone.witness_node == result.witness_node

    def test_containment_with_counterexample(self):
        result = contains(parse_path("down"), parse_path("down[p]"),
                          max_nodes=3)
        assert result.counterexample is not None
        clone = decode_result(encode_result(result))
        assert encode_result(clone) == encode_result(result)
        assert clone.counterexample_pair == result.counterexample_pair

    def test_equivalence_per_direction(self):
        from repro.analysis import equivalent
        result = equivalent(parse_path("down except down[p]"),
                            parse_path("down[not p]"), max_nodes=4)
        assert result.per_direction is not None
        clone = decode_result(encode_result(result))
        assert isinstance(clone, ContainmentResult)
        assert clone.per_direction is not None
        assert encode_result(clone) == encode_result(result)


class TestVerdictCache:
    def _problem(self):
        return Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                       beta=parse_path("down"), max_nodes=4)

    def test_put_then_get_across_instances(self, tmp_path):
        problem = self._problem()
        result = contains(problem.alpha, problem.beta,
                          max_nodes=problem.max_nodes)
        writer = VerdictCache(tmp_path)
        assert writer.put(problem, result)
        reader = VerdictCache(tmp_path)  # cold in-memory layer: hits disk
        cached = reader.get(problem)
        assert cached is not None
        assert encode_result(cached) == encode_result(result)
        assert reader.info()["hits"] == 1
        assert writer.info()["stores"] == 1

    def test_miss_counts(self, tmp_path):
        cache = VerdictCache(tmp_path)
        assert cache.get(self._problem()) is None
        info = cache.info()
        assert info["directory"] == str(tmp_path)
        assert (info["hits"], info["misses"], info["stores"]) == (0, 1, 0)
        assert (info["mem_hits"], info["disk_hits"]) == (0, 0)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        problem = self._problem()
        result = contains(problem.alpha, problem.beta,
                          max_nodes=problem.max_nodes)
        cache = VerdictCache(tmp_path)
        cache.put(problem, result)
        path = cache._path(problem_fingerprint(problem))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        fresh = VerdictCache(tmp_path)
        assert fresh.get(problem) is None
        assert fresh.info()["misses"] == 1

    def test_conclusive_entry_survives_engine_change(self, tmp_path,
                                                     register_engine):
        """A conclusive verdict is a proof: growing the engine ladder must
        not evict it (cache schema v5)."""
        problem = self._problem()
        result = contains(problem.alpha, problem.beta,
                          max_nodes=problem.max_nodes)
        assert result.conclusive
        cache = VerdictCache(tmp_path)
        assert cache.put(problem, result)
        register_engine(Sleeper())
        served = VerdictCache(tmp_path).get(problem)
        assert served is not None
        assert encode_result(served) == encode_result(result)

    def test_inconclusive_entry_not_served_after_engine_change(
            self, tmp_path, register_engine):
        """A ``no-witness-within-bound`` answer depends on which engines
        exist — a new engine (``patterns`` being the motivating case) might
        turn it into a proof, so it round-trips under its own ladder but is
        a miss once the registered engine set changes."""
        problem = Problem(ProblemKind.CONTAINMENT, alpha=parse_path("down[p]"),
                          beta=parse_path("down"), max_nodes=3,
                          engine="bounded")
        result = contains(problem.alpha, problem.beta, method="bounded",
                          max_nodes=3)
        assert result.verdict is Verdict.NO_WITNESS_WITHIN_BOUND
        cache = VerdictCache(tmp_path)
        assert cache.put(problem, result)
        round_tripped = VerdictCache(tmp_path).get(problem)
        assert round_tripped is not None
        assert encode_result(round_tripped) == encode_result(result)
        register_engine(Sleeper())
        assert VerdictCache(tmp_path).get(problem) is None

    def test_incompatible_entry_is_a_miss(self, tmp_path):
        problem = self._problem()
        key = problem_fingerprint(problem)
        tmp_path.joinpath(f"{key}.json").write_text(
            json.dumps({"type": "sat", "verdict": "not-a-verdict"}),
            encoding="utf-8")
        assert VerdictCache(tmp_path).get(problem) is None


# --------------------------------------------------- differential behaviour


class TestDifferential:
    """The tentpole contract: batch verdicts == sequential verdicts, under
    every pool configuration, including poisoned and hanging engines."""

    def test_pool_and_cache_match_sequential(self, tmp_path):
        pairs = _pairs(seed=7, count=12)
        sequential = [contains(alpha, beta, max_nodes=3)
                      for alpha, beta in pairs]
        want = _canon(sequential)

        cache_dir = tmp_path / "cache"
        cold = contains_many(pairs, max_nodes=3, workers=2, cache=cache_dir)
        assert _canon(cold) == want

        warm_cache = VerdictCache(cache_dir)
        warm = contains_many(pairs, max_nodes=3, workers=2, cache=warm_cache)
        assert _canon(warm) == want
        assert warm_cache.info()["hits"] == len(pairs)

    def test_raising_first_engine_changes_nothing(self, register_engine):
        register_engine(Raiser())
        pairs = _pairs(seed=11, count=6)
        # Sequential dispatch also survives the raiser (it falls through),
        # so both sides exercise the same ladder semantics.
        sequential = [contains(alpha, beta, max_nodes=3)
                      for alpha, beta in pairs]
        report = run_batch(
            [Problem(ProblemKind.CONTAINMENT, alpha=alpha, beta=beta,
                     max_nodes=3) for alpha, beta in pairs],
            workers=2)
        assert not report.failed
        assert _canon(report.results()) == _canon(sequential)
        for outcome in report.outcomes:
            assert any(failure.engine == "test-raiser"
                       and failure.error_type == "RuntimeError"
                       for failure in outcome.failures)
            assert outcome.engine != "test-raiser"

    def test_timing_out_first_engine_changes_nothing(self, register_engine):
        # Sequential baseline *without* the sleeper: a timed-out engine must
        # degrade to exactly the verdict the rest of the ladder produces.
        pairs = _pairs(seed=13, count=2)
        sequential = [contains(alpha, beta, max_nodes=3)
                      for alpha, beta in pairs]
        register_engine(Sleeper())
        report = run_batch(
            [Problem(ProblemKind.CONTAINMENT, alpha=alpha, beta=beta,
                     max_nodes=3) for alpha, beta in pairs],
            workers=2, timeout=1.0)
        assert not report.failed
        assert _canon(report.results()) == _canon(sequential)
        for outcome in report.outcomes:
            statuses = {attempt["engine"]: attempt["status"]
                        for attempt in outcome.attempts}
            assert statuses["test-sleeper"] == "timeout"
            assert outcome.engine not in (None, "test-sleeper")

    def test_satisfiable_many_matches_sequential(self):
        exprs = [parse_node("p"), parse_node("p and not p"),
                 parse_node("<down[p]> and <down[q]>")]
        sequential = [satisfiable(phi, max_nodes=3) for phi in exprs]
        batch = satisfiable_many(exprs, max_nodes=3, workers=2)
        assert _canon(batch) == _canon(sequential)
        assert all(isinstance(result, SatResult) for result in batch)


# ------------------------------------------------------- failure isolation


class TestFailureIsolation:
    def test_all_engines_failing_raises_batch_error(self, register_engine):
        register_engine(Raiser())
        with pytest.raises(BatchError) as info:
            satisfiable_many([parse_node("p")], method="test-raiser",
                             workers=1)
        [outcome] = info.value.outcomes
        assert outcome.result is None
        assert "RuntimeError" in outcome.error
        assert outcome.failures[0].traceback  # full child traceback shipped

    def test_runner_reports_failures_without_raising(self, register_engine):
        register_engine(Raiser())
        report = run_batch(
            [Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"),
                     engine="test-raiser")], workers=1)
        [outcome] = report.outcomes
        assert report.failed == [outcome]
        assert outcome.error is not None
        assert report.summary()["worker_failures"] == 1

    def test_poisoned_problem_does_not_leak(self, register_engine):
        """One forced-to-fail problem next to healthy ones: the healthy
        verdicts are unchanged and arrive in input order."""
        register_engine(Raiser())
        healthy = Problem(ProblemKind.CONTAINMENT,
                          alpha=parse_path("down[p]"), beta=parse_path("down"))
        poisoned = Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"),
                           engine="test-raiser")
        report = run_batch([healthy, poisoned, healthy], workers=2)
        first, bad, last = report.outcomes
        assert first.result is not None and first.result.conclusive
        assert last.result is not None
        assert encode_result(first.result) == encode_result(last.result)
        assert bad.result is None and bad.error is not None


# ------------------------------------------------------ resident worker pool


class SelfKiller(Engine):
    """SIGKILLs its own worker mid-solve: a crash no exception handler
    sees."""

    name = "test-self-killer"
    conclusive = True
    cost_hint = 1

    def admits(self, problem):
        return problem.kind is ProblemKind.CONTAINMENT

    def solve(self, problem, session=None):
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)


def _attempt_pids(outcome) -> list[tuple[int, str]]:
    """``(worker pid, status)`` of every attempt the coordinator made."""
    from repro.obs import RunRecord

    return [(span["attrs"]["pid"], span["attrs"]["status"])
            for span in RunRecord.from_dict(outcome.coord_stats).iter_spans()
            if span["name"] == "worker.attempt"]


def _assert_reaped(pid: int) -> None:
    """No process, zombie or otherwise, is left under ``pid``."""
    assert not os.path.exists(f"/proc/{pid}"), pid


class TestWorkerPool:
    def _problem(self, depth: int, **kwargs) -> Problem:
        alpha = "/".join(["down[p]"] * depth)
        beta = "/".join(["down"] * depth)
        return Problem(ProblemKind.CONTAINMENT, alpha=parse_path(alpha),
                       beta=parse_path(beta), max_nodes=4, **kwargs)

    def _sequential(self, problem: Problem):
        return contains(problem.alpha, problem.beta,
                        max_nodes=problem.max_nodes)

    def test_timeout_replaces_the_worker(self, register_engine):
        first, second = self._problem(2), self._problem(3, engine="patterns")
        want = _canon([self._sequential(first), self._sequential(second)])
        register_engine(Sleeper())
        service = ExecutorService(workers=1, timeout=0.5, cache=None,
                                  collect_stats=True)
        try:
            timed = service.submit(first).result(timeout=60)
            [(killed, status), (survivor, _)] = _attempt_pids(timed)
            assert status == "timeout" and killed != survivor
            assert timed.attempts[0] == {"engine": "test-sleeper",
                                         "status": "timeout"}
            _assert_reaped(killed)
            nxt = service.submit(second).result(timeout=60)
            assert nxt.stats["meta"]["pid"] == survivor
            assert _canon([timed.result, nxt.result]) == want
            stats = service.stats()
            assert (stats["spawned"], stats["replaced"],
                    stats["workers_alive"]) == (2, 1, 1)
            assert [child.pid for child in
                    multiprocessing.active_children()] == [survivor]
        finally:
            service.close()
        assert multiprocessing.active_children() == []
        _assert_reaped(survivor)

    def test_killed_worker_resumes_on_the_next_engine(self, register_engine):
        problem = self._problem(2)
        want = _canon([self._sequential(problem)])
        register_engine(SelfKiller())
        service = ExecutorService(workers=1, cache=None)
        try:
            outcome = service.submit(problem).result(timeout=60)
            assert outcome.attempts[0] == {"engine": "test-self-killer",
                                           "status": "died"}
            assert outcome.failures[0].error_type == "WorkerDied"
            assert outcome.engine not in (None, "test-self-killer")
            assert _canon([outcome.result]) == want
            assert service.stats()["replaced"] == 1
        finally:
            service.close()
        assert multiprocessing.active_children() == []

    def test_worker_recycles_after_task_limit(self, monkeypatch):
        import repro.parallel.worker as worker_module

        monkeypatch.setattr(worker_module, "MAX_TASKS", 2)
        problems = [self._problem(depth) for depth in range(1, 6)]
        want = _canon([self._sequential(problem) for problem in problems])
        service = ExecutorService(workers=1, cache=None, collect_stats=True)
        try:
            outcomes = [service.submit(problem).result(timeout=60)
                        for problem in problems]
            assert _canon([outcome.result for outcome in outcomes]) == want
            pids = [outcome.stats["meta"]["pid"] for outcome in outcomes]
            assert pids[0] == pids[1] != pids[2] == pids[3] != pids[4]
            stats = service.stats()
            assert (stats["spawned"], stats["recycled"],
                    stats["replaced"]) == (3, 2, 0)
            for pid in pids[:4]:
                _assert_reaped(pid)
        finally:
            service.close()
        assert multiprocessing.active_children() == []

    def test_batch_runner_reaps_its_pool(self):
        problems = [self._problem(depth) for depth in range(1, 4)]
        want = _canon([self._sequential(problem) for problem in problems])
        report = run_batch(problems, workers=2, cache=None)
        assert _canon(report.results()) == want
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------- API mechanics


class TestBatchAPI:
    def test_unknown_method_rejected_before_spawning(self):
        with pytest.raises(ValueError, match="unknown method"):
            contains_many([(parse_path("down"), parse_path("down"))],
                          method="quantum")

    def test_empty_batch(self):
        report = run_batch([], workers=2)
        assert report.outcomes == []
        assert report.summary()["problems"] == 0

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutorService(workers=0)

    def test_results_in_input_order(self):
        pairs = [(parse_path("down[p]"), parse_path("down")),
                 (parse_path("down"), parse_path("down[p]")),
                 (parse_path("down[q]"), parse_path("down"))]
        results = contains_many(pairs, max_nodes=3, workers=3)
        assert [bool(result) for result in results] == [True, False, True]

    def test_batch_metrics_reach_the_recording(self, tmp_path):
        from repro import obs
        pairs = [(parse_path("down[p]"), parse_path("down"))]
        with obs.record("test-batch") as recording:
            contains_many(pairs, workers=1, cache=tmp_path / "cache")
            contains_many(pairs, workers=1, cache=tmp_path / "cache")
        counters = recording.counters
        assert counters["batch.problems"] == 2
        assert counters["batch.cache.miss"] == 1
        assert counters["batch.cache.hit"] == 1
        assert "batch.wall_s" in recording.gauges
