"""Tests for the compile-once :class:`CompiledSchema` pipeline.

Four contracts of the per-schema artifact layer:

* **Identity** — :func:`schema_id_of` hashes the schema's *content* (EDTD
  fingerprint + relevant alphabet), so it is stable across construction
  orders and distinguishes genuinely different schemas.
* **Compile-once** — a stream of same-schema problems builds exactly one
  :class:`CompiledSchema` (asserted via the ``schema.compile.count``
  counter); the registry is a bounded LRU; forked batch workers inherit
  the parent's precompiled sessions and never compile themselves.
* **Fork hygiene** — half-built sessions are never observable after a
  fork, and a finished pool leaves no sessions behind.
* **Parity** — the warm compiled-schema paths produce byte-identical
  output to the retained pre-refactor construction paths (the
  differential oracles: ``schema=None`` / ``frame=None`` /
  ``partition=None`` / ``shared=None``) on a 200+ instance random sweep.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.analysis import session as session_module
from repro.analysis.problems import Problem, ProblemKind, Verdict
from repro.analysis.reductions import (
    containment_to_node_unsat,
    sat_to_edtd_sat,
)
from repro.analysis.registry import default_registry
from repro.analysis.session import (
    SchemaSession,
    discard_incomplete_sessions,
    reset_sessions,
    schema_id_of,
    session_for,
)
from repro.edtd import DTD
from repro.parallel.cache import _edtd_fingerprint, encode_result
from repro.parallel.runner import run_batch
from repro.trees import to_xml
from repro.xpath import parse_node, parse_path, to_source
from repro.xpath.ast import Axis

from .helpers import random_node, random_path

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-threads notice on 3.12+


@pytest.fixture(autouse=True)
def _isolated_registry():
    """Every test starts and ends with an empty session registry."""
    reset_sessions()
    yield
    reset_sessions()


def _sat(source: str, edtd=None) -> Problem:
    return Problem(ProblemKind.SATISFIABILITY, phi=parse_node(source),
                   edtd=edtd)


#: Four distinct problems over one compiled schema (labels {p, q}).
SAME_SCHEMA = ("p and <down[q]>", "q and <down[p]>",
               "<down[p and q]>", "p or <down[q]>")


# ------------------------------------------------------------ schema identity


class TestSchemaId:
    def test_stable_across_edtd_construction_orders(self):
        rules = {"a": "b*", "b": "c*", "c": "eps"}
        one = DTD(rules, root="a")
        other = DTD(dict(reversed(list(rules.items()))), root="a")
        phi = parse_node("a")
        assert one is not other
        assert schema_id_of(phi, edtd=one) == schema_id_of(phi, edtd=other)

    def test_same_label_alphabet_shares_an_id(self):
        ids = {schema_id_of(parse_node(source)) for source in SAME_SCHEMA}
        assert len(ids) == 1

    def test_disjoint_alphabets_differ(self):
        assert schema_id_of(parse_node("p and q")) \
            != schema_id_of(parse_node("r and s"))

    def test_schema_content_changes_the_id(self):
        phi = parse_node("a")
        loose = DTD({"a": "a*"}, root="a")
        strict = DTD({"a": "eps"}, root="a")
        assert schema_id_of(phi, edtd=loose) \
            != schema_id_of(phi, edtd=strict)

    def test_digest_memo_holds_one_entry_per_schema(self):
        """The memo behind the id is keyed by the compiled schema, not by
        the problem: many problems over one alphabet add one entry."""
        from repro.analysis import session as session_module

        reset_sessions()
        ids = {schema_id_of(parse_node(f"p and <{'/'.join(['down'] * n)}[q]>"))
               for n in range(1, 41)}
        assert len(ids) == 1
        assert session_module._schema_digest.cache_info().currsize == 1
        reset_sessions()


# --------------------------------------------------------------- compile-once


class TestCompileOnce:
    def test_one_schema_compiles_once(self):
        problems = [_sat(source) for source in SAME_SCHEMA]
        with obs.record("test") as recording:
            sessions = {id(session_for(problem)) for problem in problems}
        assert len(sessions) == 1
        counters = recording.counters
        assert counters["schema.compile.count"] == 1
        assert counters["analysis.session.created"] == 1
        assert counters["analysis.session.reused"] == len(problems) - 1
        assert counters["schema.compile.cache_hit"] == len(problems) - 1

    def test_two_schemas_compile_twice(self):
        problems = [_sat(source) for source in SAME_SCHEMA]
        problems += [_sat(source.replace("p", "r").replace("q", "s"))
                     for source in SAME_SCHEMA]
        with obs.record("test") as recording:
            for problem in problems:
                session_for(problem)
        assert recording.counters["schema.compile.count"] == 2

    def test_direct_engine_calls_share_the_session(self):
        engine = default_registry().get("automata")
        problem = _sat("p and <down[q]>")
        with obs.record("test") as recording:
            first = engine.solve(problem)
            second = engine.solve(problem)
        assert encode_result(first) == encode_result(second)
        assert recording.counters["schema.compile.count"] == 1

    def test_partition_seed_engages_for_satisfiability(self):
        engine = default_registry().get("automata")
        with obs.record("test") as recording:
            result = engine.solve(_sat("p and <down[q]>"))
        assert result.verdict is Verdict.SATISFIABLE
        assert recording.counters.get("twoata.partition_shared", 0) >= 1

    def test_decorated_partition_engages_for_containment(self):
        engine = default_registry().get("automata")
        problem = Problem(ProblemKind.CONTAINMENT,
                          alpha=parse_path("down[p]"),
                          beta=parse_path("down"))
        with obs.record("test") as recording:
            result = engine.solve(problem)
        assert result.verdict is Verdict.UNSATISFIABLE  # containment holds
        assert recording.counters.get("twoata.partition_shared", 0) >= 1

    def test_derived_artifacts_are_memoized(self):
        edtd = DTD({"a": "b*", "b": "eps"}, root="a")
        compiled = session_for(_sat("a", edtd=edtd)).compiled
        with obs.record("test") as recording:
            # The eager compile already built the schema's own frame.
            assert compiled.type_frame() is compiled.type_frame()
            assert compiled.schema_tables() is compiled.schema_tables()
            gamma = ("a", "b", "z")
            assert compiled.permissive_frame(gamma) \
                is compiled.permissive_frame(gamma)
            assert compiled.decorated_partition() \
                is compiled.decorated_partition()
        counters = recording.counters
        assert counters["schema.compile.derived_hit"] >= 4
        assert counters.get("schema.compile.frames", 0) == 0
        assert counters["schema.compile.tables"] == 1
        assert counters["schema.compile.reductions"] == 2

    def test_session_exposes_the_compiled_artifact(self):
        session = session_for(_sat("p"))
        assert session.kernel_cache is session.compiled.kernel_cache
        stats = session.stats()
        assert stats["compile_s"] == session.compiled.compile_s
        assert stats["problems"] == 1


# ----------------------------------------------------------------- LRU bounds


class TestSessionLRU:
    def test_bounded_registry_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(session_module, "MAX_SESSIONS", 2)
        a, b, c = _sat("a1"), _sat("b1"), _sat("c1")
        with obs.record("test") as recording:
            first = session_for(a)
            session_for(b)
            session_for(c)        # evicts a (capacity 2)
            again = session_for(a)  # recompiles; evicts b
        counters = recording.counters
        assert counters["analysis.session.evicted"] == 2
        assert counters["schema.compile.count"] == 4
        assert counters.get("analysis.session.reused", 0) == 0
        assert again is not first

    def test_recently_used_session_survives_eviction(self, monkeypatch):
        monkeypatch.setattr(session_module, "MAX_SESSIONS", 2)
        a, b, c = _sat("a1"), _sat("b1"), _sat("c1")
        warm_a = session_for(a)
        session_for(b)
        session_for(a)  # touch: b becomes least recently used
        session_for(c)  # evicts b, not a
        assert session_for(a) is warm_a


# --------------------------------------------------------------- fork hygiene


class TestForkHygiene:
    def test_discard_incomplete_sessions_drops_in_flight_builds(self):
        session_for(_sat("p"))  # a finished session
        in_flight = "0" * 64
        session_module._BUILDING.add(in_flight)
        session_module._SESSIONS[in_flight] = SchemaSession(in_flight)
        discard_incomplete_sessions()
        assert in_flight not in session_module._SESSIONS
        assert len(session_module._SESSIONS) == 1  # finished one survives

    def test_after_fork_hook_renews_the_lock(self):
        lock_before = session_module._LOCK
        session_module._BUILDING.add("1" * 64)
        session_module._after_fork_in_child()
        assert session_module._LOCK is not lock_before
        assert not session_module._BUILDING

    def test_forked_workers_inherit_warm_sessions(self):
        """Satellite regression: a batch over one schema compiles once in
        the parent; the forked workers only ever *reuse* the inherited
        session (zero worker-side compiles)."""
        problems = [_sat(source) for source in SAME_SCHEMA]
        with obs.record("test") as recording:
            report = run_batch(problems, workers=2, collect_stats=True)
        assert all(outcome.result is not None for outcome in report.outcomes)
        assert recording.counters["schema.compile.count"] == 1
        worker_counters = [record.get("counters") or {}
                           for outcome in report.outcomes
                           for record in outcome.worker_records]
        assert worker_counters
        assert sum(c.get("schema.compile.count", 0)
                   for c in worker_counters) == 0
        assert sum(c.get("analysis.session.reused", 0)
                   for c in worker_counters) >= len(problems)
        [entry] = report.schemas
        assert entry["schema_id"] == schema_id_of(problems[0].phi)
        assert entry["problems"] == len(problems)
        assert entry["session_reuse"] == pytest.approx(1.0)

    def test_pool_shutdown_resets_sessions(self):
        run_batch([_sat("p")], workers=1)
        assert not session_module._SESSIONS


# ------------------------------------------------------- differential oracles


class TestDifferentialOracles:
    """The warm compiled-schema paths against the retained pre-refactor
    construction paths, on 230 random instances overall."""

    def test_automata_sat_matches_frameless_oracle(self):
        """120 instances: 2ATA emptiness with the session's partition seed
        and shared kernel cache vs the bare per-call path."""
        engine = default_registry().get("automata")
        rng = random.Random(2026)
        checked = 0
        while checked < 120:
            phi = random_node(rng, 2, frozenset({"star"}))
            problem = Problem(ProblemKind.SATISFIABILITY, phi=phi)
            if not engine.admits(problem):
                continue
            session = session_for(problem)
            warm = engine._check(phi, session, session.compiled.partition)
            cold = engine._check(phi, None, None)
            assert (warm is None) == (cold is None), to_source(phi)
            if warm is None:
                continue
            assert warm[0] == cold[0], to_source(phi)
            if not warm[0]:  # satisfiable: identical witness tree and node
                assert to_xml(warm[1]) == to_xml(cold[1]), to_source(phi)
                assert warm[2] == cold[2], to_source(phi)
            checked += 1

    def test_reduction_frames_match_schemaless_construction(self):
        """80 instances: the memoized Prop. 5 / Prop. 4 frames vs rebuilding
        the reduction from scratch."""
        rng = random.Random(7)
        for _ in range(40):
            phi = random_node(rng, 2, frozenset({"star"}))
            compiled = session_for(
                Problem(ProblemKind.SATISFIABILITY, phi=phi)).compiled
            warm = sat_to_edtd_sat(phi, schema=compiled)
            cold = sat_to_edtd_sat(phi)
            assert to_source(warm.formula) == to_source(cold.formula)
            assert _edtd_fingerprint(warm.edtd) == _edtd_fingerprint(cold.edtd)
        edtd = DTD({"p": "(p | q)*", "q": "eps"}, root="p")
        for _ in range(40):
            alpha = random_path(rng, 2, frozenset({"star"}))
            beta = random_path(rng, 2, frozenset({"star"}))
            problem = Problem(ProblemKind.CONTAINMENT, alpha=alpha,
                              beta=beta, edtd=edtd)
            compiled = session_for(problem).compiled
            assert compiled.edtd is edtd  # the memo guard's precondition
            warm = containment_to_node_unsat(alpha, beta, edtd,
                                             schema=compiled)
            cold = containment_to_node_unsat(alpha, beta, edtd)
            assert to_source(warm.formula) == to_source(cold.formula)
            assert _edtd_fingerprint(warm.edtd) == _edtd_fingerprint(cold.edtd)

    def test_expspace_matches_frameless_oracle(self):
        """30 instances: the Fig. 2 procedure with the compiled type frame
        vs ``frame=None``."""
        engine = default_registry().get("expspace")
        edtd = DTD({"p": "(p | q)*", "q": "q*"}, root="p")
        rng = random.Random(13)
        checked = 0
        while checked < 30:
            phi = random_node(rng, 2, frozenset(), axes=(Axis.DOWN,))
            problem = Problem(ProblemKind.SATISFIABILITY, phi=phi, edtd=edtd)
            if not engine.admits(problem):
                continue
            compiled = session_for(problem).compiled
            warm = engine._satisfiable(phi, edtd, compiled)
            cold = engine._satisfiable(phi, edtd, None)
            assert (warm is None) == (cold is None), to_source(phi)
            if warm is None:
                continue
            assert encode_result(warm) == encode_result(cold), to_source(phi)
            checked += 1
