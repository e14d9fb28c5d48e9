"""Differential and unit tests for the bitset emptiness kernel.

The dense integer kernel (``_BitsetChecker``) must be observationally
identical to the dict-of-frozensets reference kernel
(``_ReferenceChecker``): same verdicts, same witness trees, same round
and entry counts, on every problem.  The sweeps here check that over the
curated corpus from :mod:`tests.test_emptiness` plus randomized
CoreXPath(*, ≈) formulas, and one batch end to end through the worker
pool.  (``evals`` is deliberately *not* compared:
the bitset kernel's token-keyed evaluation memo collapses contexts that
share a wrapped-up excursion vector, so it legitimately evaluates fewer
combinations.)

Unit tests cover the three supporting pieces:

* mask/test formula compilation (:class:`CompiledEval`) against a naive
  recursive evaluator,
* the antichain dominance order — a partial order on wide-integer
  summary vectors — and the rank-0/monotone soundness gate, and
* :class:`SchemaSession` reuse: one worker-local kernel cache per
  compiled schema across a batch.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest

from repro.analysis import (
    Problem,
    ProblemKind,
    SchemaSession,
    automata_engine,
    reset_sessions,
    schema_id_of,
    session_for,
)
from repro.analysis.reductions import containment_to_node_unsat
from repro.automata import (
    KernelCache,
    build_twoata,
    decide_emptiness,
    emptiness,
)
from repro.automata.core import FALSE, TRUE, FormulaTable
from repro.automata.emptiness import EmptinessLimit, _BitsetChecker
from repro.parallel import run_batch
from repro.semantics import TreeContext, compile_plan
from repro.server.protocol import outcome_record, parse_problem_record
from repro.xpath import parse_node, parse_path

from .helpers import random_node
from .test_emptiness import STAR_EQ, TestDecideEmptiness

CORPUS = list(TestDecideEmptiness.UNSAT) + list(TestDecideEmptiness.SAT)


def _both(ata, **limits):
    bitset = decide_emptiness(ata, kernel="bitset", **limits)
    reference = decide_emptiness(ata, kernel="reference", **limits)
    return bitset, reference


def _assert_identical(bitset, reference):
    assert bitset.kernel == "bitset" and reference.kernel == "reference"
    assert bitset.empty == reference.empty
    assert bitset.witness == reference.witness
    assert bitset.rounds == reference.rounds
    assert bitset.entries == reference.entries
    assert bitset.contexts == reference.contexts
    # NOT bitset.evals == reference.evals: see the module docstring.


def _satisfies(tree, phi) -> bool:
    return bool(compile_plan(phi).run_single(TreeContext(tree)))


# --------------------------------------------------- kernel differential


class TestKernelDifferential:
    @pytest.mark.parametrize("source", CORPUS)
    def test_corpus_identical_across_kernels(self, source):
        bitset, reference = _both(build_twoata(parse_node(source)))
        _assert_identical(bitset, reference)

    @pytest.mark.parametrize("source", TestDecideEmptiness.SAT)
    def test_witnesses_satisfy_the_formula(self, source):
        phi = parse_node(source)
        bitset, reference = _both(build_twoata(phi))
        assert not bitset.empty
        assert _satisfies(bitset.witness, phi)
        assert _satisfies(reference.witness, phi)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_containment_reduction_family(self, n):
        """The E1 benchmark shape: ``up^n ⊑ up*`` through Prop. 4."""
        alpha = parse_path("/".join(["up"] * n))
        reduction = containment_to_node_unsat(alpha, parse_path("up*"))
        bitset, reference = _both(build_twoata(reduction.formula))
        _assert_identical(bitset, reference)
        assert bitset.empty  # the containment holds

    def test_randomized_core_star_eq_formulas(self):
        """Seeded sweep of random CoreXPath(*, ≈) node expressions."""
        rng = random.Random(20260808)
        checked = 0
        attempts = 0
        while checked < 30 and attempts < 400:
            attempts += 1
            phi = random_node(rng, rng.randint(1, 3), STAR_EQ)
            ata = build_twoata(phi)
            if ata.num_states > 160:
                continue
            try:
                bitset, reference = _both(
                    ata, max_evals=60_000, max_entries=3_000,
                    max_contexts=800)
            except EmptinessLimit:
                continue
            _assert_identical(bitset, reference)
            if not bitset.empty:
                assert _satisfies(bitset.witness, phi)
            checked += 1
        assert checked >= 20, f"only {checked} instances within guards"

    def test_batch_verdicts_identical_across_kernels(self, monkeypatch):
        """End to end through the worker pool: the same batch under each
        kernel answers record for record alike.  The reference run patches
        the automata engine before the pool forks, so the workers inherit
        it; no verdict cache, which would serve one kernel's answers to
        the other."""
        rows = [
            {"id": "k1", "kind": "contains", "alpha": "up/up",
             "beta": "up*"},
            {"id": "k2", "kind": "contains", "alpha": "down[p]",
             "beta": "down"},
            {"id": "k3", "kind": "satisfiable",
             "expr": "p and not <down*[q]>"},
            {"id": "k4", "kind": "satisfiable",
             "expr": "<up/up> and not <up>"},
        ]
        parsed = [parse_problem_record(row) for row in rows]

        def answers() -> tuple[dict, set]:
            report = run_batch([problem for _, _, problem in parsed],
                               workers=2, cache=None, collect_stats=True)
            records = {}
            counters: set = set()
            for (record_id, kind, _), outcome in zip(parsed,
                                                     report.outcomes):
                record = outcome_record(record_id, kind, outcome)
                del record["cache"], record["elapsed_s"]
                records[record_id] = record
                for worker in outcome.worker_records:
                    counters.update(worker.get("counters") or {})
            return records, counters

        bitset, bitset_counters = answers()
        monkeypatch.setattr(
            automata_engine, "decide_emptiness",
            functools.partial(decide_emptiness, kernel="reference"))
        reference, reference_counters = answers()
        assert bitset["k1"]["contained"] is True
        assert bitset["k4"]["verdict"] == "unsatisfiable"
        assert bitset == reference
        # Only the bitset kernel counts antichain pruning: each run really
        # used its kernel inside the workers.
        pruned = "twoata.emptiness.antichain.pruned"
        assert pruned in bitset_counters
        assert pruned not in reference_counters


# ------------------------------------------------- mask/test compilation


def _naive_eval(table, index, truth):
    node = table.node(index)
    tag = node[0]
    if tag == "true":
        return True
    if tag == "false":
        return False
    if tag == "atom":
        return truth[node]
    if tag == "and":
        return all(_naive_eval(table, child, truth) for child in node[1])
    assert tag == "or"
    return any(_naive_eval(table, child, truth) for child in node[1])


class TestCompileEval:
    def test_constants_short_circuit(self):
        table = FormulaTable()
        assert table.compile_eval(TRUE).const is True
        assert table.compile_eval(FALSE).const is False
        assert table.compile_eval(TRUE).evaluate(0)
        assert not table.compile_eval(FALSE).evaluate(0)

    def test_bare_atom(self):
        table = FormulaTable()
        compiled = table.compile_eval(table.atom("down1", 3))
        assert compiled.atoms == (("atom", "down1", 3),)
        assert compiled.evaluate(0b1)
        assert not compiled.evaluate(0b0)

    def test_flat_conjunction_uses_neg_mask_only(self):
        table = FormulaTable()
        atoms = [table.atom("stay", i) for i in range(3)]
        compiled = table.compile_eval(table.conj(atoms))
        assert compiled.program == ()  # complete veto mask, no program
        assert compiled.neg_mask == 0b111 and compiled.pos_mask == 0
        assert compiled.evaluate(0b111)
        for bits in range(0b111):
            assert not compiled.evaluate(bits)

    def test_flat_disjunction_uses_pos_mask(self):
        table = FormulaTable()
        atoms = [table.atom("stay", i) for i in range(3)]
        compiled = table.compile_eval(table.disj(atoms))
        assert compiled.pos_mask == 0b111
        assert not compiled.evaluate(0b000)
        for bits in range(1, 0b1000):
            assert compiled.evaluate(bits)

    def test_nested_programs_agree_with_naive_evaluation(self):
        table = FormulaTable()
        a = table.atom("stay", 0)
        b = table.atom("down1", 1)
        c = table.atom("down2", 2)
        d = table.atom("up", 3)
        formulas = [
            table.conj([table.disj([a, b]), c]),
            table.disj([table.conj([a, b]), table.conj([c, d])]),
            table.conj([table.disj([a, b]), table.disj([c, d]), a]),
            table.disj([table.conj([a, table.disj([b, c])]), d]),
        ]
        for index in formulas:
            compiled = table.compile_eval(index)
            assert compiled.program  # genuinely nested
            width = len(compiled.atoms)
            for bits in range(1 << width):
                truth = {atom: bool(bits >> position & 1)
                         for position, atom in enumerate(compiled.atoms)}
                assert compiled.evaluate(bits) == \
                    _naive_eval(table, index, truth), (index, bits)

    def test_compilation_is_memoized(self):
        table = FormulaTable()
        index = table.conj([table.atom("stay", 0), table.atom("up", 1)])
        assert table.compile_eval(index) is table.compile_eval(index)


# ------------------------------------------------- antichain dominance


def _saturated(source, **kwargs):
    checker = _BitsetChecker(build_twoata(parse_node(source)),
                             max_evals=20_000, max_entries=2_000,
                             max_contexts=500, **kwargs)
    checker.saturate()
    return checker


class TestAntichainOrder:
    def test_gate_requires_rank0_and_monotone_root(self):
        # Loop-free, monotone: pruning is on and actually fires.
        checker = _saturated("p")
        assert checker._rank0 and checker._monotone and checker.antichain
        assert checker.pruned > 0
        # A loop test (⟨down[q]⟩ builds an NFLoop) breaks rank 0: the
        # simulation argument fails and the gate must force pruning off.
        checker = _saturated("p and <down[q]>")
        assert not checker._rank0
        assert not checker.antichain and checker.pruned == 0

    def test_constructor_and_env_kill_switch(self, monkeypatch):
        # The constructor is the only switch; the environment is not read.
        assert _saturated("p", antichain=False).pruned == 0
        monkeypatch.setenv("REPRO_EMPTINESS_ANTICHAIN", "off")
        assert _saturated("p").pruned > 0

    def test_dominance_is_a_partial_order(self):
        """Reflexive, transitive, antisymmetric on the discovered pool."""
        checker = _saturated("p")
        values = [checker._vr_vals[token] for token in checker._pool]
        assert len(values) >= 3

        def dominates(x, y):  # x ⊆ y as wide-int bit sets
            return x | y == y

        for x in values:
            assert dominates(x, x)
        for x, y, z in itertools.product(values, repeat=3):
            if dominates(x, y) and dominates(y, z):
                assert dominates(x, z)
        for x, y in itertools.combinations(values, 2):
            # Interning makes distinct pool tokens distinct vectors.
            assert not (dominates(x, y) and dominates(y, x))

    def test_live_frontier_is_an_antichain(self):
        checker = _saturated("p")
        live = checker._live(list(checker._pool))
        values = checker._vr_vals
        assert live  # something survives
        for x, y in itertools.combinations(live, 2):
            assert values[x] | values[y] != values[y]  # x ⊄ y
            assert values[y] | values[x] != values[x]  # y ⊄ x
        assert checker.frontier_size() == \
            len(checker._pool) - len(checker._dead)

    def test_dead_vectors_are_dominated_by_a_live_one(self):
        """Prune soundness: every pruned vector is ⊆ some surviving one,
        so dropping it from sweeps loses no behaviour."""
        checker = _saturated("p")
        assert checker._dead
        values = checker._vr_vals
        live = checker._live(list(checker._pool))
        for dead in checker._dead:
            assert any(values[dead] | values[token] == values[token]
                       for token in live), dead

    @pytest.mark.parametrize("source", CORPUS)
    def test_pruning_preserves_verdicts(self, source, monkeypatch):
        ata = build_twoata(parse_node(source))
        phi = parse_node(source)
        with_pruning = decide_emptiness(ata, kernel="bitset")
        monkeypatch.setattr(emptiness, "_BitsetChecker",
                            functools.partial(_BitsetChecker,
                                              antichain=False))
        without = decide_emptiness(ata, kernel="bitset")
        assert without.pruned == 0
        assert with_pruning.empty == without.empty
        if not with_pruning.empty:
            assert _satisfies(with_pruning.witness, phi)
            assert _satisfies(without.witness, phi)


# ----------------------------------------------------- schema sessions


def _sat_problem(source):
    return Problem(ProblemKind.SATISFIABILITY, phi=parse_node(source))


class TestSchemaSession:
    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        reset_sessions()
        yield
        reset_sessions()

    def test_schema_id_is_stable_and_discriminating(self):
        phi = parse_node("p and <down[q]>")
        again = parse_node("p and <down[q]>")
        assert schema_id_of(phi) == schema_id_of(again)
        # A different label alphabet compiles to a different schema.
        assert schema_id_of(phi) != schema_id_of(parse_node("r"))

    def test_same_schema_shares_one_session(self):
        first = session_for(_sat_problem("p and q"))
        second = session_for(_sat_problem("q or p"))  # same alphabet
        assert isinstance(first, SchemaSession)
        assert first is second
        assert first.problems_seen == 2
        assert first.stats()["problems"] == 2

    def test_distinct_schemas_get_distinct_sessions(self):
        first = session_for(_sat_problem("p"))
        second = session_for(_sat_problem("r"))
        assert first is not second
        assert first.schema_id != second.schema_id

    def test_reset_sessions_discards_state(self):
        first = session_for(_sat_problem("p"))
        reset_sessions()
        second = session_for(_sat_problem("p"))
        assert first is not second and second.problems_seen == 1

    def test_kernel_cache_warms_across_a_batch(self):
        """Re-deciding over a shared cache adds nothing the second time."""
        cache = KernelCache()
        ata = build_twoata(parse_node("p and not <down*[q]>"))
        cold = decide_emptiness(ata, kernel="bitset", shared=cache)
        warm_sizes = dict(cache.stats())
        assert sum(warm_sizes.values()) > 0
        rerun = decide_emptiness(
            build_twoata(parse_node("p and not <down*[q]>")),
            kernel="bitset", shared=cache)
        assert dict(cache.stats()) == warm_sizes
        assert rerun.empty == cold.empty
        assert rerun.witness == cold.witness

    def test_engine_batch_reuses_the_session(self):
        """Two same-schema problems through the automata engine leave one
        session holding both, with a warmed kernel cache."""
        from repro.analysis import contains

        # Both pairs are label-free, so they compile to the same schema.
        assert contains(parse_path("down/down"), parse_path("down*"),
                        method="automata")
        assert contains(parse_path("up/up"), parse_path("up*"),
                        method="automata")
        [session] = [session_for(Problem(
            ProblemKind.CONTAINMENT, alpha=parse_path("down/down"),
            beta=parse_path("down*")))]
        assert session.problems_seen >= 1
        stats = session.stats()
        assert stats["rtc"] > 0 and stats["wrap"] > 0
