"""The ``patterns`` engine: recognizer, homomorphism check, canonical
models, schema cover search, boundary fallthrough, differential sweeps.

The correctness backbone is the randomized differential sweep at the
bottom: on positive downward tree patterns — with and without a DTD — the
polynomial engine must agree verdict-for-verdict with the conclusive
``expspace``/``automata`` engines and never contradict a ``bounded``
witness, and every satisfiability witness must re-verify through a
compiled plan.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.analysis import contains, satisfiable
from repro.analysis.patterns import PatternsEngine, embeds, instantiate
from repro.analysis.problems import Problem, ProblemKind, Verdict
from repro.analysis.registry import EngineDeclined, default_registry
from repro.edtd import EDTD
from repro.edtd.examples import book_edtd, nested_sections_edtd
from repro.semantics import TreeContext, compile_plan
from repro.xpath import parse_node, parse_path, to_source
from repro.xpath.ast import (
    And,
    Axis,
    AxisClosure,
    AxisStep,
    Filter,
    Label,
    Seq,
    SomePath,
)
from repro.xpath.fragments import (
    EDGE_CHILD,
    EDGE_DESC_SELF,
    compile_pattern,
    is_tree_pattern,
)


# ------------------------------------------------------------- recognizer


class TestRecognizer:
    def test_basic_path_pattern_shape(self):
        pattern = compile_pattern(parse_path("down[p]/down*[q and <down[r]>]"))
        assert pattern is not None
        assert pattern.size == 4
        assert pattern.root == 0
        assert pattern.out == 2  # the down* step's target, not the branch
        assert pattern.labels[1] == frozenset({"p"})
        assert pattern.labels[2] == frozenset({"q"})
        assert pattern.edges[0] == ((EDGE_CHILD, 1),)
        assert pattern.edges[1] == ((EDGE_DESC_SELF, 2),)
        assert pattern.edges[2] == ((EDGE_CHILD, 3),)

    def test_node_expression_pattern_selects_root(self):
        pattern = compile_pattern(parse_node("p and <down[q]>"))
        assert pattern is not None
        assert pattern.out == pattern.root == 0
        assert pattern.labels[0] == frozenset({"p"})

    def test_self_step_adds_no_node(self):
        pattern = compile_pattern(parse_path("self::*/down[p]"))
        assert pattern is not None
        assert pattern.size == 2

    def test_conflicting_labels_are_kept_not_rejected(self):
        pattern = compile_pattern(parse_node("p and q"))
        assert pattern is not None
        assert pattern.conflicted

    def test_starred_child_step_is_descendant_or_self(self):
        pattern = compile_pattern(parse_path("(down)*"))
        assert pattern is not None
        assert pattern.edges[0] == ((EDGE_DESC_SELF, 1),)

    @pytest.mark.parametrize("source, parse", [
        ("up", parse_path),                          # upward axis
        ("right", parse_path),                       # sibling axis
        ("down[not p]", parse_path),                 # negation
        ("down[<down union down/down>]", parse_path),  # union under a filter
        ("down union down[p]", parse_path),          # top-level union
        ("down[eq(down, down/down)]", parse_path),   # path equality (≈)
        ("down intersect down[p]", parse_path),      # intersection
        ("down except down[p]", parse_path),         # complementation
        ("(down/down)*", parse_path),                # star on a non-child path
        ("down[<up>]", parse_path),                  # upward axis in a filter
        ("not p", parse_node),                       # node-level negation
        ("for $x in down return down[. is $x]", parse_path),  # for-loop
    ])
    def test_excluded_constructs_are_rejected(self, source, parse):
        assert compile_pattern(parse(source)) is None
        assert not is_tree_pattern(parse(source))


# --------------------------------------------------- homomorphism + models


class TestHomomorphism:
    def _pat(self, source):
        pattern = compile_pattern(parse_path(source))
        assert pattern is not None
        return pattern

    def test_identity_embedding(self):
        alpha = self._pat("down[p]/down[q]")
        assert embeds(alpha, alpha)

    def test_child_edge_never_maps_onto_flexible_edge(self):
        # β = down requires an actual child; α = down* guarantees none.
        assert not embeds(self._pat("down"), self._pat("down*"))
        assert embeds(self._pat("down*"), self._pat("down"))

    def test_descendant_edge_maps_across_paths(self):
        assert embeds(self._pat("down*[q]"), self._pat("down[p]/down[q]"))

    def test_output_anchor_is_respected(self):
        # Same shape, but β selects the q-node while α selects the p-node.
        assert not embeds(self._pat("down[q]"), self._pat("down[<down[q]>]"))

    def test_label_guarantee_is_required(self):
        assert not embeds(self._pat("down[p]"), self._pat("down"))


class TestInstantiate:
    def test_zero_length_merges_nodes(self):
        # down*'s target is a wildcard, so merging it onto the p-node works.
        pattern = compile_pattern(parse_path("down[p]/down*"))
        built = instantiate(pattern, {(1, 0): 0}, "z")
        assert built is not None
        tree, pos = built
        assert tree.size == 2
        assert pos[1] == pos[2]
        assert tree.label(pos[1]) == "p"

    def test_conflicting_merge_is_no_model(self):
        pattern = compile_pattern(parse_path("down[p]/down*[q]"))
        # p-node and q-node merged: two labels on one tree node — skipped.
        assert pattern.labels[1] == frozenset({"p"})
        assert pattern.labels[2] == frozenset({"q"})
        assert instantiate(pattern, {(1, 0): 0}, "z") is None

    def test_chain_interiors_carry_the_fill_label(self):
        pattern = compile_pattern(parse_path("down*[p]"))
        built = instantiate(pattern, {(0, 0): 3}, "z")
        assert built is not None
        tree, pos = built
        assert tree.size == 4
        assert [tree.label(n) for n in range(4)] == ["z", "z", "z", "p"]
        assert pos[pattern.out] == 3


# ------------------------------------------------------- verdict unit table


class TestVerdicts:
    @pytest.mark.parametrize("alpha, beta, contained", [
        ("down[p]", "down", True),
        ("down", "down[p]", False),
        ("down/down", "down*", True),
        ("down*", "down/down", False),
        ("down[p]/down[q]", "down/down[q]", True),
        ("down[p and q]", "down[p]", True),   # conflicted α: vacuous
        ("down[<down[p]>]/down", "down/down", True),
        ("down/down", "down[<down>]/down", True),
        ("down*[p]", "down*", True),
        ("down*", "down*[p]", False),
        ("down/down*", "down*", True),
        ("down*", "down/down*", False),       # length-0 expansion
        ("down[p][q]", "down[q][p]", True),
        ("down[<down[p]/down[q]>]", "down[<down/down[q]>]", True),
        ("down[<down[p]/down[q]>]", "down[<down[q]/down[p]>]", False),
    ])
    def test_containment_verdict(self, alpha, beta, contained):
        result = contains(parse_path(alpha), parse_path(beta),
                          method="patterns")
        assert result.conclusive
        assert result.contained is contained, (alpha, beta)

    def test_counterexample_pairs_reverify_through_a_plan(self):
        alpha, beta = parse_path("down*"), parse_path("down[p]/down")
        result = contains(alpha, beta, method="patterns")
        assert result.verdict is Verdict.SATISFIABLE
        tree, (source, target) = (result.counterexample,
                                  result.counterexample_pair)
        in_alpha, in_beta = compile_plan(alpha, beta).run(TreeContext(tree))
        assert target in in_alpha.get(source, frozenset())
        assert target not in in_beta.get(source, frozenset())

    def test_sat_witness_reverifies_through_a_plan(self):
        phi = parse_node("p and <down*[q and <down[r]>]>")
        result = satisfiable(phi, method="patterns")
        assert result.verdict is Verdict.SATISFIABLE
        satisfied = compile_plan(phi).run_single(TreeContext(result.witness))
        assert result.witness_node in satisfied

    def test_conflicted_node_expression_is_unsat(self):
        result = satisfiable(parse_node("p and q"), method="patterns")
        assert result.verdict is Verdict.UNSATISFIABLE
        assert result.conclusive


class TestSchemaSat:
    def test_dtd_restricts_labels(self):
        dtd = EDTD.from_rules({"a": "b*", "b": "c?", "c": "eps"}, "a")
        sat = satisfiable(parse_node("<down/down[c]>"), edtd=dtd,
                          method="patterns")
        assert sat.verdict is Verdict.SATISFIABLE
        assert dtd.conforms(sat.witness)
        unsat = satisfiable(parse_node("a and <down[c]>"), edtd=dtd,
                            method="patterns")
        assert unsat.verdict is Verdict.UNSATISFIABLE

    def test_book_dtd_witness_conforms(self):
        book = book_edtd()
        phi = parse_node("<down[Chapter]/down[Section]/down[Paragraph]>")
        result = satisfiable(phi, edtd=book, method="patterns")
        assert result.verdict is Verdict.SATISFIABLE
        assert book.conforms(result.witness)
        satisfied = compile_plan(phi).run_single(TreeContext(result.witness))
        assert result.witness_node in satisfied

    def test_edtd_projection_depth_bound(self):
        # §2.1: sections nested at most 3 deep, all projecting to "s".
        edtd = nested_sections_edtd(3)
        ok = satisfiable(parse_node("s and <down/down[s]>"), edtd=edtd,
                         method="patterns")
        assert ok.verdict is Verdict.SATISFIABLE
        too_deep = satisfiable(parse_node("<down/down/down[s]>"), edtd=edtd,
                               method="patterns")
        assert too_deep.verdict is Verdict.UNSATISFIABLE

    def test_descendant_threads_through_recursion(self):
        dtd = EDTD.from_rules({"a": "a? b?", "b": "eps"}, "a")
        result = satisfiable(parse_node("<down*[b]> and <down[a]>"),
                             edtd=dtd, method="patterns")
        assert result.verdict is Verdict.SATISFIABLE
        assert dtd.conforms(result.witness)

    def test_session_reuses_pattern_tables(self):
        from repro.analysis.session import reset_sessions, session_for
        reset_sessions()
        dtd = EDTD.from_rules({"a": "b*", "b": "eps"}, "a")
        satisfiable(parse_node("<down[b]>"), edtd=dtd, method="patterns")
        satisfiable(parse_node("a and <down[b]>"), edtd=dtd,
                    method="patterns")
        problem = Problem(ProblemKind.SATISFIABILITY,
                          phi=parse_node("<down[b]>"), edtd=dtd).canonical()
        session = session_for(problem)
        # Realizability tables live on the compile-once schema artifact
        # (built at most once per schema); the per-pattern cover memos
        # stay session state.
        tables = session.compiled.schema_tables()
        assert tables is session.compiled.schema_tables()
        assert any(key[0] == "cover" for key in session.pattern_cache)
        assert session.stats()["pattern_entries"] >= 2
        reset_sessions()


# ---------------------------------------------- boundary fallthrough (sat.)


#: Out-of-fragment constructs: (kind, expressions...) — each must be
#: declined by ``patterns`` and decided identically by ``automata``.
BOUNDARY_CASES = [
    ("sat", "not p"),
    ("sat", "<up/down[p]>"),
    ("sat", "<right[p]>"),
    ("sat", "<down[not p]>"),
    ("sat", "<down[p] union down[q]>"),
    ("sat", "<(down/down)*[p]>"),
    ("sat", "<down[eq(down, down[p])]>"),
    ("contains", "down[not p]", "down"),
    ("contains", "down union down/down", "down*"),
    ("contains", "down[eq(down, down/down)]", "down"),
    ("contains", "up", "up*"),
    ("contains", "(down/down)*", "down*"),
    ("contains", "down[<right>]", "down"),
]


class TestBoundaryFallthrough:
    """Satellite: each excluded construct is declined by ``patterns`` and
    falls through to ``automata`` with an identical verdict."""

    @pytest.mark.parametrize("case", BOUNDARY_CASES,
                             ids=[" ".join(c) for c in BOUNDARY_CASES])
    def test_declined_and_identical_to_automata(self, case):
        if case[0] == "sat":
            exprs = {"phi": parse_node(case[1])}
            problem = Problem(ProblemKind.SATISFIABILITY, **exprs)
            run = lambda method: satisfiable(exprs["phi"], method=method,
                                             stats=True)  # noqa: E731
        else:
            exprs = {"alpha": parse_path(case[1]), "beta": parse_path(case[2])}
            problem = Problem(ProblemKind.CONTAINMENT, **exprs)
            run = lambda method: contains(exprs["alpha"], exprs["beta"],
                                          method=method, stats=True)  # noqa: E731
        assert not PatternsEngine().admits(problem.canonical())
        with pytest.raises(EngineDeclined):
            run("patterns")
        auto = run("auto")
        try:
            automata = run("automata")
        except EngineDeclined:
            # The 2ATA engine may itself guard-decline at runtime; the
            # fallthrough contract is then about auto dispatch alone.
            automata = None
        if automata is not None:
            assert auto.verdict == automata.verdict, case
        by_name = {c["name"]: c
                   for c in auto.stats["meta"]["engine_decision"]["candidates"]}
        assert by_name["patterns"]["admits"] is False
        assert "error" not in by_name["patterns"]
        assert auto.stats["meta"]["engine"] != "patterns"


# ------------------------------------------------------ differential sweeps


LABELS = ["p", "q"]


def _random_predicate(rng):
    roll = rng.random()
    if roll < 0.6:
        return Label(rng.choice(LABELS))
    if roll < 0.85:
        inner = AxisStep(Axis.DOWN)
        if rng.random() < 0.5:
            inner = Filter(inner, Label(rng.choice(LABELS)))
        return SomePath(inner)
    return And(Label(rng.choice(LABELS)), _random_predicate(rng))


def _random_pattern_path(rng, flexible_budget):
    steps = []
    for _ in range(rng.randint(1, 2)):
        if flexible_budget[0] > 0 and rng.random() < 0.4:
            flexible_budget[0] -= 1
            step = AxisClosure(Axis.DOWN)
        else:
            step = AxisStep(Axis.DOWN)
        if rng.random() < 0.5:
            step = Filter(step, _random_predicate(rng))
        steps.append(step)
    path = steps[0]
    for step in steps[1:]:
        path = Seq(path, step)
    return path


def _random_pattern_node(rng):
    phi = SomePath(_random_pattern_path(rng, [1]))
    if rng.random() < 0.5:
        phi = And(Label(rng.choice(LABELS)), phi)
    return phi


class TestDifferentialSweep:
    """≥200 randomized positive downward patterns, with and without a DTD:
    the polynomial engine agrees with the conclusive engines everywhere
    and never contradicts a bounded-search witness."""

    def test_containment_against_expspace_and_bounded(self):
        rng = random.Random(0xC0DE)
        for _ in range(60):
            alpha = _random_pattern_path(rng, [1])
            beta = _random_pattern_path(rng, [1])
            fast = contains(alpha, beta, method="patterns")
            assert fast.conclusive
            slow = contains(alpha, beta, method="expspace")
            assert fast.verdict == slow.verdict, \
                (to_source(alpha), to_source(beta))
            bounded = contains(alpha, beta, method="bounded", max_nodes=4)
            if bounded.verdict is Verdict.SATISFIABLE:
                assert fast.verdict is Verdict.SATISFIABLE, \
                    (to_source(alpha), to_source(beta))
            if fast.verdict is Verdict.SATISFIABLE:
                tree, (source, target) = (fast.counterexample,
                                          fast.counterexample_pair)
                in_alpha, in_beta = compile_plan(alpha, beta).run(
                    TreeContext(tree))
                assert target in in_alpha.get(source, frozenset())
                assert target not in in_beta.get(source, frozenset())

    def test_containment_against_automata(self):
        # The 2ATA engine is slow (and guard-declines) on larger pattern
        # pairs, so this leg of the sweep sticks to single-step shapes.
        pairs = [
            ("down", "down"),
            ("down[p]", "down"),
            ("down", "down[p]"),
            ("down*", "down"),
            ("down", "down*"),
            ("down*[p]", "down*"),
            ("down[p]", "down[q]"),
            ("down*", "down*[p]"),
        ]
        compared = 0
        for alpha_src, beta_src in pairs:
            alpha, beta = parse_path(alpha_src), parse_path(beta_src)
            fast = contains(alpha, beta, method="patterns")
            try:
                slow = contains(alpha, beta, method="automata")
            except EngineDeclined:
                continue
            compared += 1
            assert fast.verdict == slow.verdict, (alpha_src, beta_src)
        assert compared >= 5

    def test_satisfiability_schemaless(self):
        rng = random.Random(0x5A7)
        for _ in range(60):
            phi = _random_pattern_node(rng)
            fast = satisfiable(phi, method="patterns")
            slow = satisfiable(phi, method="expspace")
            assert fast.verdict == slow.verdict, to_source(phi)
            if fast.verdict is Verdict.SATISFIABLE:
                satisfied = compile_plan(phi).run_single(
                    TreeContext(fast.witness))
                assert fast.witness_node in satisfied, to_source(phi)

    def test_satisfiability_under_a_dtd(self):
        rng = random.Random(0xD7D)
        dtd = EDTD.from_rules({"a": "b* c?", "b": "c? b?", "c": "eps"}, "a")
        LABELS[:] = ["a", "b", "c"]
        try:
            for _ in range(80):
                phi = _random_pattern_node(rng)
                fast = satisfiable(phi, edtd=dtd, method="patterns")
                slow = satisfiable(phi, edtd=dtd, method="expspace")
                assert fast.verdict == slow.verdict, to_source(phi)
                if fast.verdict is Verdict.SATISFIABLE:
                    assert dtd.conforms(fast.witness), to_source(phi)
                    satisfied = compile_plan(phi).run_single(
                        TreeContext(fast.witness))
                    assert fast.witness_node in satisfied, to_source(phi)
        finally:
            LABELS[:] = ["p", "q"]


# -------------------------------------------------------------- dispatch


class TestDispatchIntegration:
    def test_patterns_is_the_cheapest_registered_engine(self):
        problem = Problem(ProblemKind.CONTAINMENT,
                          alpha=parse_path("down[p]"),
                          beta=parse_path("down"))
        candidates = default_registry().candidates(problem)
        assert candidates[0].name == "patterns"
        assert candidates[0].cost_hint < default_registry().get(
            "automata").cost_hint

    def test_auto_dispatch_picks_patterns_on_fragment(self):
        result = contains(parse_path("down[p]"), parse_path("down"),
                          stats=True)
        assert result.stats["meta"]["engine"] == "patterns"
        assert result.conclusive

    def test_counters_are_recorded(self):
        with obs.record("run") as recording:
            contains(parse_path("down[p]/down*"), parse_path("down/down*"),
                     method="patterns")
        counters = recording.counters
        assert counters.get("dispatch.patterns") == 1
        assert counters.get("patterns.embeddings", 0) >= 1
        assert counters.get("patterns.table_cells", 0) >= 1

    def test_equivalence_routes_directions_through_patterns(self):
        from repro.analysis import equivalent
        result = equivalent(parse_path("down[p][q]"), parse_path("down[q][p]"),
                            stats=True)
        assert result.verdict is Verdict.UNSATISFIABLE
        assert result.conclusive
        assert result.stats["counters"].get("dispatch.patterns") == 2
