"""The rewrite pass manager (:mod:`repro.xpath.passes`).

Three layers of evidence that the pipeline is semantics-preserving:

* **Differential, per pass** — each pass of the ``full`` pipeline is
  applied alone to randomized expressions and compared against the
  :class:`~repro.semantics.ReferenceEvaluator` (which never normalizes or
  rewrites) on randomized trees.  A disagreement localizes the unsound
  rule immediately.
* **Differential, whole pipeline** — :func:`~repro.xpath.passes.canonical`
  at every registered level vs the reference, plus idempotence: the
  canonical form is a fixpoint *by identity*.
* **Round-trip** — for the corpus of every expression literal in the test
  and benchmark suites, printing the canonical form and re-parsing it
  re-interns onto the same dense key (``to_source`` stays injective on
  canonical forms, so the on-disk verdict-cache keys are faithful).

Plus targeted unit tests for the individual algebraic laws and the cost
guard, and a regression for the old ``optimize.simplify_union``
divergence (its private union flatten/rebuild neither deduplicated nor
ordered members, so its output disagreed with the normalizer's form).
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from repro.semantics import ReferenceEvaluator
from repro.trees import random_tree
from repro.xpath import (
    intern_expr,
    parse_node,
    parse_path,
    passes,
    size,
    to_source,
)
from repro.xpath.ast import (
    Axis,
    AxisClosure,
    AxisStep,
    NodeExpr,
    PathExpr,
)
from repro.xpath.intern import intern_key
from repro.xpath.passes import (
    EMPTY_PATH,
    FALSE,
    canonical,
    canonical_with_stats,
    cost,
    get_pipeline,
    is_empty_path,
    rebuild_union,
    union_members,
)

from .helpers import (
    DEFAULT_LABELS,
    random_node,
    random_path,
    run_with_hash_seed,
)

ALL_OPERATORS = frozenset({"cap", "minus", "star", "eq"})
#: Generator labels include one ("r") outside the schema alphabet below,
#: so dead-label elimination actually fires in the differential runs.
GEN_LABELS = ("p", "q", "r")
ALPHABET = frozenset(DEFAULT_LABELS)


def _random_trees(rng: random.Random, count: int, max_nodes: int = 6):
    # Trees are generated over the schema alphabet: the dead-labels pass
    # is only equivalence-preserving on documents the schema admits.
    return [random_tree(rng, max_nodes, list(DEFAULT_LABELS))
            for _ in range(count)]


def _random_exprs(rng: random.Random, count: int):
    exprs: list = []
    for _ in range(count):
        depth = rng.randint(1, 4)
        if rng.random() < 0.5:
            exprs.append(random_path(rng, depth, ALL_OPERATORS,
                                     labels=GEN_LABELS))
        else:
            exprs.append(random_node(rng, depth, ALL_OPERATORS,
                                     labels=GEN_LABELS))
    return exprs


def _evaluate(tree, expr):
    reference = ReferenceEvaluator(tree)
    if isinstance(expr, PathExpr):
        return reference.path(expr)
    return reference.nodes(expr)


# ------------------------------------------------------------ differential


FULL_PASSES = get_pipeline("full").passes


@pytest.mark.parametrize("rewrite_pass", FULL_PASSES,
                         ids=[p.name for p in FULL_PASSES])
def test_each_pass_preserves_semantics(rewrite_pass):
    rng = random.Random(hash(rewrite_pass.name) & 0xFFFF)
    trees = _random_trees(rng, 5)
    for expr in _random_exprs(rng, 60):
        interned = intern_expr(expr)
        rewritten = rewrite_pass.apply(interned, ALPHABET, [0])
        if rewritten is interned:
            continue
        for tree in trees:
            assert _evaluate(tree, rewritten) == _evaluate(tree, interned), \
                (rewrite_pass.name, to_source(interned), to_source(rewritten))


@pytest.mark.parametrize("level", passes.PASS_LEVELS)
def test_pipeline_preserves_semantics(level):
    rng = random.Random(hash(level) & 0xFFFF)
    trees = _random_trees(rng, 5)
    for expr in _random_exprs(rng, 80):
        result = canonical(expr, level=level, alphabet=ALPHABET)
        for tree in trees:
            assert _evaluate(tree, result) == _evaluate(tree, expr), \
                (level, to_source(intern_expr(expr)), to_source(result))


@pytest.mark.parametrize("level", passes.PASS_LEVELS)
def test_pipeline_is_idempotent_by_identity(level):
    rng = random.Random(20070 + len(level))
    for expr in _random_exprs(rng, 80):
        once = canonical(expr, level=level, alphabet=ALPHABET)
        assert canonical(once, level=level, alphabet=ALPHABET) is once


def test_pipeline_never_grows_the_expression():
    rng = random.Random(717)
    for expr in _random_exprs(rng, 80):
        interned = intern_expr(expr)
        result = canonical(interned, level="full", alphabet=ALPHABET)
        assert cost(result) <= cost(interned)


# ------------------------------------------------------------- round-trip


def _corpus() -> list[str]:
    here = Path(__file__).resolve().parent
    pattern = re.compile(r"parse_(?:path|node)\(\s*[\"']([^\"'\\\n]+)[\"']")
    sources: set[str] = set()
    for directory in (here, here.parent / "benchmarks"):
        for path in sorted(directory.glob("*.py")):
            sources.update(pattern.findall(path.read_text(encoding="utf-8")))
    assert len(sources) > 50  # the suites are full of expression literals
    return sorted(sources)


def test_canonical_forms_round_trip_through_the_printer():
    checked = 0
    for source in _corpus():
        try:
            expr = parse_path(source)
        except Exception:  # noqa: BLE001 - node expression or template
            try:
                expr = parse_node(source)
            except Exception:  # noqa: BLE001 - not a real literal (f-string
                continue       # fragment, deliberately-bad syntax, ...)
        for level in passes.PASS_LEVELS:
            root = canonical(expr, level=level)
            reparse = parse_path if isinstance(root, PathExpr) else parse_node
            again = intern_expr(reparse(to_source(root)))
            assert again is root, (level, source, to_source(root))
            assert intern_key(again) == intern_key(root)
        checked += 1
    assert checked > 50


# ------------------------------------------------------------ unit rewrites


def _canon_path(source: str, level: str = "full",
                alphabet: frozenset | None = None) -> PathExpr:
    return canonical(parse_path(source), level=level, alphabet=alphabet)


def _canon_node(source: str, level: str = "full",
                alphabet: frozenset | None = None) -> NodeExpr:
    return canonical(parse_node(source), level=level, alphabet=alphabet)


class TestAlgebraicLaws:
    def test_union_duplicates_collapse(self):
        assert _canon_path("down[p] union down[p]") is _canon_path("down[p]")

    def test_union_is_order_insensitive(self):
        assert _canon_path("down[p] union up") is _canon_path("up union down[p]")

    def test_operand_order_is_independent_of_interning_history(self):
        """Two processes agree on the canonical form, and so on the cache
        key, whichever operand one of them happened to intern first."""
        code = (
            "import sys\n"
            "from repro.analysis.problems import Problem, ProblemKind\n"
            "from repro.parallel import problem_fingerprint\n"
            "from repro.xpath import intern_expr, parse_path, to_source\n"
            "if sys.argv[1] == 'first':\n"
            "    intern_expr(parse_path('up[b]'))\n"
            "problem = Problem(ProblemKind.CONTAINMENT,\n"
            "                  alpha=parse_path('down*[x]'),\n"
            "                  beta=parse_path('up[a] intersect up[b]'))\n"
            "problem = problem.canonical()\n"
            "print(to_source(problem.beta), problem_fingerprint(problem))\n"
        )
        fresh, primed = (run_with_hash_seed(["-c", code, history], seed=0)
                         for history in ("fresh", "first"))
        assert fresh == primed
        assert fresh.startswith("up[a] intersect up[b] ")

    def test_star_of_step_is_closure(self):
        assert _canon_path("down*") is intern_expr(AxisClosure(Axis.DOWN))
        assert _canon_path("(down*)*") is intern_expr(AxisClosure(Axis.DOWN))

    def test_star_absorbs_identity_member(self):
        assert _canon_path("(down union .)*") is \
            intern_expr(AxisClosure(Axis.DOWN))

    def test_closure_composition_collapses(self):
        assert _canon_path("down*/down*") is intern_expr(AxisClosure(Axis.DOWN))

    def test_filter_merge(self):
        assert _canon_path("down[p][q]") is _canon_path("down[p and q]")

    def test_trailing_identity_filter_fuses(self):
        assert _canon_path("down/.[p]") is _canon_path("down[p]")

    def test_self_equality_is_some_path(self):
        # α ≈ α holds exactly where α has a target: eq(α, α) → ⟨α⟩.
        assert _canon_node("eq(down, down)") is _canon_node("<down>")

    def test_contradiction_is_false(self):
        assert _canon_node("p and not p") is FALSE

    def test_empty_path_propagates(self):
        assert is_empty_path(_canon_path("down except down"))
        assert is_empty_path(_canon_path("up/(down except down)/down"))
        assert _canon_node("<down except down>") is FALSE

    def test_some_path_with_identity_is_top(self):
        assert _canon_node("<down union .>") is intern_expr(parse_node("true"))

    def test_union_member_subsumed_by_closure(self):
        assert _canon_path("down union down*") is \
            intern_expr(AxisClosure(Axis.DOWN))

    def test_intersect_with_superset_drops_it(self):
        assert _canon_path("down intersect down*") is \
            intern_expr(AxisStep(Axis.DOWN))

    def test_complement_of_subsumed_is_empty(self):
        assert is_empty_path(_canon_path("down except down*"))


class TestDeadLabels:
    def test_label_outside_alphabet_is_false(self):
        sigma = frozenset({"p"})
        assert _canon_node("q", alphabet=sigma) is FALSE
        assert is_empty_path(_canon_path("down[q]", alphabet=sigma))

    def test_alphabet_labels_survive(self):
        sigma = frozenset({"p"})
        assert _canon_node("p", alphabet=sigma) is intern_expr(parse_node("p"))

    def test_without_alphabet_nothing_fires(self):
        assert _canon_node("q") is intern_expr(parse_node("q"))


class TestCostGuard:
    def test_canonical_constants_priced_as_atoms(self):
        # ``down except down*`` (4 nodes) collapses to ``.[false]``
        # (4 nodes) only because the canonical empty is priced as one
        # atom — the guard must not block the emptiness funnel.
        assert cost(EMPTY_PATH) == (1, 1)
        assert cost(FALSE) == (1, 1)
        assert is_empty_path(_canon_path("down except down*"))

    def test_levels_are_memoized_independently(self):
        expr = parse_path("down[p and p] union down[p and p]")
        basic = canonical(expr, level="basic")
        full = canonical(expr, level="full")
        assert size(full) <= size(basic)
        assert canonical(expr, level="basic") is basic
        assert canonical(expr, level="full") is full


class TestStats:
    def test_canonical_with_stats_reports_node_counts(self):
        expr = parse_path("down[p] union down[p] union down")
        result, stats = canonical_with_stats(expr)
        assert stats.level == "full"
        assert stats.nodes_before >= stats.nodes_after
        assert stats.nodes_after == size(result)
        assert "normalize" in stats.per_pass

    def test_session_default_is_adjustable(self):
        previous = passes.set_default_pipeline("basic")
        try:
            assert passes.default_pipeline() == "basic"
            expr = parse_node("p and not p")
            assert canonical(expr) is not FALSE  # basic keeps it
            assert canonical(expr, level="full") is FALSE
        finally:
            passes.set_default_pipeline(previous)


class TestUnionHelpers:
    def test_members_flatten_nested_unions(self):
        members = union_members(parse_path("(down union up) union down"))
        assert [to_source(m) for m in members] == ["down", "up", "down"]

    def test_rebuild_of_empty_list_is_the_empty_path(self):
        assert rebuild_union([]) is EMPTY_PATH


class TestOptimizeDivergenceRegression:
    """`simplify_union` used to keep private flatten/rebuild helpers whose
    output diverged from the normalizer's canonical member order and kept
    syntactic duplicates; it now goes through the shared pipeline."""

    def test_permuted_unions_simplify_identically(self):
        from repro.analysis.optimize import simplify_union

        left = simplify_union(parse_path("down[p] union up union down"),
                              method="bounded", max_nodes=4)
        right = simplify_union(parse_path("down union up union down[p]"),
                               method="bounded", max_nodes=4)
        assert intern_expr(left) is intern_expr(right)

    def test_duplicate_members_drop_without_engine_calls(self):
        from repro import obs
        from repro.analysis.optimize import simplify_union

        query = parse_path("up[q] union up[q]")
        with obs.record("dedupe") as recording:
            simplified = simplify_union(query, method="bounded", max_nodes=4)
        assert to_source(simplified) == "up[q]"
        counters = recording.to_run_record().to_dict()["counters"]
        assert not any(name.startswith("dispatch.") for name in counters)
