"""The ``patterns`` engine: polynomial containment for downward tree patterns.

The bottom rung of the engine ladder (DESIGN.md §12).  The paper's upper
bounds are EXPTIME-or-worse, but the positive downward tree-pattern
fragment — child/descendant steps, label tests, filter conjunction; no
negation, union, ≈, or upward/sibling axes — that most corpus queries fall
into admits homomorphism-style checks (Miklau–Suciu; see Neven–Schwentick
and Facchini et al. in PAPERS.md):

* **Containment** ``α ⊑ β`` is decided by first searching for a pattern
  homomorphism ``β → α`` (root to root, output to output, labels
  preserved, child edges onto child edges, descendant-or-self edges onto
  downward pattern paths) with a memoized node-pair table.  A
  homomorphism is a *proof* of containment.  When none exists, the
  canonical-model theorem closes the gap homomorphisms famously leave
  open in the presence of wildcards: ``α ⊑ β`` iff the distinguished pair
  of every canonical model of ``α`` — flexible edges expanded to chains
  of fresh-labelled nodes of every length up to ``|β| + 1`` — lies in
  ``[[β]]``.  The enumeration is exponential only in the number of
  flexible edges of ``α``; past :attr:`PatternsEngine.max_models` the
  engine declines at runtime and the registry falls through to
  ``automata``.

* **Satisfiability** without a schema is immediate: a pattern is
  unsatisfiable iff some node demands two distinct labels; otherwise its
  own instantiation (flexible edges at length 1) is a witness.  Under an
  EDTD the engine runs a memoized cover search (:class:`_CoverSearch`)
  over the schema's content-model NFAs — NP-hard in general, so the
  search carries a step budget and declines past it (``expspace`` picks
  the problem up).

Like every engine's, its witness trees and counterexample pairs are
checked by the registry with a compiled
:class:`~repro.semantics.plan.Plan` (plus
:meth:`~repro.edtd.EDTD.conforms` under a schema) before they become a
verdict.  Each canonical model is also checked to lie in ``α``, which
protects the "contained" verdicts.

Observability: ``patterns.embeddings`` counts homomorphism searches and
``patterns.table_cells`` the memoized node-pair cells they filled;
``patterns.models`` counts canonical models checked and
``patterns.cover.steps`` the schema cover-search work.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .. import obs
from ..edtd.compiled import SchemaTables
from ..semantics import TreeContext, compile_plan
from ..trees import XMLTree
from ..xpath.fragments import (
    EDGE_CHILD,
    EDGE_DESC_SELF,
    TreePattern,
    compile_pattern,
)
from .problems import ContainmentResult, Problem, ProblemKind, SatResult, Verdict
from .reductions import fresh_label
from .registry import Engine, EngineDeclined, default_registry

__all__ = ["PatternsEngine"]


# ------------------------------------------------------------ instantiation


def instantiate(pattern: TreePattern, lengths: dict[tuple[int, int], int],
                fill: str) -> tuple[XMLTree, dict[int, int]] | None:
    """The model of ``pattern`` where flexible edge ``(v, i)`` expands to a
    downward path of ``lengths[(v, i)]`` tree edges (0 merges the two
    endpoints); chain interiors and unlabelled nodes carry ``fill``.

    Returns ``(tree, pos)`` with ``pos`` mapping pattern nodes to tree
    nodes, or ``None`` when a zero-length merge forces two distinct labels
    onto one tree node (the assignment denotes no model).
    """
    n = pattern.size
    rep = list(range(n))

    def find(x: int) -> int:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for v, i in pattern.desc_edges():
        if lengths[(v, i)] == 0:
            _, w = pattern.edges[v][i]
            rep[find(w)] = find(v)

    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(find(v), []).append(v)
    group_label: dict[int, str] = {}
    for group, nodes in members.items():
        required = frozenset().union(*(pattern.labels[v] for v in nodes))
        if len(required) > 1:
            return None
        group_label[group] = next(iter(required)) if required else fill

    # Surviving edges between groups: (chain length >= 1, child group).
    out_edges: dict[int, list[tuple[int, int]]] = {g: [] for g in members}
    for v in range(n):
        for i, (kind, w) in enumerate(pattern.edges[v]):
            length = 1 if kind == EDGE_CHILD else lengths[(v, i)]
            if length > 0:
                out_edges[find(v)].append((length, find(w)))

    labels: list[str] = []
    parents: list[int | None] = []
    pos: dict[int, int] = {}
    stack = [(find(pattern.root), None)]
    while stack:
        group, parent = stack.pop()
        idx = len(labels)
        labels.append(group_label[group])
        parents.append(parent)
        for v in members[group]:
            pos[v] = idx
        for length, child in reversed(out_edges[group]):
            cur = idx
            for _ in range(length - 1):
                labels.append(fill)
                parents.append(cur)
                cur = len(labels) - 1
            stack.append((child, cur))
    return XMLTree(labels, parents), pos


# ------------------------------------------------------------- homomorphism


def embeds(beta: TreePattern, alpha: TreePattern) -> bool:
    """Is there a homomorphism ``β → α``?  Root maps to root, output node
    to output node, labels are preserved, child edges land on child edges
    and descendant-or-self edges on arbitrary downward ``α``-paths.  A
    homomorphism proves ``α ⊑ β`` on every tree."""
    obs.count("patterns.embeddings")

    # desc0[v]: every α node reachable downward from v (any edge kinds) —
    # the nodes guaranteed to lie at-or-below v's image in every model.
    reach: list[frozenset[int]] = []
    for v in range(alpha.size):
        seen = {v}
        frontier = [v]
        while frontier:
            x = frontier.pop()
            for _, w in alpha.edges[x]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        reach.append(frozenset(seen))

    memo: dict[tuple[int, int], bool] = {}

    def match(u: int, v: int) -> bool:
        if u == beta.out and v != alpha.out:
            return False
        key = (u, v)
        cached = memo.get(key)
        if cached is not None:
            return cached
        obs.count("patterns.table_cells")
        ok = beta.labels[u] <= alpha.labels[v]
        if ok:
            for kind, u2 in beta.edges[u]:
                if kind == EDGE_CHILD:
                    ok = any(k2 == EDGE_CHILD and match(u2, v2)
                             for k2, v2 in alpha.edges[v])
                else:
                    ok = any(match(u2, v2) for v2 in reach[v])
                if not ok:
                    break
        memo[key] = ok
        return ok

    return match(beta.root, alpha.root)


# ------------------------------------------------------ schema cover search


#: ``(label, [child specs...])`` as accepted by :meth:`XMLTree.build`.
_Spec = tuple


def _subsets(nodes: frozenset[int]) -> Iterator[frozenset[int]]:
    ordered = sorted(nodes)
    for r in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, r):
            yield frozenset(combo)


class _CoverSearch:
    """Memoized embedding search for one pattern against one EDTD.

    ``cover(G, B, t)`` asks: is there a conforming subtree of abstract
    type ``t`` such that every pattern node in ``G`` embeds *at* its root
    and every node in ``B`` embeds at-or-below some strict descendant
    position?  Successful keys memoize their witness spec; the
    ``visiting`` set cuts derivation cycles (a minimal witness never
    repeats a ``(G, B, t)`` key along a root path, so the cut preserves
    completeness), and every expansion step draws down a shared budget —
    exhausting it aborts the solve with :class:`EngineDeclined`.
    """

    def __init__(self, pattern: TreePattern, tables: SchemaTables,
                 budget: int):
        self.pattern = pattern
        self.tables = tables
        self.budget = budget
        self.steps = 0
        self.memo: dict[tuple, _Spec] = {}
        self.visiting: set[tuple] = set()

    def _tick(self) -> None:
        self.steps += 1
        obs.count("patterns.cover.steps")
        if self.steps > self.budget:
            raise EngineDeclined(
                f"schema cover search exceeded {self.budget} steps")

    def cover(self, G: frozenset[int], B: frozenset[int],
              t: str) -> _Spec | None:
        key = (G, B, t)
        if key in self.memo:
            return self.memo[key]
        if key in self.visiting:
            return None
        self._tick()
        pattern, edtd = self.pattern, self.tables.edtd
        self.visiting.add(key)
        try:
            for b_here in _subsets(B):
                b_rest = B - b_here
                for residents in self._merges(G | b_here):
                    required = frozenset().union(
                        *(pattern.labels[v] for v in residents)) \
                        if residents else frozenset()
                    if len(required) > 1:
                        continue
                    if required and next(iter(required)) != edtd.projection[t]:
                        continue
                    child_demand = frozenset(
                        w for v in residents
                        for kind, w in pattern.edges[v]
                        if kind == EDGE_CHILD)
                    below_demand = b_rest | frozenset(
                        w for v in residents
                        for kind, w in pattern.edges[v]
                        if kind == EDGE_DESC_SELF and w not in residents)
                    children = self._word(t, child_demand, below_demand)
                    if children is not None:
                        spec = (edtd.projection[t], children)
                        self.memo[key] = spec
                        return spec
            return None
        finally:
            self.visiting.discard(key)

    def _merges(self, base: frozenset[int]) -> Iterator[frozenset[int]]:
        """All resident sets obtainable from ``base`` by repeatedly merging
        targets of descendant-or-self edges at length 0."""
        seen = {base}
        queue = [base]
        while queue:
            residents = queue.pop(0)
            yield residents
            for v in sorted(residents):
                for kind, w in self.pattern.edges[v]:
                    if kind == EDGE_DESC_SELF and w not in residents:
                        grown = residents | {w}
                        if grown not in seen:
                            seen.add(grown)
                            queue.append(grown)

    def _word(self, t: str, child_demand: frozenset[int],
              below_demand: frozenset[int]) -> list[_Spec] | None:
        """A content word for ``P(t)`` discharging every demand: each
        child-demanded pattern node resides at the root of exactly one
        child subtree, each below-demanded node embeds within one."""
        nfa = self.tables.edtd.content_nfa(t)
        letters = sorted(self.minimal_letters())
        start = (frozenset(nfa.initial), child_demand, below_demand)
        parents: dict[tuple, tuple | None] = {start: None}
        queue = [start]
        while queue:
            state = queue.pop(0)
            states, remaining_child, remaining_below = state
            if not remaining_child and not remaining_below \
                    and states & nfa.accepting:
                children: list[_Spec] = []
                cur = parents[state]
                node = state
                while cur is not None:
                    children.append(cur[1])
                    node = cur[0]
                    cur = parents[node]
                children.reverse()
                return children
            self._tick()
            for letter in letters:
                step = frozenset().union(
                    *(nfa.successors(q, letter) for q in states))
                if not step:
                    continue
                for cg in _subsets(remaining_child):
                    for bl in _subsets(remaining_below):
                        if cg or bl:
                            spec = self.cover(cg, bl, letter)
                            if spec is None:
                                continue
                        else:
                            spec = self.tables.minimal[letter]
                        nxt = (step, remaining_child - cg,
                               remaining_below - bl)
                        if nxt not in parents:
                            parents[nxt] = (state, spec)
                            queue.append(nxt)
        return None

    def minimal_letters(self) -> frozenset[str]:
        return frozenset(self.tables.minimal)


# ------------------------------------------------------------------ engine


class PatternsEngine(Engine):
    """Homomorphism containment for positive downward tree patterns."""

    name = "patterns"
    conclusive = True
    cost_hint = 5

    #: Canonical-model enumeration cap: past it (many flexible edges on a
    #: large right-hand side) the engine declines and ``automata`` takes
    #: the containment.
    max_models = 4096
    #: Schema cover-search step budget; past it the engine declines and
    #: ``expspace`` takes the satisfiability problem.
    max_cover_steps = 20_000

    def admits(self, problem: Problem) -> bool:
        if problem.kind is ProblemKind.SATISFIABILITY:
            return compile_pattern(problem.phi) is not None
        if problem.kind is ProblemKind.CONTAINMENT:
            # Containment under an EDTD needs schema-aware canonical
            # models; that is ``expspace`` territory.
            return (problem.edtd is None
                    and compile_pattern(problem.alpha) is not None
                    and compile_pattern(problem.beta) is not None)
        return False

    def solve(self, problem: Problem,
              session=None) -> SatResult | ContainmentResult:
        if problem.kind is ProblemKind.SATISFIABILITY:
            pattern = _pattern(problem.phi)
            if problem.edtd is None:
                return self._sat_schemaless(pattern)
            return self._sat_schema(pattern, problem, session)
        assert problem.edtd is None  # admitted: schemaless containment
        return self._containment(_pattern(problem.alpha),
                                 _pattern(problem.beta), problem)

    # ------------------------------------------------------- satisfiability

    def _sat_schemaless(self, pattern: TreePattern) -> SatResult:
        if pattern.conflicted:
            return SatResult(Verdict.UNSATISFIABLE)
        fill = fresh_label(pattern.all_labels)
        lengths = {edge: 1 for edge in pattern.desc_edges()}
        built = instantiate(pattern, lengths, fill)
        assert built is not None  # length-1 expansion never merges
        tree, pos = built
        return SatResult(Verdict.SATISFIABLE, tree, pos[pattern.root],
                         explored_up_to=tree.size, trees_checked=1)

    def _sat_schema(self, pattern: TreePattern, problem: Problem,
                    session=None) -> SatResult:
        if pattern.conflicted:
            return SatResult(Verdict.UNSATISFIABLE)
        from .session import session_for

        if session is None:
            session = session_for(problem)
        # The realizability fixpoints live on the compile-once schema
        # artifact; only the per-pattern cover memos are session state.
        tables = session.compiled.schema_tables()
        cache = session.pattern_cache
        if not tables.reach:  # no conforming documents at all
            return SatResult(Verdict.UNSATISFIABLE)
        search = cache.get(("cover", pattern))
        if search is None:
            search = cache[("cover", pattern)] = _CoverSearch(
                pattern, tables, self.max_cover_steps)
        search.steps = 0  # budget is per solve; memo persists
        for t in sorted(tables.reach):
            spec = search.cover(frozenset({pattern.root}), frozenset(), t)
            if spec is None:
                continue
            full, path = tables.context(t, spec)
            tree = XMLTree.build(full)
            node = 0
            for index in path:
                node = tree.children(node)[index]
            return SatResult(Verdict.SATISFIABLE, tree, node,
                             explored_up_to=tree.size, trees_checked=1)
        return SatResult(Verdict.UNSATISFIABLE)

    # ----------------------------------------------------------- containment

    def _containment(self, alpha: TreePattern, beta: TreePattern,
                     problem: Problem) -> ContainmentResult:
        if alpha.conflicted:
            # [[α]] is empty on every tree: containment holds vacuously.
            return ContainmentResult(Verdict.UNSATISFIABLE)
        if embeds(beta, alpha):
            return ContainmentResult(Verdict.UNSATISFIABLE)
        flexible = alpha.desc_edges()
        bound = beta.size + 1
        models = (bound + 1) ** len(flexible)
        if models > self.max_models:
            raise EngineDeclined(f"{models} canonical models "
                                 f"(> max_models={self.max_models})")
        fill = fresh_label(alpha.all_labels | beta.all_labels)
        assert problem.alpha is not None and problem.beta is not None
        plan = compile_plan(problem.alpha, problem.beta)
        checked = 0
        assignments = sorted(
            itertools.product(range(bound + 1), repeat=len(flexible)),
            key=lambda lengths: (sum(lengths), lengths))
        for assignment in assignments:
            built = instantiate(alpha, dict(zip(flexible, assignment)), fill)
            if built is None:
                continue  # merge conflict: the assignment denotes no model
            tree, pos = built
            checked += 1
            obs.count("patterns.models")
            in_alpha, in_beta = plan.run(TreeContext(tree))
            source, target = pos[alpha.root], pos[alpha.out]
            if target not in in_alpha.get(source, frozenset()):
                raise RuntimeError(
                    "patterns canonical model does not satisfy α")
            if target not in in_beta.get(source, frozenset()):
                return ContainmentResult(
                    Verdict.SATISFIABLE, tree, (source, target),
                    explored_up_to=tree.size, trees_checked=checked)
        return ContainmentResult(Verdict.UNSATISFIABLE,
                                 trees_checked=checked)


def _pattern(expr) -> TreePattern:
    """``expr``'s tree pattern; declines when it does not compile to one."""
    pattern = compile_pattern(expr)
    if pattern is None:
        raise EngineDeclined("not a positive downward tree pattern")
    return pattern


default_registry().register(PatternsEngine())
