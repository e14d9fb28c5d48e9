"""Emptiness of the Table III 2ATAs (Theorem 10) over the first-child /
next-sibling encoding.

:func:`decide_emptiness` takes the 2ATA ``A_φ`` of :func:`build_twoata`
and decides whether *some finite XML tree* satisfies ``φ`` somewhere —
i.e. whether ``L(A_φ)`` is nonempty — returning a concrete witness tree
when it is.  Together with Prop. 4 this is the paper's conclusive decision
procedure for CoreXPath(*, ≈) containment; the ``automata`` engine
(:mod:`repro.analysis.automata_engine`) wires it into the registry.

The reduction, in the shape the symbolic solvers of Genevès et al. use
(PAPERS.md): an on-the-fly fixpoint over *node summaries* followed by a
parity game on the discovered summary space.

**Summaries.**  Work in the first-child/next-sibling view: every node has
at most two FCNS children (``c1`` = first child, ``c2`` = next sibling),
and the four basic steps move along FCNS tree edges (↓₁/↑₁ along ``c1``
edges, →/← along ``c2`` edges).  For a path automaton base ``π`` with
states ``Q``, any product path from ``(n, q)`` to ``(n, q')`` decomposes
at its visits to ``n`` into test edges at ``n``, excursions into the FCNS
subtree of a child, and excursions into the context above.  Writing
``tc`` for reflexive-transitive closure over state pairs this gives exact
mutual recurrences:

* subtree summary  ``S(n) = tc(tests(n) ∪ wrap(↓₁, S(c1)) ∪ wrap(→, S(c2)))``
* context summary  ``W(c1) = tc(tests(n) ∪ wrap(→, S(c2)) ∪ up(n))`` where
  ``up(n) = wrapup(σ, W(n))`` for the attachment step ``σ`` of ``n``
* full relation     ``Full(n) = tc(S(n) ∪ up(n))`` — ``loop(π_{q,q'})``
  holds at ``n`` iff ``(q, q') ∈ Full(n)``

with ``wrap(τ, R) = {(q_i, q_l) | (q_i, τ, q_j), (q_k, τ˘, q_l) ∈ Δ,
(q_j, q_k) ∈ R}`` and ``wrapup`` its upward twin.  Tests mention only
*strictly nested* automata, so bases form a DAG and are processed in
topological rank order — the truth of a test at ``n`` is read off the
``Full`` relations of lower-rank bases, already computed at ``n``.

**Saturation.**  A node summary is a pair ``(ctx, S̄)`` of an interned
context (``None`` at the root, else the attachment step plus the context
relations ``W̄``) and the per-base subtree relations ``S̄``.  Summaries
are derived leaves-up on demand: contexts computed by any evaluation are
activated, every activated context seeds leaf summaries, and derived
summaries combine under all activated contexts.  Label classes come from
the automaton's :class:`~repro.automata.core.AlphabetPartition`, so the
infinite alphabet costs ``|labels φ mentions| + 1`` classes.  The
recurrences are rank-stratified (rank-0 relations never look at the
context, rank-``r`` relations look only at ranks ``< r`` of it), so the
demanded contexts converge to the exact ones after at most one round per
rank — this is what makes the demand-driven search complete, not just
sound.

**Kernels.**  The relation algebra above runs on one of two interchangeable
kernels (DESIGN.md §11):

* ``bitset`` (default) — a relation over an ``n``-state base is one Python
  integer with bit ``q·n + q'`` standing for the pair ``(q, q')``:
  closure is a bit-row Warshall sweep, excursions are precomputed
  mask shuffles, and test predicates run as
  :class:`~repro.automata.core.CompiledEval` mask programs instead of
  closure recursion.  Because the integer's meaning is fixed by the base
  alone, the rtc/wrap/tests memos can live in a cross-problem
  :class:`~repro.automata.core.KernelCache` (pass ``shared=``; a
  :class:`~repro.analysis.session.SchemaSession` does this for batches).
  When every ``loop`` test occurs positively, the kernel additionally
  prunes the saturation pool to an *antichain* under pointwise relation
  inclusion — dominated summary vectors are never swept as children.
* ``reference`` — the original frozenset-of-pairs algebra, kept verbatim
  as a differential-testing oracle (``decide_emptiness(kernel=
  "reference")``).

Both kernels run the identical saturation/game logic of
:class:`_CheckerBase` and are verdict-identical by construction; the
differential suite (tests/test_bitset_kernel.py) checks that claim on the
full corpus.

**The game.**  Each summary keeps one derivation (label class + child
summaries), the one that discovered it; offers of further derivations
are dropped, which changes no summary and no verdict.  The discovered
summaries form a parity game: Eve picks a root combination, Adam picks
which FCNS child to descend into; every internal position has priority 1
and the "no child left" sink priority 2, so Eve wins iff she can build a
*finite* consistent tree — exactly the co-Büchi discipline the 2ATA's
``Acc`` imposes on ``loop`` states.  A summary is recorded only after
its children, so every derivation is well-founded and the game's verdict
(read off :func:`repro.games.solve_parity`) is "a root combination
exists".  On nonemptiness the root combination of least derivation
height is decoded back through the FCNS encoding into an
:class:`~repro.trees.XMLTree` witness.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .. import obs
from ..games import ParityGame, solve_parity
from ..trees import XMLTree
from .core import (
    FALSE,
    TRUE,
    CompiledEval,
    FormulaTable,
    KernelCache,
    automaton_base_key,
    nf_key,
)
from .nf import (
    NFAnd,
    NFExpr,
    NFLabel,
    NFLoop,
    NFNot,
    NFTop,
    PathAutomaton,
    Step,
    nf_subexpressions,
)
from .twoata import TwoATA

__all__ = [
    "EmptinessLimit",
    "EmptinessResult",
    "decide_emptiness",
]

#: Summary-space guards: past these the checker raises
#: :class:`EmptinessLimit` and the engine declines to the bounded fallback.
DEFAULT_MAX_EVALS = 400_000
DEFAULT_MAX_ENTRIES = 6_000
DEFAULT_MAX_CONTEXTS = 2_000

#: The relation-algebra kernels :func:`decide_emptiness` can run.
_KERNELS = ("bitset", "reference")


class EmptinessLimit(RuntimeError):
    """The summary space outgrew the configured guards."""


@dataclass(frozen=True)
class EmptinessResult:
    """Outcome of an emptiness check.

    ``empty`` — is ``L(A_φ)`` empty?  ``witness`` — a tree accepted by the
    automaton (``None`` iff empty).  The counters describe the run:
    summaries and contexts discovered, positions of the final game, the
    saturation-phase profile (outer rounds, node evaluations performed),
    the relation-algebra kernel that ran, and how many summary vectors the
    antichain pruned from the sweep frontier (0 when pruning was off).
    """

    empty: bool
    witness: XMLTree | None
    entries: int
    contexts: int
    game_positions: int
    rounds: int = 0
    evals: int = 0
    kernel: str = "bitset"
    pruned: int = 0


@dataclass(frozen=True)
class _Eval:
    """Result of evaluating one node template ``(ctx, ℓ, S̄(c1), S̄(c2))``:
    its subtree summary, the contexts its FCNS children would live in, and
    whether ``φ'`` holds at it (meaningful for root candidates)."""

    svec: int
    ctx1: int
    ctx2: int
    root_true: bool


#: Dense indices for the four steps; all hot-path tables key on these
#: instead of hashing enum members.
_STEPS: tuple[Step, ...] = tuple(Step)
_STEP_INDEX: dict[Step, int] = {step: i for i, step in enumerate(_STEPS)}
_CONVERSE: tuple[int, ...] = tuple(
    _STEP_INDEX[step.converse] for step in _STEPS
)
_FC = _STEP_INDEX[Step.FIRST_CHILD]
_RIGHT = _STEP_INDEX[Step.RIGHT]


class _CheckerBase:
    """Saturation, game construction and witness decoding — everything the
    two kernels share.  Subclasses supply the relation algebra: how
    relations are represented (``_empty``, ``_rel_value``), closed
    (``_rtc3``), wrapped through steps (``_wrap``), assembled from test
    predicates (``_tests_rel``/``_tests_mask``) and how the root predicate
    evaluates (``_compile_test``/``_compile_root``/``_root_true``).
    """

    #: Kernel name, reported in :class:`EmptinessResult`.
    kernel = "base"

    def __init__(self, ata: TwoATA, max_evals: int, max_entries: int,
                 max_contexts: int):
        self.partition = ata.partition
        self.phi_prime: NFExpr = ata.initial_expr
        self.max_evals = max_evals
        self.max_entries = max_entries
        self.max_contexts = max_contexts

        # ---- base automata in topological (nesting) rank order
        self._base_ids: dict[tuple, int] = {}
        #: per base, per step index: the ``(source, target)`` step edges.
        self._steps: list[tuple[tuple[tuple[int, int], ...], ...]] = []
        #: per base: the test transitions, with tests compiled to predicate
        #: indices into ``_preds`` (see :meth:`_compile_test`).
        self._tests: list[tuple[tuple[int, int, int], ...]] = []
        self._preds: list[list] = []
        self._states: list[int] = []
        #: per base: the process-global :func:`automaton_base_key` — the
        #: bitset kernel keys its shared memos on it.
        self._global_keys: list[int] = []
        for sub in nf_subexpressions(self.phi_prime):
            if isinstance(sub, NFLoop):
                self._add_base(sub.automaton)
        self.num_bases = len(self._states)
        self._root_pred = self._compile_root(self.phi_prime)

        # ---- interning: summary vectors and contexts
        self._vecs: list[tuple[int, ...]] = []
        self._vec_ids: dict[tuple[int, ...], int] = {}
        self._ctxs: list[tuple[int, int] | None] = [None]
        self._ctx_ids: dict[tuple[int, int] | None, int] = {None: 0}

        # ---- memoized node evaluation
        self._eval_memo: dict[tuple[int, int, int, int], _Eval] = {}
        self.evals = 0
        self.eval_hits = 0

        # ---- saturation-phase profile (plain ints on the hot path; the
        # obs layer sees them once, after saturation finishes)
        self.rounds = 0
        self.wakes_woken = 0
        self.combos_subsumed = 0
        self.pruned = 0

        # ---- saturation state
        #: each derived summary ``(ctx_id, svec)`` -> the one derivation
        #: ``(lcls, child1, child2)`` that discovered it; children are
        #: summary keys (``None`` for an absent FCNS child) recorded earlier.
        self.entries: dict[tuple[int, int], tuple] = {}
        self._pool: list[int] = []  # derived summary vectors, in order
        self._pool_set: set[int] = set()
        self._active: list[int] = []  # activated context ids, in order
        self._active_set: set[int] = set()
        #: per active context (parallel to ``_active``): pool length up to
        #: which all (class, child, child) combos have been processed.
        self._cursor: list[int] = []
        #: parked offers: ``(summary key, derivation)``
        self._wakes: deque[tuple] = deque()
        self._waiting: dict[tuple[int, int], list[tuple]] = {}
        #: ``(token, window, dead) -> [(lcls, svec, child1, child2), ...]``
        #: sweep-row cache; kernels whose tokens collapse contexts set it
        #: to a dict (see :meth:`saturate`), the reference kernel keeps it
        #: ``None`` since its tokens are unique per context.
        self._rows: dict | None = None

    # ------------------------------------------------------------ base setup

    def _add_base(self, auto: PathAutomaton) -> int:
        key = (auto.num_states, auto.transitions)
        hit = self._base_ids.get(key)
        if hit is not None:
            return hit
        # Nested bases first: tests mention strictly smaller automata, so
        # this recursion is well-founded and yields a topological order.
        for _, test, _ in auto.test_transitions():
            for sub in nf_subexpressions(test):
                if isinstance(sub, NFLoop):
                    self._add_base(sub.automaton)
        hit = self._base_ids.get(key)
        if hit is not None:  # added while processing its own tests
            return hit
        index = len(self._states)
        self._base_ids[key] = index
        self._states.append(auto.num_states)
        self._global_keys.append(automaton_base_key(auto))
        steps: list[list[tuple[int, int]]] = [[] for _ in _STEPS]
        for source, tau, target in auto.step_transitions():
            steps[_STEP_INDEX[tau]].append((source, target))
        self._steps.append(tuple(tuple(pairs) for pairs in steps))
        self._preds.append([])
        self._new_base_slot()
        # Canonical test order (structural, not frozenset iteration order):
        # predicate indices must be a pure function of the base *value* so
        # that two checkers seeing structurally equal bases agree on the
        # meaning of a predicate bitmask — the bitset kernel shares its
        # tests memo across checkers on exactly that invariant.
        ordered = sorted(
            auto.test_transitions(),
            key=lambda t: (t[0], t[2], nf_key(t[1])),
        )
        self._tests.append(tuple(
            (source, self._compile_test(test, index), target)
            for source, test, target in ordered
        ))
        return index

    def _base_of(self, auto: PathAutomaton) -> int:
        return self._base_ids[(auto.num_states, auto.transitions)]

    def _new_base_slot(self) -> None:
        """Hook: kernel-private per-base tables grow in step with
        ``_preds``; called once per new base, before its tests compile."""

    # --------------------------------------------------- kernel entry points

    def _compile_test(self, expr: NFExpr, base: int) -> int:
        """Compile a test expression, returning its predicate index in the
        base's ``_preds`` slot."""
        raise NotImplementedError

    def _compile_root(self, expr: NFExpr):
        """Compile the root predicate ``φ'``; the handle is stored as
        ``_root_pred`` and consumed by :meth:`_root_true`."""
        raise NotImplementedError

    def _root_true(self, lcls: int, full: list) -> bool:
        raise NotImplementedError

    def _tests_mask(self, base: int, lcls: int, full: list) -> int:
        """Bitmask of the base's predicate values at a node with label
        class ``lcls`` and lower-rank ``Full`` relations ``full``."""
        raise NotImplementedError

    def _tests_rel(self, base: int, mask: int) -> int:
        raise NotImplementedError

    def _rtc3(self, base: int, first: int, second: int, third: int) -> int:
        raise NotImplementedError

    def _wrap(self, base: int, tau: int, rel_id: int) -> int:
        raise NotImplementedError

    def _rel_value(self, rel_id: int):
        """The kernel-native relation value behind a relation id — what
        test predicates consume as ``full`` entries."""
        raise NotImplementedError

    # ------------------------------------------------------- interning layer

    def _vid(self, vec: tuple[int, ...]) -> int:
        hit = self._vec_ids.get(vec)
        if hit is None:
            hit = len(self._vecs)
            self._vecs.append(vec)
            self._vec_ids[vec] = hit
        return hit

    def _cid(self, ctx: tuple[int, int] | None) -> int:
        hit = self._ctx_ids.get(ctx)
        if hit is None:
            hit = len(self._ctxs)
            self._ctxs.append(ctx)
            self._ctx_ids[ctx] = hit
        return hit

    # --------------------------------------------------------- one-node eval

    def _eval_token(self, ctx_id: int) -> int:
        """The memo token a context contributes to evaluation keys.

        A node evaluation depends on its context only through the wrapped
        excursion relation the context induces, so kernels may collapse
        distinct contexts onto one token when that wrap coincides (the
        bitset kernel does).  The reference kernel keeps contexts apart:
        the token is the context id itself."""
        return ctx_id

    def _evaluate(self, ctx_id: int, lcls: int, s1: int, s2: int) -> _Eval:
        """Evaluate the node template: context ``ctx_id``, label class
        ``lcls``, FCNS children with summary vectors ``s1``/``s2`` (or −1
        for an absent child)."""
        key = (self._eval_token(ctx_id), lcls, s1, s2)
        hit = self._eval_memo.get(key)
        if hit is not None:
            self.eval_hits += 1
            return hit
        return self._evaluate_at(key)

    def _evaluate_at(self, key: tuple[int, int, int, int]) -> _Eval:
        """Memo-miss continuation of :meth:`_evaluate`; callers that have
        already probed the memo with ``key`` jump straight here."""
        self.evals += 1
        if self.evals > self.max_evals:
            raise EmptinessLimit(
                f"emptiness summary search exceeded {self.max_evals} "
                "node evaluations"
            )
        result = self._evaluate_miss(*key)
        self._eval_memo[key] = result
        return result

    def _evaluate_miss(self, ctx_id: int, lcls: int, s1: int,
                       s2: int) -> _Eval:
        ctx = self._ctxs[ctx_id]
        wvec = self._vecs[ctx[1]] if ctx is not None else None
        s1vec = self._vecs[s1] if s1 >= 0 else None
        s2vec = self._vecs[s2] if s2 >= 0 else None
        empty = self._empty

        full: list = []
        svec: list[int] = []
        tvec: list[int] = []
        upvec: list[int] = []
        wraps1: list[int] = []
        wraps2: list[int] = []
        for base in range(self.num_bases):
            # Rank order: tests here mention only lower bases, whose Full
            # relations are already in ``full``.
            mask = self._tests_mask(base, lcls, full)
            tests = self._tests_rel(base, mask)
            inner1 = self._wrap(base, _FC, s1vec[base]) \
                if s1vec is not None else empty
            inner2 = self._wrap(base, _RIGHT, s2vec[base]) \
                if s2vec is not None else empty
            s_id = self._rtc3(base, tests, inner1, inner2)
            if ctx is None:
                up = empty
                full_id = s_id
            else:
                up = self._wrap(base, _CONVERSE[ctx[0]], wvec[base])
                full_id = self._rtc3(base, s_id, up, empty)
            svec.append(s_id)
            tvec.append(tests)
            upvec.append(up)
            wraps1.append(inner1)
            wraps2.append(inner2)
            full.append(self._rel_value(full_id))

        w1 = tuple(
            self._rtc3(base, tvec[base], wraps2[base], upvec[base])
            for base in range(self.num_bases)
        )
        w2 = tuple(
            self._rtc3(base, tvec[base], wraps1[base], upvec[base])
            for base in range(self.num_bases)
        )
        ctx1 = self._cid((_FC, self._vid(w1)))
        ctx2 = self._cid((_RIGHT, self._vid(w2)))

        return _Eval(self._vid(tuple(svec)), ctx1, ctx2,
                     self._root_true(lcls, full))

    # ------------------------------------------------------------ saturation

    def _activate(self, ctx_id: int) -> None:
        if ctx_id in self._active_set:
            return
        self._active_set.add(ctx_id)
        self._active.append(ctx_id)
        self._cursor.append(-1)  # -1: not swept yet (distinct from "pool
        # was empty when swept", which is 0)
        if len(self._active) > self.max_contexts:
            raise EmptinessLimit(
                f"emptiness summary search exceeded {self.max_contexts} "
                "contexts"
            )

    def _add_to_pool(self, svec: int) -> None:
        if svec not in self._pool_set:
            self._pool_set.add(svec)
            self._pool.append(svec)

    def _live(self, vecs: list[int]) -> list[int]:
        """The subset of pool vectors still on the sweep frontier; the
        bitset kernel's antichain filters dominated ones here.  Callers
        pass freshly sliced lists, so returning the input is safe."""
        return vecs

    def frontier_size(self) -> int:
        return len(self._pool)

    def _add_entry(self, key: tuple[int, int], derivation: tuple) -> None:
        """Record the new summary ``key`` with the derivation that
        discovered it; callers have checked that ``key`` is new and that
        the derivation's children are recorded."""
        self.entries[key] = derivation
        if len(self.entries) > self.max_entries:
            raise EmptinessLimit(
                f"emptiness summary search exceeded {self.max_entries} "
                "summaries"
            )
        self._wakes.extend(self._waiting.pop(key, ()))
        self._add_to_pool(key[1])

    def saturate(self) -> None:
        """Run all (context, class, child, child) combos to the fixpoint.

        Combos are never materialized into a queue (the cross product can
        dwarf the number of evaluations actually performed): each context
        keeps a cursor over the pool, and every sweep processes only the
        combos that involve pool vectors past it — new contexts sweep from
        zero.  Combos that had to wait on a missing child summary are woken
        explicitly when it appears.  Pool vectors the antichain has marked
        dead are skipped as children (:meth:`_live`).

        A combo offers a derivation to its summary ``(ctx_id, svec)``.
        Only a summary's first derivation is kept, so an offer to a summary
        that already exists is dropped on the spot (``combos_subsumed``),
        before it can park on a missing child: another derivation of a
        derived summary changes neither the summary set nor the verdict.
        The sweep still activates the offer's child contexts and the row
        still records it — a same-token context replaying the row may not
        have that summary yet.

        Offers park in ``_waiting``/``_wakes`` as ``(key, derivation)``: a
        wake re-checks the summary and child availability and records the
        entry — the evaluation and its children activations were done when
        the combo was swept, nothing is recomputed.  The watched-child
        discipline registers an offer on ONE missing child at a time
        (re-examining on wake), so each offer has at most one live
        registration and a child appearing wakes it exactly once.
        """
        self._activate(0)  # the root context
        classes = range(self.partition.num_classes)
        # Every loop below runs once per (context, class, child, child)
        # combo and is, with the bitset kernel's memoized algebra, the
        # dominant cost of the whole emptiness check; the offer tail is
        # intentionally inlined in all three (wake, replay, sweep).  Keep
        # them in sync.
        eval_memo = self._eval_memo
        evaluate_at = self._evaluate_at
        eval_token = self._eval_token
        active_set = self._active_set
        activate = self._activate
        entries = self.entries
        waiting = self._waiting
        add_entry = self._add_entry
        rows = self._rows
        hits = 0
        dropped = 0
        progress = True
        try:
            while progress:
                progress = False
                self.rounds += 1
                round_start = time.perf_counter()
                evals_before = self.evals
                while self._wakes:
                    progress = True
                    self.wakes_woken += 1
                    waiter = self._wakes.popleft()
                    ekey, derivation = waiter
                    if ekey in entries:
                        dropped += 1
                        continue
                    _, child1, child2 = derivation
                    if child1 is not None and child1 not in entries:
                        waiting.setdefault(child1, []).append(waiter)
                        continue
                    if child2 is not None and child2 not in entries:
                        waiting.setdefault(child2, []).append(waiter)
                        continue
                    add_entry(ekey, derivation)
                # Note: processing can activate contexts and extend the
                # pool mid-sweep; the index loop picks up new contexts, and
                # the next outer round covers pool growth past this sweep's
                # snapshot.
                for index in range(len(self._active)):
                    ctx_id = self._active[index]
                    done = self._cursor[index]
                    limit = len(self._pool)
                    if done == limit:
                        continue
                    progress = True
                    token = eval_token(ctx_id)
                    if rows is not None:
                        # Contexts that share an eval token sweep to
                        # identical result rows; the first sweep of a
                        # (token, cursor window) records its row, later
                        # ones replay it — no key builds, memo probes or
                        # activation checks (those contexts are already
                        # active from the recording sweep).  The dead
                        # count keys the antichain's frontier filter
                        # state, which otherwise changes what a window
                        # contains.
                        row_key = (token, done, limit, len(self._dead))
                        row = rows.get(row_key)
                        if row is not None:
                            hits += len(row)
                            for lcls, svec, child1, child2 in row:
                                ekey = (ctx_id, svec)
                                if ekey in entries:
                                    dropped += 1
                                    continue
                                if child1 is not None \
                                        and child1 not in entries:
                                    waiting.setdefault(child1, []).append(
                                        (ekey, (lcls, child1, child2)))
                                    continue
                                if child2 is not None \
                                        and child2 not in entries:
                                    waiting.setdefault(child2, []).append(
                                        (ekey, (lcls, child1, child2)))
                                    continue
                                add_entry(ekey, (lcls, child1, child2))
                            self._cursor[index] = limit
                            continue
                        record: list | None = []
                    else:
                        record = None
                    if done < 0:
                        old: list[int] = []
                        fresh = [-1, *self._live(self._pool[:limit])]
                    else:
                        old = [-1, *self._live(self._pool[:done])]
                        fresh = self._live(self._pool[done:limit])
                    pairs = [(s1, s2) for s1 in fresh
                             for s2 in old + fresh]
                    pairs += [(s1, s2) for s1 in old for s2 in fresh]
                    for lcls in classes:
                        for s1, s2 in pairs:
                            key = (token, lcls, s1, s2)
                            result = eval_memo.get(key)
                            if result is None:
                                result = evaluate_at(key)
                            else:
                                hits += 1
                            ctx1 = result.ctx1
                            ctx2 = result.ctx2
                            if ctx1 not in active_set:
                                activate(ctx1)
                            if ctx2 not in active_set:
                                activate(ctx2)
                            child1 = (ctx1, s1) if s1 >= 0 else None
                            child2 = (ctx2, s2) if s2 >= 0 else None
                            svec = result.svec
                            if record is not None:
                                record.append((lcls, svec, child1, child2))
                            ekey = (ctx_id, svec)
                            if ekey in entries:
                                dropped += 1
                                continue
                            if child1 is not None \
                                    and child1 not in entries:
                                waiting.setdefault(child1, []).append(
                                    (ekey, (lcls, child1, child2)))
                                continue
                            if child2 is not None \
                                    and child2 not in entries:
                                waiting.setdefault(child2, []).append(
                                    (ekey, (lcls, child1, child2)))
                                continue
                            add_entry(ekey, (lcls, child1, child2))
                    if record is not None:
                        rows[row_key] = record
                    self._cursor[index] = limit
                obs.observe("twoata.emptiness.round_s",
                            time.perf_counter() - round_start)
                obs.observe("twoata.emptiness.round_evals",
                            self.evals - evals_before)
        finally:
            # Locally accumulated profile counters survive a mid-sweep
            # EmptinessLimit unwind.
            self.eval_hits += hits
            self.combos_subsumed += dropped

    # ------------------------------------------------------- root candidates

    def root_combos(self) -> list[tuple[int, tuple | None]]:
        """All ``(label class, first-child summary)`` pairs that a witness
        root can carry: no context, no next sibling, ``φ'`` true."""
        combos: list[tuple[int, tuple | None]] = []
        for lcls in self.partition.classes():
            for s1 in (-1, *self._live(self._pool)):
                result = self._evaluate(0, lcls, s1, -1)
                if not result.root_true:
                    continue
                if s1 >= 0:
                    child = (result.ctx1, s1)
                    if child not in self.entries:
                        continue
                    combos.append((lcls, child))
                else:
                    combos.append((lcls, None))
        return combos

    # ------------------------------------------------------------- the game

    def build_game(self, roots: list[tuple[int, tuple | None]]) -> ParityGame:
        """The emptiness parity game over the discovered summaries.

        Eve picks a root combination; below it every summary has one
        derivation, so only Adam moves, picking the FCNS child to verify.
        Every internal position has priority 1, so Eve wins only by forcing
        every branch into the "no child" sink (priority 2) — i.e. by
        exhibiting a finite consistent tree below the root she picks.
        Since a derivation's children are recorded before it, every branch
        does reach the sink: Eve wins iff some root combination exists.
        """
        eve_sink = ("sink", 0)
        adam_sink = ("sink", 1)
        owner: dict = {eve_sink: 0, adam_sink: 1}
        priority: dict = {eve_sink: 2, adam_sink: 1}
        moves: dict = {eve_sink: (eve_sink,), adam_sink: (adam_sink,)}

        root = ("root",)
        owner[root] = 0
        priority[root] = 1
        moves[root] = tuple(dict.fromkeys(
            eve_sink if child is None else ("entry", child)
            for _, child in roots
        )) or (adam_sink,)

        pending = [position for position in moves[root]
                   if position[0] == "entry"]
        seen = set(pending)
        while pending:
            position = pending.pop()
            _, child1, child2 = self.entries[position[1]]
            owner[position] = 1
            priority[position] = 1
            successors = tuple(
                ("entry", child)
                for child in (child1, child2) if child is not None
            ) or (eve_sink,)
            moves[position] = successors
            for successor in successors:
                if successor != eve_sink and successor not in seen:
                    seen.add(successor)
                    pending.append(successor)
        return ParityGame(owner, priority, moves)

    # ------------------------------------------------------ witness decoding

    def _entry_ranks(self) -> dict[tuple[int, int], int]:
        """Derivation height per summary: one pass in creation order, since
        a derivation's children are always recorded before it."""
        ranks: dict[tuple[int, int], int] = {}
        for key, (_, child1, child2) in self.entries.items():
            ranks[key] = 1 + max(
                (ranks[child] for child in (child1, child2)
                 if child is not None),
                default=0,
            )
        return ranks

    def decode_witness(self, roots: list[tuple[int, tuple | None]]) -> XMLTree:
        """The FCNS-decoded witness tree below the root combination of
        least height."""
        ranks = self._entry_ranks()
        entries = self.entries

        def unranked(lcls: int, first: tuple | None):
            # Follow the FCNS decoding: the c1 child starts the children
            # list, its c2 chain continues it.
            children = []
            current = first
            while current is not None:
                child_class, child_first, sibling = entries[current]
                children.append(unranked(child_class, child_first))
                current = sibling
            return (self.partition.representative(lcls), children)

        def root_height(candidate: tuple[int, tuple | None]) -> int:
            _, child = candidate
            return 0 if child is None else ranks[child]

        lcls, first = min(roots, key=root_height)
        return XMLTree.build(unranked(lcls, first))


class _ReferenceChecker(_CheckerBase):
    """The pre-bitset relation algebra, kept verbatim: relations are
    interned frozensets of state pairs, closures run a per-start DFS, and
    test predicates are compiled to Python closures.  Serves as the
    differential-testing oracle (``kernel="reference"``)."""

    kernel = "reference"

    def __init__(self, ata: TwoATA, max_evals: int, max_entries: int,
                 max_contexts: int):
        self._compile_memo: dict[int, object] = {}
        # ---- interning: relations are dense ids over interned frozensets
        self._rels: list[frozenset] = []
        self._rel_ids: dict[frozenset, int] = {}
        self._empty = self._rid(frozenset())
        # ---- memoized relation algebra
        self._rtc_memo: dict[tuple[int, int], int] = {}
        self._rtc3_memo: dict[tuple[int, int, int, int], int] = {}
        self._wrap_memo: dict[tuple[int, int, int], int] = {}
        self._tests_memo: dict[tuple[int, int], int] = {}
        super().__init__(ata, max_evals, max_entries, max_contexts)

    # --------------------------------------------------------- compilation

    def _compile(self, expr: NFExpr, base: int | None = None):
        """Compile a test expression into a closure ``fn(lcls, full)`` over
        the label class and the per-base ``Full`` relations (which, by rank
        order, are already available for every base the test mentions).

        With ``base`` given, returns the index of the predicate in that
        base's ``_preds`` slot (registering the closure if new) — the
        evaluator keys its tests-relation memo on the bitmask of those
        predicate values.  Compilation is shared by object identity; the
        expressions live in the automaton, which outlives the checker.
        """
        fn = self._compile_memo.get(id(expr))
        if fn is None:
            match expr:
                case NFLabel(name=name):
                    klass = self.partition.class_of(name)

                    def fn(lcls, full, _k=klass):
                        return lcls == _k
                case NFTop():
                    def fn(lcls, full):
                        return True
                case NFNot(child=child):
                    inner = self._compile(child)

                    def fn(lcls, full, _f=inner):
                        return not _f(lcls, full)
                case NFAnd(left=left, right=right):
                    first = self._compile(left)
                    second = self._compile(right)

                    def fn(lcls, full, _a=first, _b=second):
                        return _a(lcls, full) and _b(lcls, full)
                case NFLoop(automaton=auto):
                    pair = (auto.initial, auto.final)
                    sub_base = self._base_of(auto)

                    def fn(lcls, full, _p=pair, _b=sub_base):
                        return _p in full[_b]
                case _:
                    raise TypeError(f"unknown normal form {expr!r}")
            self._compile_memo[id(expr)] = fn
        if base is None:
            return fn
        preds = self._preds[base]
        for index, known in enumerate(preds):
            if known is fn:
                return index
        preds.append(fn)
        return len(preds) - 1

    def _compile_test(self, expr: NFExpr, base: int) -> int:
        return self._compile(expr, base)

    def _compile_root(self, expr: NFExpr):
        return self._compile(expr)

    def _root_true(self, lcls: int, full: list) -> bool:
        return self._root_pred(lcls, full)

    def _tests_mask(self, base: int, lcls: int, full: list) -> int:
        mask = 0
        for index, pred in enumerate(self._preds[base]):
            if pred(lcls, full):
                mask |= 1 << index
        return mask

    # ------------------------------------------------------ relation algebra
    #
    # All operations take and return dense relation ids, so the memo keys
    # are small integer tuples and every distinct (base, operands) pair is
    # computed once across the whole saturation.

    def _rid(self, rel: frozenset) -> int:
        hit = self._rel_ids.get(rel)
        if hit is None:
            hit = len(self._rels)
            self._rels.append(rel)
            self._rel_ids[rel] = hit
        return hit

    def _rel_value(self, rel_id: int):
        return self._rels[rel_id]

    def _rtc(self, base: int, rel_id: int) -> int:
        """Reflexive-transitive closure over the base's state pairs."""
        key = (base, rel_id)
        hit = self._rtc_memo.get(key)
        if hit is not None:
            return hit
        states = self._states[base]
        adjacency: dict[int, set[int]] = {}
        for source, target in self._rels[rel_id]:
            adjacency.setdefault(source, set()).add(target)
        closed = set()
        for start in range(states):
            seen = {start}
            frontier = [start]
            while frontier:
                state = frontier.pop()
                for nxt in adjacency.get(state, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            closed.update((start, reach) for reach in seen)
        hit = self._rid(frozenset(closed))
        self._rtc_memo[key] = hit
        # Closure is idempotent.
        self._rtc_memo[(base, hit)] = hit
        return hit

    def _rtc3(self, base: int, first: int, second: int, third: int) -> int:
        """``rtc(first ∪ second ∪ third)`` — the shape every summary,
        context and full relation is built in."""
        key = (base, first, second, third)
        hit = self._rtc3_memo.get(key)
        if hit is not None:
            return hit
        rels = self._rels
        hit = self._rtc(
            base, self._rid(rels[first] | rels[second] | rels[third])
        )
        self._rtc3_memo[key] = hit
        return hit

    def _wrap(self, base: int, tau: int, rel_id: int) -> int:
        """Excursion along step index ``tau``: step out with ``tau``,
        traverse ``rel`` on the far side, step back with ``tau˘``."""
        key = (base, tau, rel_id)
        hit = self._wrap_memo.get(key)
        if hit is not None:
            return hit
        rel = self._rels[rel_id]
        out = self._steps[base][tau]
        back = self._steps[base][_CONVERSE[tau]]
        wrapped = frozenset(
            (q_i, q_l)
            for q_i, q_j in out
            for q_k, q_l in back
            if (q_j, q_k) in rel
        )
        hit = self._rid(wrapped)
        self._wrap_memo[key] = hit
        return hit

    def _tests_rel(self, base: int, mask: int) -> int:
        """The test-edge relation of the base given the bitmask of its
        predicate values."""
        key = (base, mask)
        hit = self._tests_memo.get(key)
        if hit is not None:
            return hit
        hit = self._rid(frozenset(
            (source, target)
            for source, pred, target in self._tests[base]
            if mask >> pred & 1
        ))
        self._tests_memo[key] = hit
        return hit


class _BitsetChecker(_CheckerBase):
    """The dense integer kernel.

    A relation over an ``n``-state base is one Python integer: bit
    ``q·n + q'`` is set iff the pair ``(q, q')`` is in the relation.  No
    interning layer is needed — the integer *is* the dense value — and the
    algebra becomes machine-integer work: union is ``|``, closure a
    bit-row Warshall sweep, excursions precomputed row shuffles.  Because
    the encoding is fixed by the base alone, the rtc/wrap/tests memos are
    keyed on the process-global :func:`automaton_base_key` and may be
    shared across checkers via a :class:`KernelCache` (``shared=``).

    Test predicates compile through a private :class:`FormulaTable` whose
    pseudo-atoms are ``("lcls"/"nlcls", class)`` label tests and
    ``("loop"/"nloop", base, q·n + q')`` summary probes; each predicate
    then runs as a :class:`CompiledEval` mask program.

    When (a) no *test* predicate mentions a loop at all — every base has
    rank 0, so subtree summaries are pure functions of the label class
    and the child summaries, independent of the node's context — and (b)
    every loop atom in the *root* predicate occurs positively, pointwise
    relation inclusion is a genuine simulation order: a dominating pool
    vector is derivable under every context its dominated one is, and
    substituting it preserves ``root_true``.  Under that gate the pool
    keeps only an antichain of maximal summary vectors — dominated
    vectors stay derivable (their entries and wakes are untouched) but
    are never swept as children again.  Outside the gate (a nested or
    negated loop), pruning silently stays off: summaries then depend on
    the context they were derived under, and cross-context dominance is
    not a simulation (a dominating vector from one context need not be
    derivable where the dominated one is needed).
    """

    kernel = "bitset"

    def __init__(self, ata: TwoATA, max_evals: int, max_entries: int,
                 max_contexts: int, shared: KernelCache | None = None,
                 antichain: bool = True):
        self._shared = shared if shared is not None else KernelCache()
        self._table = FormulaTable()
        self._formula_memo: dict[tuple[NFExpr, bool], int] = {}
        self._pred_ids: list[dict[int, int]] = []
        self._wrap_tables: dict[tuple[int, int], tuple] = {}
        #: Per-base int-keyed caches in front of the shared KernelCache
        #: (which keys on wide tuples for cross-problem reuse).
        self._rtc_local: list[dict[int, int]] = []
        self._wrap_local: list[tuple[dict[int, int], ...]] = []
        self._empty = 0
        self._monotone = True
        self._rank0 = True
        super().__init__(ata, max_evals, max_entries, max_contexts)
        self._pred_evals: list[tuple[CompiledEval, ...]] = [
            tuple(self._table.compile_eval(fid) for fid in preds)
            for preds in self._preds
        ]
        self._root_eval: CompiledEval = self._table.compile_eval(
            self._root_pred
        )
        #: Pruning is sound only when inclusion is a simulation (see the
        #: class docstring): rank-0 bases and a monotone root predicate.
        #: Either violation disables it regardless of ``antichain``.
        self.antichain = antichain and self._monotone and self._rank0
        self._dead: set[int] = set()
        offsets = []
        total = 0
        for states in self._states:
            offsets.append(total)
            total += states * states
        self._offsets = tuple(offsets)
        self._sqmasks = tuple(
            (1 << states * states) - 1 for states in self._states
        )
        self._vr_vals: list[int] = [0]
        self._vr_ids: dict[int, int] = {0: 0}
        self._empty_vr = 0
        self._wrapv_memo: tuple[dict[int, int], ...] = tuple(
            {} for _ in _STEPS
        )
        self._quad_memo: dict[tuple[int, int, int, int], _Eval] = {}
        self._token_memo: dict[int, int] = {}
        self._rows = {}

    # ------------------------------------------------- wide-vector fast path
    #
    # The whole per-base summary vector lives in ONE wide integer: base
    # ``b``'s n²-bit relation occupies bits ``_offsets[b]`` up.  Summary
    # ids (``_vr``) intern wide integers, so contexts, pool tokens and the
    # antichain all work on single machine integers.  The evaluation
    # recurrences then factor through four inputs only — the label class
    # and the three wrapped excursion vectors (first child, next sibling,
    # context) — because stratified tests are functions of the class and
    # the Full relations of *lower* bases, which are themselves determined
    # by those inputs.  One ``(lcls, inner1, inner2, up) -> _Eval`` record
    # therefore captures the entire node evaluation; distinct
    # ``(ctx, s1, s2)`` templates that wrap onto the same quad share it,
    # and the hot path is a handful of small-key memo probes instead of a
    # per-base closure loop.  This — not the bit encoding itself — is
    # where the kernel's speedup over the reference algebra comes from.

    def _vr(self, raw: int) -> int:
        """Intern a wide relation vector; the id doubles as pool token."""
        hit = self._vr_ids.get(raw)
        if hit is None:
            hit = len(self._vr_vals)
            self._vr_vals.append(raw)
            self._vr_ids[raw] = hit
        return hit

    def _wrapv(self, tau: int, vec_id: int) -> int:
        """Wrap a whole summary vector through step ``tau``, base by base."""
        memo = self._wrapv_memo[tau]
        hit = memo.get(vec_id)
        if hit is None:
            raw = self._vr_vals[vec_id]
            offsets = self._offsets
            sqmasks = self._sqmasks
            wrap_local = self._wrap_local
            wide = 0
            for base in range(self.num_bases):
                rel = raw >> offsets[base] & sqmasks[base]
                if rel:
                    wrapped = wrap_local[base][tau].get(rel)
                    if wrapped is None:
                        wrapped = self._wrap(base, tau, rel)
                    wide |= wrapped << offsets[base]
            hit = self._vr(wide)
            memo[vec_id] = hit
        return hit

    def _eval_token(self, ctx_id: int) -> int:
        """Collapse a context onto the id of its wrapped excursion vector.

        The node recurrences consume the context only through
        ``wrap(converse(step), W)``; two contexts with the same wrap are
        indistinguishable to evaluation, so they share one token — and,
        through it, every eval-memo entry.  On context-heavy instances
        (many contexts, tiny pool) this collapses most of the sweep's
        evaluations into memo hits."""
        memo = self._token_memo
        hit = memo.get(ctx_id)
        if hit is None:
            ctx = self._ctxs[ctx_id]
            if ctx is None:
                hit = self._empty_vr
            else:
                hit = self._wrapv(_CONVERSE[ctx[0]], ctx[1])
            memo[ctx_id] = hit
        return hit

    def _evaluate_at(self, key: tuple[int, int, int, int]) -> _Eval:
        # Overrides the base implementation wholesale (counters included):
        # this is the hottest kernel entry point, one call layer matters.
        # ``key[0]`` is this kernel's eval token — the wrapped context
        # vector id itself — so no context lookup happens here.
        self.evals += 1
        if self.evals > self.max_evals:
            raise EmptinessLimit(
                f"emptiness summary search exceeded {self.max_evals} "
                "node evaluations"
            )
        up, lcls, s1, s2 = key
        empty = self._empty_vr
        wrapv_memo = self._wrapv_memo
        if s1 >= 0:
            inner1 = wrapv_memo[_FC].get(s1)
            if inner1 is None:
                inner1 = self._wrapv(_FC, s1)
        else:
            inner1 = empty
        if s2 >= 0:
            inner2 = wrapv_memo[_RIGHT].get(s2)
            if inner2 is None:
                inner2 = self._wrapv(_RIGHT, s2)
        else:
            inner2 = empty
        quad_key = (lcls, inner1, inner2, up)
        result = self._quad_memo.get(quad_key)
        if result is None:
            result = self._evaluate_quad(lcls, inner1, inner2, up)
            self._quad_memo[quad_key] = result
        self._eval_memo[key] = result
        return result

    def _evaluate_quad(self, lcls: int, inner1: int, inner2: int,
                       up: int) -> _Eval:
        """The per-base recurrences for one quad (the quad-memo miss path).

        Bases run in rank order so each base's tests can probe the ``full``
        relations of the lower bases already computed in this pass.
        """
        vals = self._vr_vals
        raw1 = vals[inner1]
        raw2 = vals[inner2]
        raw_up = vals[up]
        offsets = self._offsets
        sqmasks = self._sqmasks
        rtc = self._rtc
        rtc_local = self._rtc_local
        full: list[int] = []
        svec_wide = 0
        full_wide = 0
        w1_wide = 0
        w2_wide = 0
        for base in range(self.num_bases):
            offset = offsets[base]
            mask = sqmasks[base]
            local = rtc_local[base]
            tests = self._tests_rel(
                base, self._tests_mask(base, lcls, full)
            )
            in1 = raw1 >> offset & mask
            in2 = raw2 >> offset & mask
            up_rel = raw_up >> offset & mask
            # Inline local-cache probes: one big-int hash on a hit instead
            # of a call into :meth:`_rtc`.
            u = tests | in1 | in2
            s_rel = local.get(u)
            if s_rel is None:
                s_rel = rtc(base, u)
            if up_rel:
                u = s_rel | up_rel
                f_rel = local.get(u)
                if f_rel is None:
                    f_rel = rtc(base, u)
            else:
                f_rel = s_rel
            u = tests | in2 | up_rel
            w1_rel = local.get(u)
            if w1_rel is None:
                w1_rel = rtc(base, u)
            u = tests | in1 | up_rel
            w2_rel = local.get(u)
            if w2_rel is None:
                w2_rel = rtc(base, u)
            svec_wide |= s_rel << offset
            full_wide |= f_rel << offset
            w1_wide |= w1_rel << offset
            w2_wide |= w2_rel << offset
            full.append(f_rel)
        return _Eval(
            self._vr(svec_wide),
            self._cid((_FC, self._vr(w1_wide))),
            self._cid((_RIGHT, self._vr(w2_wide))),
            self._root_true(lcls, full),
        )

    # --------------------------------------------------------- compilation

    def _formula(self, expr: NFExpr, negated: bool = False) -> int:
        """Translate a test into the formula table, pushing negation down
        to the pseudo-atoms (the table stores positive formulas only)."""
        key = (expr, negated)
        hit = self._formula_memo.get(key)
        if hit is not None:
            return hit
        table = self._table
        match expr:
            case NFTop():
                result = FALSE if negated else TRUE
            case NFLabel(name=name):
                klass = self.partition.class_of(name)
                result = table.atom(
                    ("nlcls" if negated else "lcls", klass), 0
                )
            case NFNot(child=child):
                result = self._formula(child, not negated)
            case NFAnd(left=left, right=right):
                first = self._formula(left, negated)
                second = self._formula(right, negated)
                result = table.disj((first, second)) if negated \
                    else table.conj((first, second))
            case NFLoop(automaton=auto):
                sub_base = self._base_of(auto)
                bit = auto.initial * self._states[sub_base] + auto.final
                if negated:
                    self._monotone = False
                result = table.atom(
                    ("nloop" if negated else "loop", sub_base, bit), 0
                )
            case _:
                raise TypeError(f"unknown normal form {expr!r}")
        self._formula_memo[key] = result
        return result

    def _new_base_slot(self) -> None:
        self._pred_ids.append({})
        self._rtc_local.append({})
        self._wrap_local.append(tuple({} for _ in _STEPS))

    def _compile_test(self, expr: NFExpr, base: int) -> int:
        if self._rank0 and any(isinstance(sub, NFLoop)
                               for sub in nf_subexpressions(expr)):
            self._rank0 = False
        fid = self._formula(expr)
        ids = self._pred_ids[base]
        hit = ids.get(fid)
        if hit is None:
            hit = len(self._preds[base])
            self._preds[base].append(fid)
            ids[fid] = hit
        return hit

    def _compile_root(self, expr: NFExpr):
        return self._formula(expr)

    # ----------------------------------------------------- predicate eval

    def _eval_compiled(self, compiled: CompiledEval, lcls: int,
                       full: list) -> bool:
        if compiled.const is not None:
            return compiled.const
        bits = 0
        bit = 1
        for atom in compiled.atoms:
            tag, *args = atom[1]
            if tag == "lcls":
                if lcls == args[0]:
                    bits |= bit
            elif tag == "nlcls":
                if lcls != args[0]:
                    bits |= bit
            elif tag == "loop":
                if full[args[0]] >> args[1] & 1:
                    bits |= bit
            elif not full[args[0]] >> args[1] & 1:  # nloop
                bits |= bit
            bit <<= 1
        return compiled.evaluate(bits)

    def _root_true(self, lcls: int, full: list) -> bool:
        return self._eval_compiled(self._root_eval, lcls, full)

    def _tests_mask(self, base: int, lcls: int, full: list) -> int:
        mask = 0
        for index, compiled in enumerate(self._pred_evals[base]):
            if self._eval_compiled(compiled, lcls, full):
                mask |= 1 << index
        return mask

    # ------------------------------------------------------ relation algebra

    def _rel_value(self, rel_id: int):
        return rel_id

    def _rtc(self, base: int, rel: int) -> int:
        """Reflexive-transitive closure: bit-row Warshall.

        A per-instance int-keyed cache fronts the shared one: the shared
        cache keys on ``(automaton_base_key, rel)`` so sessions can pool
        results across problems, but hashing that wide tuple on every hit
        is measurable in the sweep — locally the relation int alone is the
        key."""
        local = self._rtc_local[base]
        hit = local.get(rel)
        if hit is not None:
            return hit
        base_key = self._global_keys[base]
        cache = self._shared.rtc
        key = (base_key, rel)
        hit = cache.get(key)
        if hit is not None:
            local[rel] = hit
            return hit
        states = self._states[base]
        row_mask = (1 << states) - 1
        rows = [
            rel >> (i * states) & row_mask | (1 << i)
            for i in range(states)
        ]
        for k in range(states):
            k_bit = 1 << k
            row_k = rows[k]
            if row_k == k_bit:
                continue  # pivot reaches only itself: no-op column
            for i in range(states):
                row = rows[i]
                if row & k_bit and row | row_k != row:
                    rows[i] = row | row_k
        closed = 0
        for row in reversed(rows):
            closed = closed << states | row
        cache[key] = closed
        # Closure is idempotent.
        cache[(base_key, closed)] = closed
        local[rel] = closed
        local[closed] = closed
        return closed

    def _rtc3(self, base: int, first: int, second: int, third: int) -> int:
        return self._rtc(base, first | second | third)

    def _wrap_table(self, base: int, tau: int) -> tuple:
        key = (base, tau)
        hit = self._wrap_tables.get(key)
        if hit is None:
            states = self._states[base]
            by_far: dict[int, list[int]] = {}
            for q_i, q_j in self._steps[base][tau]:
                by_far.setdefault(q_j, []).append(q_i)
            back_rows = [0] * states
            for q_k, q_l in self._steps[base][_CONVERSE[tau]]:
                back_rows[q_k] |= 1 << q_l
            hit = (
                tuple((q_j, tuple(srcs)) for q_j, srcs in by_far.items()),
                tuple(back_rows),
                states,
                (1 << states) - 1,
            )
            self._wrap_tables[key] = hit
        return hit

    def _wrap(self, base: int, tau: int, rel: int) -> int:
        local = self._wrap_local[base][tau]
        hit = local.get(rel)
        if hit is not None:
            return hit
        key = (self._global_keys[base], tau, rel)
        cache = self._shared.wrap
        hit = cache.get(key)
        if hit is not None:
            local[rel] = hit
            return hit
        out_pairs, back_rows, states, row_mask = self._wrap_table(base, tau)
        wrapped = 0
        for q_j, sources in out_pairs:
            row = rel >> (q_j * states) & row_mask
            landed = 0
            while row:
                low = row & -row
                landed |= back_rows[low.bit_length() - 1]
                row ^= low
            if landed:
                for q_i in sources:
                    wrapped |= landed << (q_i * states)
        cache[key] = wrapped
        local[rel] = wrapped
        return wrapped

    def _tests_rel(self, base: int, mask: int) -> int:
        if not mask:
            return 0
        key = (self._global_keys[base], mask)
        cache = self._shared.tests
        hit = cache.get(key)
        if hit is None:
            states = self._states[base]
            hit = 0
            for source, pred, target in self._tests[base]:
                if mask >> pred & 1:
                    hit |= 1 << (source * states + target)
            cache[key] = hit
        return hit

    # --------------------------------------------------- antichain frontier

    def _add_to_pool(self, svec: int) -> None:
        if svec in self._pool_set:
            return
        self._pool_set.add(svec)
        self._pool.append(svec)
        if not self.antichain:
            return
        # The antichain gate implies rank 0, so pool tokens are wide-vector
        # ids and pointwise inclusion is ONE integer subset test.
        vals = self._vr_vals
        dead = self._dead
        vec = vals[svec]
        for other in self._pool:
            if other == svec or other in dead:
                continue
            ovec = vals[other]
            if vec | ovec == ovec:
                # Dominated by a live vector: never sweep it.
                dead.add(svec)
                self.pruned += 1
                return
        for other in self._pool:
            if other == svec or other in dead:
                continue
            if vals[other] | vec == vec:
                dead.add(other)
                self.pruned += 1

    def _live(self, vecs: list[int]) -> list[int]:
        if not self.antichain:
            return vecs
        dead = self._dead
        return [vec for vec in vecs if vec not in dead]

    def frontier_size(self) -> int:
        return len(self._pool) - len(self._dead)


def decide_emptiness(
    ata: TwoATA,
    max_evals: int = DEFAULT_MAX_EVALS,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    max_contexts: int = DEFAULT_MAX_CONTEXTS,
    *,
    kernel: str = "bitset",
    shared: KernelCache | None = None,
) -> EmptinessResult:
    """Is ``L(A_φ)`` empty?  Conclusive either way; raises
    :class:`EmptinessLimit` when the summary space outgrows the guards.

    ``kernel`` selects the relation algebra (``bitset``, the default, or
    the ``reference`` oracle); ``shared`` optionally threads a
    cross-problem :class:`KernelCache` into the bitset kernel so repeated
    checks over the same bases reuse closure and excursion results
    (ignored by the reference kernel).
    """
    if kernel not in _KERNELS:
        raise ValueError(
            f"unknown emptiness kernel {kernel!r}; expected one of {_KERNELS}"
        )
    with obs.span("twoata.emptiness.solve"):
        with obs.span("twoata.emptiness.compile"):
            if kernel == "reference":
                checker: _CheckerBase = _ReferenceChecker(
                    ata, max_evals=max_evals, max_entries=max_entries,
                    max_contexts=max_contexts)
            else:
                checker = _BitsetChecker(
                    ata, max_evals=max_evals, max_entries=max_entries,
                    max_contexts=max_contexts, shared=shared)
        obs.count("twoata.emptiness.states", ata.num_states)
        obs.count("twoata.emptiness.bases", checker.num_bases)
        with obs.span("twoata.emptiness.saturate"):
            checker.saturate()
        obs.count("twoata.emptiness.rounds", checker.rounds)
        obs.count("twoata.emptiness.wakes", checker.wakes_woken)
        obs.count("twoata.emptiness.combos_subsumed", checker.combos_subsumed)
        if kernel == "bitset":
            obs.count("twoata.emptiness.antichain.pruned", checker.pruned)
            obs.gauge("twoata.emptiness.antichain.frontier_size",
                      checker.frontier_size())
        probes = checker.evals + checker.eval_hits
        if probes:
            obs.gauge("twoata.emptiness.eval_memo_hit_rate",
                      checker.eval_hits / probes)
        with obs.span("twoata.emptiness.roots"):
            roots = checker.root_combos()
        with obs.span("twoata.emptiness.game_build"):
            game = checker.build_game(roots)
        obs.count("twoata.emptiness.game_nodes", len(game.owner))
        obs.gauge("twoata.emptiness.entries", len(checker.entries))
        obs.gauge("twoata.emptiness.contexts", len(checker._active))
        obs.gauge("twoata.emptiness.evals", checker.evals)
        with obs.span("twoata.emptiness.game_solve"):
            win_eve, _ = solve_parity(game)
        obs.count("twoata.emptiness.games_solved")
        if ("root",) not in win_eve:
            return EmptinessResult(True, None, len(checker.entries),
                                   len(checker._active), len(game.owner),
                                   checker.rounds, checker.evals,
                                   kernel, checker.pruned)
        with obs.span("twoata.emptiness.decode"):
            witness = checker.decode_witness(roots)
        obs.count("twoata.emptiness.witnesses_decoded")
        return EmptinessResult(False, witness, len(checker.entries),
                               len(checker._active), len(game.owner),
                               checker.rounds, checker.evals,
                               kernel, checker.pruned)
