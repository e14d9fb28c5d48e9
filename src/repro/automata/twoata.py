"""Two-way alternating tree automata (Definitions 8–9) and the reduction of
satisfiability to 2ATA acceptance (§3.3, Table III, Lemma 12).

Given a CoreXPath(*, ≈) node expression ``φ``, :func:`build_twoata`
constructs the 2ATA ``A_φ`` whose states are the expressions in ``cl(φ')``
with ``φ' = loop(↓*[φ]/↑*)``, whose transition function is exactly Table III,
and whose parity condition assigns 1 to ``loop`` states and 2 to all others.
``A_φ`` accepts an XML tree iff the tree satisfies ``φ`` at some node
(Lemma 12) — a fact the test suite verifies against the direct semantics.

Acceptance of a *given finite tree* is decided exactly, by solving the parity
game on the product of tree and automaton (:func:`accepts`).  Emptiness of
``L(A_φ)`` — Theorem 10's EXPTIME result — is decided by
:mod:`repro.automata.emptiness` over the first-child/next-sibling encoding;
the ``automata`` engine in :mod:`repro.analysis.automata_engine` exposes it
as the conclusive decision procedure for CoreXPath(*, ≈) containment.

The symbolic machinery lives in :mod:`repro.automata.core`: states are
interned to integers (indices into ``cl(φ')``), transition formulas are
hash-consed tuples in a shared :class:`~repro.automata.core.FormulaTable`
(Table III's negative rows are its memoized De Morgan duals of the positive
rows), and the transition function is computed per *alphabet class* of an
:class:`~repro.automata.core.AlphabetPartition` — the labels ``φ`` mentions
plus one "other" class — rather than per concrete label, so ``δ`` is finite
even though the label alphabet is not.
"""

from __future__ import annotations

from .. import obs
from ..games import ParityGame, solve_parity
from ..trees import XMLTree
from ..xpath.ast import Axis, AxisClosure, Filter, NodeExpr, Seq
from .core import EPS, FALSE, TRUE, AlphabetPartition, FormulaTable
from .evaluate import possible_steps, step_target
from .nf import (
    NFAnd,
    NFExpr,
    NFLabel,
    NFLoop,
    NFNot,
    NFTop,
    PathAutomaton,
    Step,
    nf_negate,
    nf_render,
    nf_subexpressions,
)
from .normalform import eliminate_skips, path_to_automaton

__all__ = ["TwoATA", "closure", "build_twoata", "accepts", "EPS"]


def closure(phi_prime: NFExpr) -> frozenset[NFExpr]:
    """``cl(φ')`` (§3.3): subexpressions, all state-shifted loops, and single
    negations."""
    base: set[NFExpr] = set(nf_subexpressions(phi_prime))
    for expr in list(base):
        if isinstance(expr, NFLoop):
            automaton = expr.automaton
            for q in range(automaton.num_states):
                for q_prime in range(automaton.num_states):
                    base.add(NFLoop(automaton.shift(q, q_prime)))
    closed = set(base)
    for expr in base:
        if not isinstance(expr, NFNot):
            closed.add(NFNot(expr))
    return frozenset(closed)


class TwoATA:
    """The 2ATA ``A_φ`` with states ``{q_ψ | ψ ∈ cl(φ')}``.

    ``state_exprs[i]`` is the normal-form expression of state ``i``;
    ``initial`` is the index of ``q_{φ'}``.  ``partition`` is the symbolic
    alphabet and ``table`` the shared transition-formula store.
    """

    def __init__(self, phi_prime: NFExpr,
                 partition: AlphabetPartition | None = None):
        self.initial_expr = phi_prime
        # States are numbered in the order of their structural rendering, a
        # pure function of the formula; one memo renders each distinct
        # subterm and automaton base once for the whole closure.
        memo: dict = {}
        self.state_exprs: list[NFExpr] = sorted(
            closure(phi_prime), key=lambda expr: nf_render(expr, memo)
        )
        self._state_ids: dict[NFExpr, int] = {
            expr: index for index, expr in enumerate(self.state_exprs)
        }
        self.initial = self._state_ids[phi_prime]
        self._priorities = [
            1 if isinstance(expr, NFLoop) else 2 for expr in self.state_exprs
        ]
        # A compiled schema may seed its shared partition, but only when it
        # matches the formula's own mentioned labels exactly — then the two
        # partitions are equal objects in all but identity, so adopting the
        # shared one changes nothing while letting emptiness memos keyed on
        # (base key, class mask) collide across a batch's problems.
        own = AlphabetPartition.from_nf(phi_prime)
        if partition is not None and partition.labels == own.labels:
            self.partition = partition
            obs.count("twoata.partition_shared")
        else:
            self.partition = own
        self.table = FormulaTable(negate_state=self._negate_state)
        self._delta_memo: dict[tuple, int] = {}
        obs.count("twoata.automata_built")
        obs.count("twoata.states_built", len(self.state_exprs))
        obs.gauge("twoata.states", len(self.state_exprs))
        obs.gauge("twoata.alphabet_classes", self.partition.num_classes)

    # ------------------------------------------------------------ structure

    @property
    def num_states(self) -> int:
        return len(self.state_exprs)

    def priority(self, state: int) -> int:
        """``Acc``: 1 for ``loop`` states (they must not persist forever on a
        path of the run), 2 for everything else."""
        return self._priorities[state]

    def state_of(self, expr: NFExpr) -> int:
        return self._state_ids[expr]

    def _negate_state(self, state: int) -> int:
        """``q_ψ ↦ q_{¬ψ}`` — total on ``cl(φ')`` by construction."""
        return self._state_ids[nf_negate(self.state_exprs[state])]

    def formula(self, index: int) -> tuple:
        """The hash-consed transition formula node with the given index."""
        return self.table.node(index)

    # ------------------------------------------------------------ transition

    def delta(self, state: int, label: str, poss_steps: frozenset[Step]) -> int:
        """Table III; returns the index of the transition formula."""
        return self.delta_class(
            state, self.partition.class_of(label), poss_steps
        )

    def delta_class(self, state: int, klass: int,
                    poss_steps: frozenset[Step]) -> int:
        """Table III per alphabet class — all concrete labels in one class
        share one transition formula."""
        key = (state, klass, poss_steps)
        index = self._delta_memo.get(key)
        if index is None:
            obs.count("twoata.transitions_built")
            index = self._delta_raw(state, klass, poss_steps)
            self._delta_memo[key] = index
        return index

    def _delta_raw(self, state: int, klass: int,
                   poss_steps: frozenset[Step]) -> int:
        expr = self.state_exprs[state]
        match expr:
            case NFLabel(name=name):
                matches = self.partition.class_of(name) == klass
                return TRUE if matches else FALSE
            case NFTop():
                return TRUE
            case NFAnd(left=a, right=b):
                return self.table.conj([
                    self.table.atom(EPS, self.state_of(a)),
                    self.table.atom(EPS, self.state_of(b)),
                ])
            case NFLoop(automaton=auto):
                return self._delta_loop(auto, poss_steps)
            case NFNot(child=child):
                # Table III's ¬ψ rows are the De Morgan duals of the ψ rows
                # (with every atom's state negated); ¬¬ψ collapses to ψ.
                inner = child.child if isinstance(child, NFNot) else None
                if inner is not None:
                    return self.delta_class(self.state_of(inner), klass,
                                            poss_steps)
                return self.table.dual(
                    self.delta_class(self.state_of(child), klass, poss_steps)
                )
        raise TypeError(f"unknown state expression {expr!r}")

    def _delta_loop(self, auto: PathAutomaton,
                    poss_steps: frozenset[Step]) -> int:
        q_init, q_final = auto.initial, auto.final
        if q_init == q_final:
            return TRUE

        def loop_atom(move, q: int, q_prime: int) -> int:
            return self.table.atom(
                move, self.state_of(NFLoop(auto.shift(q, q_prime)))
            )

        parts: list[int] = []
        # Direct test transitions from q_I to q_F.
        for source, test, target in auto.test_transitions():
            if source == q_init and target == q_final:
                parts.append(self.table.atom(EPS, self.state_of(test)))
        # Step out and return: (q_I, τ, q_k) and (q_ℓ, τ˘, q_F).
        for source, tau, q_k in auto.step_transitions():
            if source != q_init or tau not in poss_steps:
                continue
            for q_l, sym, target in auto.step_transitions():
                if target == q_final and sym is tau.converse:
                    parts.append(loop_atom(tau, q_k, q_l))
        # Split the loop at an intermediate state.  q_k ∈ {q_I, q_F} is
        # redundant (it yields a trivial ⊤-half plus the state itself), so
        # it is pruned.
        for q_k in range(auto.num_states):
            if q_k in (q_init, q_final):
                continue
            parts.append(self.table.conj([
                loop_atom(EPS, q_init, q_k), loop_atom(EPS, q_k, q_final),
            ]))
        return self.table.disj(parts)


def build_twoata(phi: NodeExpr,
                 partition: AlphabetPartition | None = None) -> TwoATA:
    """The 2ATA ``A_φ`` for a CoreXPath(*, ≈) node expression ``φ``.

    ``φ' = loop(↓*[φ]/↑*)`` holds at the root iff ``φ`` holds somewhere, so
    the automaton starts at the root in state ``q_{φ'}``.

    ``partition`` may be a compiled schema's shared alphabet partition; it
    is adopted only when it equals the formula's own mentioned-label
    partition (see :class:`TwoATA`), so results are identical either way.
    """
    with obs.span("twoata.build"):
        wrapped = Seq(Filter(AxisClosure(Axis.DOWN), phi), AxisClosure(Axis.UP))
        phi_prime: NFExpr = NFLoop(eliminate_skips(path_to_automaton(wrapped)))
        return TwoATA(phi_prime, partition=partition)


def accepts(automaton: TwoATA, tree: XMLTree) -> bool:
    """Does ``automaton`` accept ``tree``?  Decided exactly by solving the
    parity game on the (reachable part of the) product of tree and automaton:
    Eve resolves disjunctions (the nondeterminism of the run), Adam
    conjunctions (the alternation); priorities come from ``Acc``.
    """
    # Positions: ("st", node, state) | ("f", node, formula_index) | sinks.
    eve_sink = ("win", 0, 0)
    adam_sink = ("win", 1, 1)
    owner = {eve_sink: 0, adam_sink: 1}
    priority = {eve_sink: 2, adam_sink: 1}
    moves: dict = {eve_sink: (eve_sink,), adam_sink: (adam_sink,)}

    root_position = ("st", tree.root, automaton.initial)
    pending = [root_position]
    seen = {root_position}
    poss = {node: possible_steps(tree, node) for node in tree.nodes}
    # Transition formulas depend on the label only through its class.
    klass = {node: automaton.partition.class_of(tree.label(node))
             for node in tree.nodes}

    def push(position) -> None:
        if position not in seen:
            seen.add(position)
            pending.append(position)

    while pending:
        position = pending.pop()
        kind, node, payload = position
        if kind == "st":
            formula_index = automaton.delta_class(payload, klass[node],
                                                  poss[node])
            successor = ("f", node, formula_index)
            owner[position] = 0
            priority[position] = automaton.priority(payload)
            moves[position] = (successor,)
            push(successor)
            continue
        formula = automaton.formula(payload)
        priority[position] = 2
        tag = formula[0]
        if tag == "true":
            owner[position] = 0
            moves[position] = (eve_sink,)
        elif tag == "false":
            owner[position] = 0
            moves[position] = (adam_sink,)
        elif tag == "atom":
            _, move, state = formula
            target = node if move == EPS else step_target(tree, node, move)
            owner[position] = 0
            if target is None:
                moves[position] = (adam_sink,)
            else:
                successor = ("st", target, state)
                moves[position] = (successor,)
                push(successor)
        else:
            owner[position] = 0 if tag == "or" else 1
            successors = tuple(("f", node, child) for child in formula[1])
            moves[position] = successors
            for successor in successors:
                push(successor)

    obs.count("twoata.games_solved")
    obs.gauge("twoata.game_positions", len(seen))
    game = ParityGame(owner, priority, moves)
    win_eve, _ = solve_parity(game)
    return root_position in win_eve
