"""The Figure 2 algorithm: satisfiability of CoreXPath↓(∩) w.r.t. an EDTD
(Theorems 23/24; EXPSPACE upper bound).

The paper presents a *nondeterministic* procedure that guesses a branch of
complete types (Definition 22) within the Lemma 21 depth bound.  We
implement its deterministic equivalent as a bottom-up *type elimination*
fixpoint, which is how one actually runs such algorithms:

1. Enumerate all complete types for ``φ₀`` and ``D`` — a choice of abstract
   label ``s ∈ Δ`` plus a truth assignment to the "modal atoms" (the
   ``aux(φ₀)`` suffixes starting with ``↓`` or ``↓*``); all other members of
   ``cl(φ₀)`` are derived bottom-up along the ≺ order of Theorem 23, and
   assignments violating the closure conditions are discarded.
2. Iteratively collect the *realizable* types: ``t`` is added once some
   children-type word is (a) accepted by the content-model NFA of ``t``'s
   abstract label, (b) made of already-realizable types ``t'`` with
   ``t ⇒ t'``, and (c) covers every demand of ``t``.  The word search runs
   over (NFA-state-set, unmet-demands) configurations with visited-set
   pruning — the finite-configuration analogue of the paper's
   ``k ≤ (|aux(φ₀)|+1)·|D|`` branching bound.
3. ``φ₀`` is satisfiable w.r.t. ``D`` iff some realizable type contains
   ``φ₀`` and the root type.

Because children always use types realized in an earlier round, a witness
tree can be reconstructed; :func:`downward_cap_satisfiable` returns it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .. import obs
from ..edtd import EDTD
from ..trees import XMLTree
from ..xpath.ast import And, Label, NodeExpr, Not, SomePath, Top
from ..xpath.measures import node_subexpressions
from .problems import SatResult, Verdict
from .simplepaths import DOWN, DOWN_STAR, SimplePath, instantiate, suffixes

__all__ = ["downward_cap_satisfiable", "TypeSystem", "CompleteType",
           "TooManyModalAtoms"]


class TooManyModalAtoms(RuntimeError):
    """The type space would be too large to enumerate explicitly."""


@dataclass(frozen=True)
class CompleteType:
    """A complete type (Definition 22): an abstract label plus the set of
    true ``aux`` suffixes and true node subexpressions."""

    abstract: str
    true_suffixes: frozenset[SimplePath]
    true_subs: frozenset[NodeExpr]

    def holds_suffix(self, suffix: SimplePath) -> bool:
        return suffix in self.true_suffixes

    def holds(self, expr: NodeExpr) -> bool:
        return expr in self.true_subs


#: A demand (Definition 22): ("down", remainder) must hold at some child;
#: ("star", suffix) must hold at some child (and propagates).
Demand = tuple[str, SimplePath]


class TypeSystem:
    """The ``sub``/``inst``/``aux`` machinery for one input ``(φ₀, D)``."""

    def __init__(self, phi0: NodeExpr, edtd: EDTD, max_modal_atoms: int = 18,
                 frame=None):
        self.phi0 = phi0
        self.edtd = edtd
        # ``frame`` is the schema's compiled TypeFrame: the same sorted
        # abstract-label order, with content NFAs already built.  Using it
        # changes nothing observable (it is a pure function of the EDTD);
        # a frame for a different EDTD instance is ignored.
        if frame is not None and frame.edtd is edtd:
            self.labels: tuple[str, ...] = frame.labels
        else:
            self.labels = tuple(sorted(edtd.abstract_labels))
        self.subs: list[NodeExpr] = sorted(node_subexpressions(phi0), key=repr)
        self.inst: dict[NodeExpr, frozenset[SimplePath]] = {}
        all_suffixes: set[SimplePath] = set()
        for sub in self.subs:
            if isinstance(sub, SomePath):
                members = instantiate(sub.path)
                self.inst[sub] = members
                for member in members:
                    all_suffixes.update(suffixes(member))
        self.all_suffixes = sorted(all_suffixes, key=repr)
        self.modal_atoms: list[SimplePath] = [
            suffix for suffix in self.all_suffixes
            if suffix and suffix[0] in (DOWN, DOWN_STAR)
        ]
        if len(self.modal_atoms) > max_modal_atoms:
            raise TooManyModalAtoms(
                f"{len(self.modal_atoms)} modal atoms (> {max_modal_atoms}); "
                "the explicit type enumeration would not fit in memory"
            )

    # ---------------------------------------------------------------- types

    def derive_type(self, abstract: str,
                    assignment: dict[SimplePath, bool]) -> CompleteType | None:
        """Close a modal-atom assignment under the Definition 22 conditions;
        None if the ↓*-monotonicity condition is violated."""
        concrete = self.edtd.projection[abstract]
        suffix_truth: dict[SimplePath, bool] = {}
        sub_truth: dict[NodeExpr, bool] = {}

        def truth_suffix(suffix: SimplePath) -> bool:
            cached = suffix_truth.get(suffix)
            if cached is not None:
                return cached
            if not suffix:
                value = True
            elif suffix[0] in (DOWN, DOWN_STAR):
                value = assignment[suffix]
            else:
                value = truth_sub(suffix[0]) and truth_suffix(suffix[1:])
            suffix_truth[suffix] = value
            return value

        def truth_sub(expr: NodeExpr) -> bool:
            cached = sub_truth.get(expr)
            if cached is not None:
                return cached
            match expr:
                case Label(name=name):
                    value = name == concrete
                case Top():
                    value = True
                case Not(child=c):
                    value = not truth_sub(c)
                case And(left=a, right=b):
                    value = truth_sub(a) and truth_sub(b)
                case SomePath():
                    value = any(truth_suffix(member) for member in self.inst[expr])
                case _:
                    raise ValueError(
                        f"{type(expr).__name__} is outside CoreXPath↓(∩)"
                    )
            sub_truth[expr] = value
            return value

        for suffix in self.all_suffixes:
            truth_suffix(suffix)
        for sub in self.subs:
            truth_sub(sub)
        # Closure condition: ⟨β⟩ ∈ t implies ⟨↓*/β⟩ ∈ t.
        for suffix in self.modal_atoms:
            if suffix[0] == DOWN_STAR and truth_suffix(suffix[1:]) \
                    and not assignment[suffix]:
                return None
        return CompleteType(
            abstract,
            frozenset(s for s, true in suffix_truth.items() if true),
            frozenset(e for e, true in sub_truth.items() if true),
        )

    def all_types(self) -> list[CompleteType]:
        """Every complete type for ``(φ₀, D)``."""
        types: list[CompleteType] = []
        for abstract in self.labels:
            for bits in itertools.product(
                    (False, True), repeat=len(self.modal_atoms)):
                assignment = dict(zip(self.modal_atoms, bits))
                complete = self.derive_type(abstract, assignment)
                if complete is not None:
                    types.append(complete)
        return types

    # -------------------------------------------------- demands and ⇒

    def demands(self, t: CompleteType) -> frozenset[Demand]:
        result: set[Demand] = set()
        for suffix in self.modal_atoms:
            if not t.holds_suffix(suffix):
                continue
            if suffix[0] == DOWN:
                result.add(("down", suffix[1:]))
            elif not t.holds_suffix(suffix[1:]):  # ↓*/β with ⟨β⟩ ∉ t
                result.add(("star", suffix))
        return frozenset(result)

    def child_compatible(self, t: CompleteType, child: CompleteType) -> bool:
        """``t ⇒ child`` (Definition 22)."""
        for suffix in self.modal_atoms:
            if suffix[0] == DOWN:
                if child.holds_suffix(suffix[1:]) and not t.holds_suffix(suffix):
                    return False
            else:
                if child.holds_suffix(suffix) and not t.holds_suffix(suffix):
                    return False
        return True

    def child_discharges(self, demand: Demand, child: CompleteType) -> bool:
        kind, suffix = demand
        return child.holds_suffix(suffix)


def downward_cap_satisfiable(phi0: NodeExpr, edtd: EDTD,
                             max_modal_atoms: int = 18,
                             frame=None) -> SatResult:
    """Decide satisfiability of a CoreXPath↓(∩) node expression w.r.t. an
    EDTD by the (determinized) Figure 2 algorithm.  Complete: the verdict is
    always conclusive.  Returns a witness tree when satisfiable.

    Figure 2 tests its input at the *root*; satisfiability at an arbitrary
    node is the same as ``⟨↓*[φ₀]⟩`` at the root, which stays inside the
    downward fragment, so we run the algorithm on that wrapper.

    ``frame`` may be the schema's compiled
    :class:`~repro.edtd.compiled.TypeFrame` (label order + warm content
    NFAs); the output is byte-identical with or without it, so the
    frameless call doubles as the differential oracle.
    """
    from ..semantics import evaluate_nodes
    from ..xpath.ast import AxisClosure, Axis, Filter, SomePath

    with obs.span("expspace.setup"):
        wrapped = SomePath(Filter(AxisClosure(Axis.DOWN), phi0))
        system = TypeSystem(wrapped, edtd, max_modal_atoms, frame=frame)
        candidate_space = len(system.labels) * 2 ** len(system.modal_atoms)
    obs.gauge("expspace.modal_atoms", len(system.modal_atoms))
    obs.gauge("expspace.candidate_space", candidate_space)
    if candidate_space > 60_000:
        raise TooManyModalAtoms(
            f"{candidate_space} candidate types; the explicit enumeration "
            "would be too large"
        )
    with obs.span("expspace.types", candidates=candidate_space) as type_span:
        types = system.all_types()
        demand_table = {t: system.demands(t) for t in types}
        type_span.annotate(types=len(types))
    obs.count("expspace.types_enumerated", len(types))

    realizable: dict[CompleteType, tuple[CompleteType, ...]] = {}
    last_attempt: dict[CompleteType, int] = {}
    with obs.span("expspace.fixpoint") as fixpoint_span:
        changed = True
        while changed:
            changed = False
            obs.count("expspace.fixpoint_rounds")
            for t in types:
                if t in realizable:
                    continue
                # Re-attempt only when new types became realizable since the
                # last try for this t.
                if last_attempt.get(t) == len(realizable):
                    continue
                last_attempt[t] = len(realizable)
                word = _find_children_word(system, t, demand_table[t], realizable)
                if word is not None:
                    realizable[t] = word
                    changed = True
        fixpoint_span.annotate(realizable=len(realizable))
    obs.gauge("expspace.realizable_types", len(realizable))

    with obs.span("expspace.witness"):
        for t in types:
            if t.abstract == edtd.root_type and t.holds(wrapped) \
                    and t in realizable:
                witness = _reconstruct(system, t, realizable)
                nodes = evaluate_nodes(witness, phi0)
                if not nodes:
                    raise AssertionError(
                        "Figure 2 certificate did not yield a model — "
                        "type-system bug"
                    )
                return SatResult(Verdict.SATISFIABLE, witness, min(nodes),
                                 explored_up_to=witness.size,
                                 trees_checked=len(types))
        return SatResult(Verdict.UNSATISFIABLE, trees_checked=len(types))


def _find_children_word(
    system: TypeSystem,
    t: CompleteType,
    demands: frozenset[Demand],
    realizable: dict[CompleteType, tuple[CompleteType, ...]],
) -> tuple[CompleteType, ...] | None:
    """A word t₁…t_k of realizable, ``t ⇒ tᵢ``-compatible types accepted by
    the content-model NFA of ``t`` and discharging all demands; None if no
    such word exists.  BFS over (NFA states, unmet demands) configurations.

    Candidates are collapsed by their *profile* — abstract label plus the
    subset of ``t``'s demands they discharge — since two children with the
    same profile are interchangeable for this search; this keeps the
    branching factor at ``|Δ| · 2^{|demands|}`` instead of the number of
    realizable types."""
    obs.count("expspace.word_searches")
    nfa = system.edtd.content_nfa(t.abstract)
    profiles: dict[tuple, CompleteType] = {}
    for child in realizable:
        if not system.child_compatible(t, child):
            continue
        profile = (
            child.abstract,
            frozenset(d for d in demands if system.child_discharges(d, child)),
        )
        profiles.setdefault(profile, child)
    candidates = list(profiles.values())

    start = (frozenset(nfa.initial), demands)
    parents: dict[tuple, tuple[tuple, CompleteType] | None] = {start: None}
    queue = deque([start])
    while queue:
        config = queue.popleft()
        obs.count("expspace.configs_explored")
        states, unmet = config
        if not unmet and states & nfa.accepting:
            word: list[CompleteType] = []
            cursor = config
            while parents[cursor] is not None:
                cursor, child = parents[cursor]  # type: ignore[misc]
                word.append(child)
            word.reverse()
            return tuple(word)
        for child in candidates:
            step: set[int] = set()
            for state in states:
                step |= nfa.successors(state, child.abstract)
            if not step:
                continue
            remaining = frozenset(
                demand for demand in unmet
                if not system.child_discharges(demand, child)
            )
            successor = (frozenset(step), remaining)
            if successor not in parents:
                parents[successor] = (config, child)
                queue.append(successor)
    return None


def _reconstruct(
    system: TypeSystem,
    t: CompleteType,
    realizable: dict[CompleteType, tuple[CompleteType, ...]],
) -> XMLTree:
    """Build a witness tree from the realizability certificates.  Terminates
    because every child in a certificate was realized in an earlier fixpoint
    round (the BFS only used already-realizable candidates)."""
    labels: list[str] = []
    parents: list[int | None] = []

    def emit(current: CompleteType, parent: int | None) -> None:
        labels.append(system.edtd.projection[current.abstract])
        parents.append(parent)
        me = len(labels) - 1
        for child in realizable[current]:
            emit(child, me)

    emit(t, None)
    return XMLTree(labels, parents)


# ----------------------------------------------------------- registry glue

# After the algorithm proper: the registry depends only on .problems, so
# this import cannot cycle back into this module.
from .registry import Engine, EngineDeclined, default_registry  # noqa: E402


class ExpspaceEngine(Engine):
    """Registry adapter for the complete Figure 2 procedure.

    Admits CoreXPath↓(∩) inputs — directly for satisfiability w.r.t. a
    schema, via the Prop. 5 reduction for schemaless satisfiability, via
    the Prop. 4 reduction for containment.  Verdicts are always
    conclusive.  Declines at runtime (``solve`` raises
    :class:`~repro.analysis.registry.EngineDeclined` with the
    :class:`TooManyModalAtoms` message) when the explicit type enumeration
    would not fit in memory; the registry then falls through to the
    bounded engine.
    """

    name = "expspace"
    conclusive = True
    cost_hint = 10

    def admits(self, problem) -> bool:
        # Tested on the inputs, not on the Prop. 4/5 reductions ``solve``
        # builds: their label decoration and ``[¬s]`` relativization add
        # no axis and no operator, so the reduced formula is in
        # CoreXPath↓(∩) exactly when the inputs are.
        from ..xpath.fragments import DOWNWARD_CAP
        from .problems import ProblemKind

        if problem.kind is ProblemKind.EQUIVALENCE:
            return False
        return all(DOWNWARD_CAP.admits(expr) for expr in problem.expressions())

    def solve(self, problem, session=None):
        from .problems import ContainmentResult, ProblemKind
        from .reductions import containment_to_node_unsat
        from .session import session_for

        if session is None:
            session = session_for(problem)
        compiled = session.compiled
        # The compiled EDTD has the same fingerprint as the problem's (that
        # is what the session id hashes), so it is behaviorally identical —
        # but its content NFAs and type frame are already warm.
        edtd = compiled.edtd if compiled.edtd is not None else problem.edtd
        if problem.kind is ProblemKind.SATISFIABILITY:
            return self._satisfiable(problem.phi, edtd, compiled)
        reduction = containment_to_node_unsat(problem.alpha, problem.beta,
                                              edtd, schema=compiled)
        inner = self._satisfiable(reduction.formula, reduction.edtd, compiled)
        if inner.verdict is Verdict.SATISFIABLE:
            tree, pair = reduction.decode(inner.witness, inner.witness_node)
            return ContainmentResult(Verdict.SATISFIABLE, tree, pair,
                                     explored_up_to=tree.size,
                                     trees_checked=inner.trees_checked)
        return ContainmentResult(Verdict.UNSATISFIABLE,
                                 trees_checked=inner.trees_checked)

    def _satisfiable(self, phi: NodeExpr, edtd: EDTD | None,
                     compiled=None) -> SatResult:
        """Figure 2 on ``φ`` w.r.t. ``edtd``; without one, on its Prop. 5
        reduction, whose witness is decoded back."""
        from .reductions import sat_to_edtd_sat

        reduction = None
        if edtd is None:
            reduction = sat_to_edtd_sat(phi, schema=compiled)
            phi, edtd = reduction.formula, reduction.edtd
        frame = None if compiled is None else compiled.type_frame(edtd)
        try:
            result = downward_cap_satisfiable(phi, edtd, frame=frame)
        except TooManyModalAtoms as guard:
            raise EngineDeclined(str(guard)) from guard
        if reduction is None or result.verdict is not Verdict.SATISFIABLE:
            return result
        tree, node = reduction.decode(result.witness, result.witness_node)
        return SatResult(Verdict.SATISFIABLE, tree, node,
                         explored_up_to=tree.size,
                         trees_checked=result.trees_checked)


default_registry().register(ExpspaceEngine())
