"""The normal form ``CoreXPath_NFA(*, loop)`` of §3.1 (Definition 7).

Node expressions are ``p | loop(π) | ⊤ | ¬φ | φ ∧ ψ`` and path expressions
are *path automata*: NFAs over the alphabet of basic steps
``{↓₁, ↑₁, →, ←}`` (first-child, its converse, and the sibling axes) plus
test symbols ``.[φ]``.  Skip ("ε") transitions are tests ``.[⊤]``.

Every CoreXPath(*, ≈) expression translates into this normal form in linear
time (:mod:`repro.automata.normalform`); the 2ATA construction of §3.3
operates directly on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "Step",
    "NFExpr",
    "NFLabel",
    "NFTop",
    "NFNot",
    "NFAnd",
    "NFLoop",
    "PathAutomaton",
    "Transition",
    "nf_size",
    "nf_negate",
    "nf_labels_used",
    "nf_subexpressions",
    "nf_render",
]


class Step(enum.Enum):
    """The basic steps of §3.2: first-child ↓₁, its converse ↑₁, → and ←."""

    FIRST_CHILD = "down1"
    PARENT_OF_FIRST = "up1"
    RIGHT = "right"
    LEFT = "left"

    @property
    def converse(self) -> "Step":
        return _STEP_CONVERSE[self]

    @property
    def symbol(self) -> str:
        return _STEP_SYMBOL[self]

    def __repr__(self) -> str:
        return f"Step.{self.name}"


_STEP_CONVERSE = {
    Step.FIRST_CHILD: Step.PARENT_OF_FIRST,
    Step.PARENT_OF_FIRST: Step.FIRST_CHILD,
    Step.RIGHT: Step.LEFT,
    Step.LEFT: Step.RIGHT,
}
_STEP_SYMBOL = {
    Step.FIRST_CHILD: "↓₁",
    Step.PARENT_OF_FIRST: "↑₁",
    Step.RIGHT: "→",
    Step.LEFT: "←",
}


class NFExpr:
    """Base class of normal-form node expressions."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class NFLabel(NFExpr):
    name: str


@dataclass(frozen=True, slots=True)
class NFTop(NFExpr):
    pass


@dataclass(frozen=True, slots=True)
class NFNot(NFExpr):
    child: NFExpr


@dataclass(frozen=True, slots=True)
class NFAnd(NFExpr):
    left: NFExpr
    right: NFExpr


@dataclass(frozen=True, slots=True)
class NFLoop(NFExpr):
    """``loop(π)``: the current node is π-reachable from itself.  The paper
    writes ``loop(π_{q,q'})`` for the automaton with shifted initial/final
    states; here that is ``NFLoop(automaton.shift(q, q'))``."""

    automaton: "PathAutomaton"


#: A transition ``(q, a, q')`` where ``a`` is a :class:`Step` or a test
#: node expression ``.[φ]`` (stored as the :class:`NFExpr` itself).
Transition = tuple[int, "Step | NFExpr", int]


@dataclass(frozen=True, slots=True)
class PathAutomaton:
    """A path automaton ``π = (Q, Δ, q_I, q_F)`` with ``Q = range(num_states)``."""

    num_states: int
    transitions: frozenset[Transition]
    initial: int
    final: int

    def __post_init__(self) -> None:
        for source, symbol, target in self.transitions:
            if not (0 <= source < self.num_states and 0 <= target < self.num_states):
                raise ValueError(f"transition {source}->{target} out of range")
            if not isinstance(symbol, (Step, NFExpr)):
                raise TypeError(f"bad transition symbol {symbol!r}")
        if not 0 <= self.initial < self.num_states:
            raise ValueError("initial state out of range")
        if not 0 <= self.final < self.num_states:
            raise ValueError("final state out of range")

    # -------------------------------------------------------------- variants

    def shift(self, initial: int, final: int) -> "PathAutomaton":
        """``π_{q,q'}``: same transition table, different endpoints (§3.1)."""
        if initial == self.initial and final == self.final:
            return self
        return PathAutomaton(self.num_states, self.transitions, initial, final)

    def reversed(self) -> "PathAutomaton":
        """The converse automaton: recognizes ``{(m, n) | (n, m) ∈ [[π]]}``.

        Reverses every transition, replaces steps by their converses (tests
        are self-inverse), and swaps the endpoints.
        """
        reversed_transitions = frozenset(
            (target, symbol.converse if isinstance(symbol, Step) else symbol, source)
            for source, symbol, target in self.transitions
        )
        return PathAutomaton(
            self.num_states, reversed_transitions, self.final, self.initial
        )

    # ------------------------------------------------------------- accessors

    def outgoing(self, state: int) -> Iterator[tuple["Step | NFExpr", int]]:
        for source, symbol, target in self.transitions:
            if source == state:
                yield symbol, target

    def test_transitions(self) -> Iterator[tuple[int, NFExpr, int]]:
        for source, symbol, target in self.transitions:
            if isinstance(symbol, NFExpr):
                yield source, symbol, target

    def step_transitions(self) -> Iterator[tuple[int, Step, int]]:
        for source, symbol, target in self.transitions:
            if isinstance(symbol, Step):
                yield source, symbol, target

    def size(self) -> int:
        """``|π| = |Q| + Σ_{(q,.[φ],q') ∈ Δ} |φ|`` (§3.1)."""
        return self.num_states + sum(
            nf_size(symbol)
            for _, symbol, _ in self.transitions
            if isinstance(symbol, NFExpr)
        )


def nf_size(expr: NFExpr) -> int:
    """Size of a normal-form node expression (§3.1)."""
    match expr:
        case NFLabel() | NFTop():
            return 1
        case NFNot(child=c):
            return nf_size(c) + 1
        case NFAnd(left=a, right=b):
            return nf_size(a) + nf_size(b) + 1
        case NFLoop(automaton=a):
            return a.size() + 1
    raise TypeError(f"unknown normal-form expression {expr!r}")


def nf_negate(expr: NFExpr) -> NFExpr:
    """Single negation: ``¬¬ψ`` collapses to ``ψ`` (used by cl(φ'), §3.3)."""
    if isinstance(expr, NFNot):
        return expr.child
    return NFNot(expr)


def nf_labels_used(expr: NFExpr) -> frozenset[str]:
    """All atomic labels occurring in ``expr`` (descending into automata)."""
    return frozenset(
        sub.name for sub in nf_subexpressions(expr) if isinstance(sub, NFLabel)
    )


def nf_subexpressions(expr: NFExpr) -> Iterator[NFExpr]:
    """All node subexpressions, descending into automata test transitions."""
    yield expr
    match expr:
        case NFLabel() | NFTop():
            return
        case NFNot(child=c):
            yield from nf_subexpressions(c)
        case NFAnd(left=a, right=b):
            yield from nf_subexpressions(a)
            yield from nf_subexpressions(b)
        case NFLoop(automaton=auto):
            for _, test, _ in auto.test_transitions():
                yield from nf_subexpressions(test)
        case _:
            raise TypeError(f"unknown normal-form expression {expr!r}")


def nf_render(expr: NFExpr, memo: dict | None = None) -> str:
    """The structural rendering of a normal-form expression.

    It reads like the dataclass ``repr`` (same constructor and field
    names), except that every transition table is listed in canonical
    order — by (source, symbol rendering, target) — where ``repr`` follows
    frozenset iteration order and so ``PYTHONHASHSEED``.  The rendering is
    a pure function of the expression: no ``id()``, hash, set order or
    interner number enters it, and distinct expressions render
    distinctly.

    Pass one ``memo`` dict to a series of calls to render each distinct
    subexpression, and each path-automaton base (the transition table
    shared by all ``π_{q,q'}`` shifts), only once.
    """
    if memo is None:
        memo = {}
    text = memo.get(expr)
    if text is not None:
        return text
    match expr:
        case NFLabel(name=name):
            text = f"NFLabel(name={name!r})"
        case NFTop():
            text = "NFTop()"
        case NFNot(child=c):
            text = f"NFNot(child={nf_render(c, memo)})"
        case NFAnd(left=a, right=b):
            text = f"NFAnd(left={nf_render(a, memo)}, right={nf_render(b, memo)})"
        case NFLoop(automaton=auto):
            text = f"NFLoop(automaton={_render_automaton(auto, memo)})"
        case _:
            raise TypeError(f"unknown normal-form expression {expr!r}")
    memo[expr] = text
    return text


def _render_automaton(auto: PathAutomaton, memo: dict) -> str:
    # Keyed on the base, so the shifts of one table render it once.
    base = (auto.num_states, auto.transitions)
    table = memo.get(base)
    if table is None:
        rows = sorted(
            (source,
             repr(symbol) if isinstance(symbol, Step)
             else nf_render(symbol, memo),
             target)
            for source, symbol, target in auto.transitions
        )
        table = ", ".join(f"({source}, {symbol}, {target})"
                          for source, symbol, target in rows)
        table = f"frozenset({{{table}}})" if rows else "frozenset()"
        memo[base] = table
    return (f"PathAutomaton(num_states={auto.num_states}, transitions={table}, "
            f"initial={auto.initial}, final={auto.final})")
