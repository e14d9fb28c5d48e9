"""The four traffic mixes: seeded request streams with hand-written answers.

Every request carries the answer it must get.  The answers are derived by
hand from the semantics of each template (one label per node, ``down*``
is descendant-or-self, ``<α>`` holds where ``α`` selects something), never
by running the code under test.  A conclusive answer that disagrees is a
wrong verdict; an inconclusive one only lowers the conclusive ratio.

Workloads:

* ``hot-repeat`` — a 64-problem pool of cheap pattern containments,
  sampled Zipf(s=1.1).  Every pool member is solved once during set-up, so
  each measured request is a memory-tier cache hit: the server, protocol
  and cache read path, without workers or engines.
* ``fresh-cheap`` — distinct positive downward containments over
  ``{p, q, r}``, decided by ``patterns`` in well under a millisecond
  in-process.  All seven schema ids are compiled during set-up, so these
  are new problems against warm sessions: worker fork, IPC and the cache
  write dominate.
* ``fresh-automata`` — distinct CoreXPath(*, ≈) problems that the
  ``automata`` engine decides conclusively in 20–200 ms, from 30
  two-label templates over 7 labels (28 schema ids, under the 32-session
  registry): 2ATA build, saturation and the parity game.
* ``mixed-uncached`` — blocks of 20 fresh requests: 11 cheap containments
  and 2 equivalences (65%), 3 automata problems (15%) and 4
  ``except``/non-downward ``intersect`` containments (20%) that fall
  through to ``bounded`` and come back inconclusive.  The shares keep p50
  inside the cheap class and p90 inside the bounded class.

Fresh streams are built in *blocks*: each block holds every template of
the workload once, and each template meets each label pair once over the
stream, so any whole number of blocks has the same class mix whatever the
seed.  The load driver only stops at a block boundary.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "AUTOMATA_TEMPLATES",
    "MIXED_TEMPLATES",
    "Request",
    "Template",
    "WORKLOADS",
    "Workload",
    "check_answer",
    "stream",
    "warmup",
]

CHEAP_LABELS = ("p", "q", "r")
AUTOMATA_LABELS = ("a", "b", "c", "d", "e", "f", "g")

#: Zipf exponent and pool size of ``hot-repeat``.  The pool is drawn from
#: one chain depth: Zipf sends ~20% of the traffic to the rank-1 problem,
#: and a cache hit's parse/canonicalize/key cost grows with the problem's
#: size, so mixed depths would make the cost per request depend on the seed.
ZIPF_S = 1.1
HOT_POOL = 64
HOT_DEPTH = 4
#: ``hot-repeat`` requests are pool draws, so its stream is unbounded in
#: practice; the load driver stops it on time.
HOT_STREAM = 2_000_000


@dataclass(frozen=True)
class Request:
    """One request record plus the answer it must get.

    ``expect`` is the ``contained`` flag for ``contains``/``equivalent``
    records and the ``verdict`` string for ``satisfiable`` records.
    ``klass`` is the cost class: ``cheap``, ``automata``, ``bounded``, or
    ``warmup`` for set-up requests.
    """

    record: dict
    expect: bool | str
    klass: str


@dataclass(frozen=True)
class Template:
    """A request shape over two label slots ``{A}`` and ``{B}`` (always
    filled with distinct labels) and its hand-derived answer."""

    name: str
    kind: str
    exprs: tuple[str, ...]
    expect: bool | str
    klass: str

    def instantiate(self, a: str, b: str) -> Request:
        texts = [text.format(A=a, B=b) for text in self.exprs]
        if self.kind == "satisfiable":
            record = {"kind": self.kind, "expr": texts[0]}
        else:
            record = {"kind": self.kind, "alpha": texts[0], "beta": texts[1]}
        return Request(record, self.expect, self.klass)


SAT, UNSAT = "satisfiable", "unsatisfiable"

#: ``fresh-automata``: each decided by ``automata`` in 20–200 ms at the
#: seed commit, with no engine declining first.  Three cost clusters, in
#: the order below: 7 fast refutations (~25 ms), 18 mid (40–90 ms) and 5
#: slow (100–170 ms).  The slow cluster is 17% of the stream, so p90 falls
#: inside it rather than on the edge of a lone slow template.
AUTOMATA_TEMPLATES = (
    # The root's only ancestor-or-self is itself, labelled A, not B.
    Template("unsat-root-ancestor", "satisfiable",
             ("{A} and <up*[{B}]> and not <up>",), UNSAT, "automata"),
    Template("unsat-first-left", "satisfiable",
             ("{B} and <left[{A}]> and not <left>",), UNSAT, "automata"),
    # down[B]/up returns to the node itself, which is A, not B.
    Template("unsat-down-up", "satisfiable", ("{A} and <down[{B}]/up[{B}]>",),
             UNSAT, "automata"),
    Template("unsat-last-right", "satisfiable",
             ("{A} and <right[{B}]> and not <right>",), UNSAT, "automata"),
    Template("unsat-root-parent", "satisfiable",
             ("{A} and <up[{B}]> and not <up>",), UNSAT, "automata"),
    # The root has no siblings.
    Template("unsat-root-right", "satisfiable",
             ("{A} and not <up> and <right[{B}]>",), UNSAT, "automata"),
    Template("unsat-root-left", "satisfiable",
             ("{A} and not <up> and <left[{B}]>",), UNSAT, "automata"),
    # A B-node with an A-parent.
    Template("sat-parent", "satisfiable", ("<up[{A}]> and {B}",), SAT, "automata"),
    # A B-node whose A-parent has a parent.
    Template("sat-grandparent", "satisfiable", ("{B} and <up[{A}]/up>",), SAT,
             "automata"),
    Template("sat-right", "satisfiable", ("<right[{A}]> and {B}",), SAT, "automata"),
    Template("sat-left", "satisfiable", ("<left[{A}]> and {B}",), SAT, "automata"),
    # An A-node whose parent is a B-node, through path equality.
    Template("sat-eq-parent", "satisfiable", ("{A} and eq(up, up[{B}])",), SAT,
             "automata"),
    # The last child, labelled B, of an A-node.
    Template("sat-parent-last", "satisfiable",
             ("{B} and <up[{A}]> and not <right>",), SAT, "automata"),
    # An A-node at depth exactly two, below a B-node.
    Template("sat-depth-two", "satisfiable",
             ("{A} and <up[{B}]/up> and not <up/up/up>",), SAT, "automata"),
    Template("sat-last-after", "satisfiable",
             ("{A} and <left[{B}]> and not <right>",), SAT, "automata"),
    Template("sat-between", "satisfiable",
             ("{A} and <right[{B}]> and <left[{B}]>",), SAT, "automata"),
    # A non-root A-node with a B-ancestor (itself is A, so a proper one).
    Template("sat-below-ancestor", "satisfiable",
             ("{A} and <up*[{B}]> and <up>",), SAT, "automata"),
    Template("up-up", "contains", ("up[{A}]/up[{B}]", "up/up"), True, "automata"),
    Template("up-up-ancestor", "contains", ("up[{A}]/up[{B}]", "up*[{B}]"), True,
             "automata"),
    Template("star-up", "contains", ("(up[{A}])*/up[{B}]", "up/up*"), True,
             "automata"),
    Template("ancestor-up", "contains", ("up*[{A}]/up[{B}]", "up/up*"), True,
             "automata"),
    Template("star-left", "contains", ("(left[{A}])*/left[{B}]", "left/left*"),
             True, "automata"),
    # Both end at a proper ancestor labelled B.
    Template("star-up-ancestor", "contains", ("(up[{A}])*/up[{B}]", "up*[{B}]"),
             True, "automata"),
    Template("ancestor-up-ancestor", "contains", ("up*[{A}]/up[{B}]", "up*[{B}]"),
             True, "automata"),
    # A starred path of up steps only ever reaches ancestors-or-self.
    Template("star-up-pair", "contains", ("(up[{A}]/up[{B}])*", "up*"), True,
             "automata"),
    Template("star-right", "contains", ("(right[{A}])*/right[{B}]",
                                        "right/right*"), True, "automata"),
    Template("star-right-following", "contains",
             ("(right[{A}])*/right[{B}]", "right*[{B}]"), True, "automata"),
    # Down to a child and back up is the node itself, labelled A, so not B.
    Template("down-up-self", "contains", ("down/up[{A}]", ".[{A} and not {B}]"),
             True, "automata"),
    # To a sibling and back is the node itself, labelled B.
    Template("left-right-self", "contains", ("left[{A}]/right[{B}]", ".[{B}]"),
             True, "automata"),
    Template("right-left-self", "contains", ("right[{A}]/left[{B}]", ".[{B}]"),
             True, "automata"),
)

_BY_NAME = {template.name: template for template in AUTOMATA_TEMPLATES}

#: ``mixed-uncached``: one block = every template once: 11 cheap
#: containments and 2 equivalences (65%), 3 automata problems (15%) and 4
#: bounded containments (20%).  p50 lands at the cheap class's 77th
#: percentile and p90 in the middle of the bounded class, so neither sits
#: on a class edge (at 55% cheap, p50 was the cheap class's contention
#: tail).  The cheap and equivalence templates are the E15 request kinds;
#: the bounded ones hold because a node carries one label, but
#: ``bounded`` can only report "no witness within bound".
MIXED_TEMPLATES = (
    Template("chain-steps", "contains", ("down[{A}]/down[{B}]", "down/down"), True,
             "cheap"),
    Template("chain-desc-last", "contains", ("down[{A}]/down[{B}]", "down*[{B}]"),
             True, "cheap"),
    Template("chain-desc-first", "contains", ("down[{A}]/down[{B}]",
                                              "down*[{A}]/down"), True, "cheap"),
    Template("chain-desc-desc", "contains", ("down[{A}]/down[{B}]",
                                             "down*[{A}]/down*"), True, "cheap"),
    Template("chain-child-desc", "contains", ("down[{A}]/down[{B}]",
                                              "down[{B}]/down*"), False, "cheap"),
    Template("filter-drop", "contains", ("down[{A}][<down[{B}]>]", "down[{A}]"),
             True, "cheap"),
    Template("child-desc-steps", "contains", ("down[{A}]/down*[{B}]",
                                              "down/down*"), True, "cheap"),
    Template("desc-child", "contains", ("down*[{A}]/down[{B}]", "down*[{B}]"),
             True, "cheap"),
    Template("desc-desc-last", "contains", ("down*[{A}]/down*[{B}]", "down*[{B}]"),
             True, "cheap"),
    Template("child-other", "contains", ("down[{A}]", "down[{B}]"), False, "cheap"),
    Template("chain-steps-first", "contains", ("down[{A}]/down[{B}]",
                                               "down/down[{A}]"), False, "cheap"),
    # down[A][B] selects nothing, down[A] does: not equivalent.
    Template("eq-empty-filter", "equivalent", ("down[{A}]", "down[{A}][{B}]"),
             False, "cheap"),
    # down*/down and down/down* are both "one or more steps".
    Template("eq-plus", "equivalent", ("down[{A}]/down*/down[{B}]",
                                       "down[{A}]/down/down*[{B}]"), True, "cheap"),
    _BY_NAME["unsat-root-ancestor"],
    _BY_NAME["sat-parent"],
    _BY_NAME["up-up"],
    Template("except-desc", "contains", ("down*[{A}]", "down* except down*[{B}]"),
             True, "bounded"),
    Template("except-anc", "contains", ("up*[{A}]", "up* except up*[{B}]"), True,
             "bounded"),
    Template("except-child", "contains", ("down[{A}]", "down except down[{B}]"),
             True, "bounded"),
    # The parent would have to carry both labels: the intersection is empty.
    Template("intersect-up", "contains", ("up[{A}] intersect up*[{B}]", "up"),
             True, "bounded"),
)


# ------------------------------------------------------------ fresh-cheap


def _chain(labels) -> str:
    return "/".join(f"down[{label}]" for label in labels)


def _steps(count: int) -> str:
    return "/".join(["down"] * count)


#: ``fresh-cheap`` families: α = down[a1]/…/down[ak] relates a node x (any
#: label) to its depth-k descendant y, with the path below x labelled
#: a1…ak.  Each family fixes β from the labels ``a`` and one more label
#: ``b`` (``None`` where β uses none) and says, by hand, whether α ⊑ β.
CHEAP_FAMILIES = (
    ("steps", False, lambda a, b: _steps(len(a)), lambda a, b: True),
    ("desc-last", True, lambda a, b: f"down*[{b}]", lambda a, b: b == a[-1]),
    # The node β names is y's parent, labelled a(k-1) (k ≥ 2).
    ("desc-then-child", True, lambda a, b: f"down*[{b}]/down",
     lambda a, b: b == a[-2]),
    ("child-then-desc", True, lambda a, b: f"down[{b}]/down*",
     lambda a, b: b == a[0]),
    ("desc-desc", True, lambda a, b: f"down*[{b}]/down*", lambda a, b: b in a),
    ("steps-last", True, lambda a, b: f"{_steps(len(a) - 1)}/down[{b}]",
     lambda a, b: b == a[-1]),
)
CHEAP_DEPTHS = (2, 3, 4, 5, 6)


def cheap_universe(depths=CHEAP_DEPTHS) -> list[Request]:
    """Every ``fresh-cheap`` problem with a chain of one of ``depths``, in
    a fixed order."""
    universe = []
    for _, uses_b, beta, contained in CHEAP_FAMILIES:
        for depth in depths:
            for path in itertools.product(CHEAP_LABELS, repeat=depth):
                for b in (CHEAP_LABELS if uses_b else (None,)):
                    universe.append(Request(
                        {"kind": "contains", "alpha": _chain(path),
                         "beta": beta(path, b)},
                        contained(path, b), "cheap"))
    return universe


# ----------------------------------------------------------------- warm-up


def _subset_expr(labels: tuple[str, ...]) -> str:
    """A satisfiable node expression whose label alphabet is ``labels``."""
    return " and not ".join(labels)


def _schema_warmup(labels: tuple[str, ...], arity: int) -> list[Request]:
    """One cheap satisfiable request per label subset of size ≤ ``arity``:
    compiles every schema id the workload's requests can have."""
    return [Request({"kind": "satisfiable", "expr": _subset_expr(subset)},
                    SAT, "warmup")
            for size in range(1, arity + 1)
            for subset in itertools.combinations(labels, size)]


def _engine_probes(a: str, b: str) -> list[Request]:
    """One set-up request per engine path, so a daemon's lazy per-engine
    state is warm before measuring and the traced replay has a sample of
    every engine on every workload.  None of these shapes occurs in any
    stream."""
    return [
        Request({"kind": "satisfiable", "expr": f"<down[{a}]/down[{b}]>"}, SAT,
                "warmup"),
        # Decoded witness: a B-node with an A-parent and no left sibling.
        Request({"kind": "satisfiable",
                 "expr": f"{b} and <up[{a}]> and not <left>"}, SAT, "warmup"),
        # A child labelled A is not in "children not labelled A": bounded
        # finds the two-node counterexample at once.
        Request({"kind": "contains", "alpha": f"down[{a}]",
                 "beta": f"down except down[{a}]"}, False, "warmup"),
        # Too many 2ATA states: automata declines, bounded finds the
        # one-node witness.
        Request({"kind": "satisfiable",
                 "expr": f"{a} or <up[{b}]/up[{a}]/up[{b}]/up[{a}]>"}, SAT,
                "warmup"),
    ]


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """Static facts about one traffic mix."""

    name: str
    why: str
    labels: tuple[str, ...]
    #: Largest number of distinct labels one request mentions.
    arity: int
    #: The load driver stops only after a whole number of blocks.
    block: int
    #: Requests per quarter of the traced replay (spans on, off, off, on).
    replay: int


WORKLOADS = {
    "hot-repeat": Workload(
        "hot-repeat",
        "Zipf repeats of 64 cached problems: server, protocol and memory-tier "
        "cache reads, no worker or engine",
        CHEAP_LABELS, 3, 1, 2000),
    "fresh-cheap": Workload(
        "fresh-cheap",
        "distinct pattern containments against warm sessions: worker fork, IPC "
        "and cache writes dominate a sub-millisecond solve",
        CHEAP_LABELS, 3, 1, 250),
    "fresh-automata": Workload(
        "fresh-automata",
        "distinct CoreXPath(*, eq) problems the automata engine decides in "
        "20-200 ms: 2ATA build, saturation, parity game",
        AUTOMATA_LABELS, 2, len(AUTOMATA_TEMPLATES), len(AUTOMATA_TEMPLATES)),
    "mixed-uncached": Workload(
        "mixed-uncached",
        "uncached E15 request kinds in fixed 20-request blocks; 20% fall "
        "through to inconclusive bounded search",
        AUTOMATA_LABELS, 2, len(MIXED_TEMPLATES), len(MIXED_TEMPLATES)),
}


def warmup(name: str, seed: int) -> list[Request]:
    """The set-up requests of a workload: every schema id, one probe per
    engine path, and for ``hot-repeat`` one touch of every pool member."""
    workload = WORKLOADS[name]
    requests = _schema_warmup(workload.labels, workload.arity)
    requests += _engine_probes(*workload.labels[:2])
    if name == "hot-repeat":
        requests += hot_pool(seed)
    return requests


def hot_pool(seed: int) -> list[Request]:
    """The 64 ``hot-repeat`` problems, in Zipf rank order."""
    rng = random.Random(f"hot-repeat/{seed}")
    return rng.sample(cheap_universe((HOT_DEPTH,)), HOT_POOL)


def _blocks(templates, labels, seed: int, tag: str) -> Iterator[Request]:
    """Blocks of every template once; each template meets each ordered
    label pair exactly once over the stream."""
    rng = random.Random(f"{tag}/{seed}")
    pairs = list(itertools.permutations(labels, 2))
    assignment = []
    for _ in templates:
        order = pairs[:]
        rng.shuffle(order)
        assignment.append(order)
    for block in range(len(pairs)):
        slots = list(range(len(templates)))
        rng.shuffle(slots)
        for slot in slots:
            yield templates[slot].instantiate(*assignment[slot][block])


def stream(name: str, seed: int) -> Iterator[Request]:
    """The measured request stream of a workload (same seed, same stream)."""
    if name == "hot-repeat":
        pool = hot_pool(seed)
        weights = list(itertools.accumulate(
            1.0 / rank ** ZIPF_S for rank in range(1, HOT_POOL + 1)))
        rng = random.Random(f"hot-repeat/draws/{seed}")
        return (rng.choices(pool, cum_weights=weights)[0]
                for _ in range(HOT_STREAM))
    if name == "fresh-cheap":
        universe = cheap_universe()
        random.Random(f"fresh-cheap/{seed}").shuffle(universe)
        return iter(universe)
    if name == "fresh-automata":
        return _blocks(AUTOMATA_TEMPLATES, AUTOMATA_LABELS, seed, name)
    if name == "mixed-uncached":
        return _blocks(MIXED_TEMPLATES, AUTOMATA_LABELS, seed, name)
    raise KeyError(name)


def check_answer(request: Request, status: int | None, answer) -> str:
    """``ok``, ``inconclusive``, ``wrong`` or ``error`` for one reply.

    ``contains`` and ``equivalent`` answers are judged on ``contained``
    (their ``verdict`` names the counterexample search, so a correct
    non-equivalence reads ``satisfiable``); ``satisfiable`` answers on
    ``verdict``.
    """
    if status != 200 or not isinstance(answer, dict) or "error" in answer:
        return "error"
    if not answer.get("conclusive"):
        return "inconclusive"
    field = "verdict" if request.record["kind"] == "satisfiable" else "contained"
    return "ok" if answer.get(field) == request.expect else "wrong"
