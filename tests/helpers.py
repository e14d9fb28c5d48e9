"""Shared test utilities: random expression generators, comparisons and a
fresh-interpreter runner."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import repro
from repro.xpath.ast import (
    And,
    Axis,
    AxisClosure,
    AxisStep,
    Complement,
    Filter,
    ForLoop,
    Intersect,
    Label,
    NodeExpr,
    Not,
    PathEquality,
    PathExpr,
    Self,
    Seq,
    SomePath,
    Star,
    Top,
    Union,
)

DEFAULT_LABELS = ("p", "q")


def random_path(rng: random.Random, depth: int,
                operators: frozenset[str] = frozenset(),
                axes: tuple[Axis, ...] = tuple(Axis),
                labels: tuple[str, ...] = DEFAULT_LABELS) -> PathExpr:
    """A random path expression of bounded syntax-tree depth using only the
    given extension operators ('eq', 'cap', 'minus', 'star', 'for')."""
    if depth <= 0:
        choice = rng.randrange(3)
        if choice == 0:
            return AxisStep(rng.choice(axes))
        if choice == 1:
            return AxisClosure(rng.choice(axes))
        return Self()
    options = ["axis", "axis_star", "self", "seq", "union", "filter"]
    if "cap" in operators:
        options.append("cap")
    if "minus" in operators:
        options.append("minus")
    if "star" in operators:
        options.append("star")
    kind = rng.choice(options)
    if kind == "axis":
        return AxisStep(rng.choice(axes))
    if kind == "axis_star":
        return AxisClosure(rng.choice(axes))
    if kind == "self":
        return Self()
    if kind == "seq":
        return Seq(random_path(rng, depth - 1, operators, axes, labels),
                   random_path(rng, depth - 1, operators, axes, labels))
    if kind == "union":
        return Union(random_path(rng, depth - 1, operators, axes, labels),
                     random_path(rng, depth - 1, operators, axes, labels))
    if kind == "filter":
        return Filter(random_path(rng, depth - 1, operators, axes, labels),
                      random_node(rng, depth - 1, operators, axes, labels))
    if kind == "cap":
        return Intersect(random_path(rng, depth - 1, operators, axes, labels),
                         random_path(rng, depth - 1, operators, axes, labels))
    if kind == "minus":
        return Complement(random_path(rng, depth - 1, operators, axes, labels),
                          random_path(rng, depth - 1, operators, axes, labels))
    return Star(random_path(rng, depth - 1, operators, axes, labels))


def random_node(rng: random.Random, depth: int,
                operators: frozenset[str] = frozenset(),
                axes: tuple[Axis, ...] = tuple(Axis),
                labels: tuple[str, ...] = DEFAULT_LABELS) -> NodeExpr:
    """A random node expression of bounded depth."""
    if depth <= 0:
        return Label(rng.choice(labels)) if rng.random() < 0.8 else Top()
    options = ["label", "top", "not", "and", "some"]
    if "eq" in operators:
        options.append("eq")
    kind = rng.choice(options)
    if kind == "label":
        return Label(rng.choice(labels))
    if kind == "top":
        return Top()
    if kind == "not":
        return Not(random_node(rng, depth - 1, operators, axes, labels))
    if kind == "and":
        return And(random_node(rng, depth - 1, operators, axes, labels),
                   random_node(rng, depth - 1, operators, axes, labels))
    if kind == "some":
        return SomePath(random_path(rng, depth - 1, operators, axes, labels))
    return PathEquality(random_path(rng, depth - 1, operators, axes, labels),
                        random_path(rng, depth - 1, operators, axes, labels))


def relation_as_pairs(relation) -> frozenset[tuple[int, int]]:
    return frozenset(
        (source, target)
        for source, targets in relation.items()
        for target in targets
    )


def run_with_hash_seed(args: list[str], seed: int) -> str:
    """Run ``python *args`` in a fresh interpreter with ``PYTHONHASHSEED``
    set to ``seed`` and this checkout's ``repro`` importable; return its
    stdout.  Output that follows set or hash order differs across seeds."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    done = subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return done.stdout
