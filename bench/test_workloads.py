"""Daemon-free checks of the benchmark's inputs: ``pytest bench -q``.

Streams must be reproducible from the seed, fresh workloads must never
send the same problem twice (after canonicalization, which is what the
verdict cache keys on), every request must carry a hand-written answer,
and the ``mixed-uncached`` class shares must keep p50 and p90 away from
the class boundaries.
"""

from __future__ import annotations

import itertools
import json
import re

import pytest

from bench import ROOT, use_source
from bench.workloads import (
    AUTOMATA_TEMPLATES,
    MIXED_TEMPLATES,
    WORKLOADS,
    Request,
    check_answer,
    stream,
    warmup,
)

use_source()

from repro.analysis.session import schema_id_of  # noqa: E402
from repro.server.protocol import parse_problem_record  # noqa: E402
from repro.xpath import size, to_source  # noqa: E402

FRESH = ("fresh-cheap", "fresh-automata", "mixed-uncached")
PREFIX = 500


def _prefix(name: str, seed: int, count: int = PREFIX) -> list[dict]:
    return [request.record for request in itertools.islice(stream(name, seed), count)]


def _canonical(request: Request):
    _, kind, problem = parse_problem_record(request.record)
    canonical = problem.canonical()
    return problem, canonical, (kind, tuple(map(to_source, canonical.expressions())))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_requests_other_seed_other_requests(name):
    assert _prefix(name, 7) == _prefix(name, 7)
    assert _prefix(name, 7) != _prefix(name, 8)
    assert [r.record for r in warmup(name, 7)] == [r.record for r in warmup(name, 7)]


@pytest.mark.parametrize("name", FRESH)
def test_fresh_workloads_never_repeat_a_problem(name):
    requests = warmup(name, 3) + list(stream(name, 3))
    seen = {}
    for request in requests:
        problem, canonical, key = _canonical(request)
        assert key not in seen, (request.record, seen[key])
        seen[key] = request.record
        # Nothing the rewrite pipeline collapses (down*/down*, duplicate
        # union members, ...): the engines see the problem as sent.
        assert sum(map(size, canonical.expressions())) == \
            sum(map(size, problem.expressions())), request.record
        for text in request.record.values():
            assert not re.search(r"(\w+)\*/\1\*", text), request.record


def test_stream_lengths_leave_headroom():
    # At the seed commit a 26 s run sends ~5,000 fresh-cheap, ~700
    # fresh-automata and ~300 mixed-uncached requests.
    assert sum(1 for _ in stream("fresh-cheap", 1)) >= 15_000
    assert sum(1 for _ in stream("fresh-automata", 1)) >= 1_200
    assert sum(1 for _ in stream("mixed-uncached", 1)) >= 800


def test_every_template_has_an_answer_of_the_right_type():
    for template in AUTOMATA_TEMPLATES + MIXED_TEMPLATES:
        if template.kind == "satisfiable":
            assert template.expect in ("satisfiable", "unsatisfiable"), template
        else:
            assert isinstance(template.expect, bool), template
    for name in WORKLOADS:
        for request in warmup(name, 1) + list(itertools.islice(stream(name, 1), 2000)):
            expected_type = str if request.record["kind"] == "satisfiable" else bool
            assert isinstance(request.expect, expected_type), request


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warmup_compiles_every_schema_the_stream_uses(name):
    warmed = {schema_id_of(*_canonical(request)[1].expressions())
              for request in warmup(name, 5)}
    for request in itertools.islice(stream(name, 5), PREFIX):
        canonical = _canonical(request)[1]
        assert schema_id_of(*canonical.expressions()) in warmed, request.record
    assert len(warmed) <= 32  # the daemon's session LRU never evicts


def test_mixed_shares_keep_percentiles_off_class_boundaries():
    # Percent of a block per class.
    shares = {klass: 100 * sum(t.klass == klass for t in MIXED_TEMPLATES)
              // len(MIXED_TEMPLATES) for klass in ("cheap", "automata", "bounded")}
    assert shares == {"cheap": 65, "automata": 15, "bounded": 20}
    # Latency ranks: cheap < automata < bounded.  p50 must sit inside the
    # cheap class and p90 inside the bounded class, each at least ten
    # points from the nearest class edge.
    assert shares["cheap"] - 50 >= 10
    assert 90 - (100 - shares["bounded"]) >= 10
    block = WORKLOADS["mixed-uncached"].block
    requests = list(stream("mixed-uncached", 11))
    for start in range(0, len(requests), block):
        klasses = sorted(r.klass for r in requests[start:start + block])
        assert klasses == sorted(t.klass for t in MIXED_TEMPLATES)


def test_check_answer_judges_the_right_field():
    contains = Request({"kind": "contains", "alpha": "down[a]", "beta": "down[b]"},
                       False, "cheap")
    equivalent = Request({"kind": "equivalent", "alpha": "down[a]",
                          "beta": "down[a][b]"}, False, "cheap")
    sat = Request({"kind": "satisfiable", "expr": "a"}, "satisfiable", "cheap")
    # A correct non-equivalence carries verdict "satisfiable": judged on
    # "contained", it is right.
    answer = {"conclusive": True, "verdict": "satisfiable", "contained": False}
    assert check_answer(equivalent, 200, answer) == "ok"
    assert check_answer(contains, 200, answer) == "ok"
    assert check_answer(contains, 200, {**answer, "contained": True}) == "wrong"
    assert check_answer(sat, 200, {"conclusive": True, "verdict": "satisfiable"}) == "ok"
    assert check_answer(sat, 200, {"conclusive": True, "verdict": "unsatisfiable"}) \
        == "wrong"
    assert check_answer(contains, 200, {"conclusive": False, "contained": True}) \
        == "inconclusive"
    assert check_answer(contains, 400, {"error": "bad"}) == "error"
    assert check_answer(contains, None, {"error": "timeout"}) == "error"


def test_benchmark_json_describes_this_benchmark():
    from bench.__main__ import E2E_METRICS
    from bench.layers import LAYER_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    for section, table in (("end_to_end", E2E_METRICS), ("per_layer", LAYER_METRICS)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert listed == table, section
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
