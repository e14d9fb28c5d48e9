"""E15 — serving throughput: the ``repro serve`` daemon request path.

One daemon (resident :class:`~repro.parallel.runner.ExecutorService` +
two-tier :class:`~repro.parallel.cache.VerdictCache`) answers the same
mixed 20-request workload three times over keep-alive HTTP:

* **cold** — empty cache: every request is solved on a worker, and the
  first request per schema shape compiles its session;
* **hot** — first warm pass: every verdict now comes from the cache's
  *memory* tier, no worker round trips, no compiles;
* **cache-hit** — second warm pass: the steady state a long-lived daemon
  actually serves.

Verdicts must be identical across all three passes.  The steady-state
pass must run ≥5× the cold qps — serving a warm verdict is a dict lookup
plus HTTP framing, while cold solving runs the engines — and the schema-
session registry must report *zero* compiles across the warm passes
(asserted from outside the process via ``/stats``, the same way the CI
server smoke does).

Per-request latencies land in the ``server.request_s`` histogram
(p50/p90/p99 in BENCH_obs.json, rendered by ``repro report``); the
daemon's own ``/stats`` figures are mirrored into ``server.*``/``cache.*``
counters from the benchmark thread, since the daemon's threads never
touch this recording.
"""

import time

from repro import obs
from repro.server import HttpClient, ServerConfig, start_in_thread

WORKERS = 4
#: Mixed workload: containment, equivalence and satisfiability over a few
#: distinct schema shapes (label sets), so the session registry is
#: exercised, label-permuted so instances cost roughly the same.
REQUESTS = [
    {"kind": "contains", "alpha": f"down[{a}]/down[{b}]", "beta": "down/down"}
    for a, b in [("p", "q"), ("q", "p"), ("p", "r"), ("r", "p"),
                 ("q", "r"), ("r", "q")]
] + [
    {"kind": "contains", "alpha": f"down*[{a}]",
     "beta": f"down* except down*[{b}]"}
    for a, b in [("q", "p"), ("p", "q"), ("r", "q"), ("q", "r")]
] + [
    {"kind": "satisfiable", "expr": expr}
    for expr in ("p and q", "p or q", "q and r", "r or p",
                 "p and not q", "q and not r", "not p and not q", "r")
] + [
    {"kind": "equivalent", "alpha": "down[p]", "beta": "down[p][q]"},
    {"kind": "equivalent", "alpha": "down", "beta": "down"},
]


def _run_pass(client: HttpClient, name: str) -> tuple[list, float]:
    """One full workload pass; returns (verdict summaries, wall seconds)
    and feeds every request latency into the server.request_s histogram."""
    answers = []
    started = time.perf_counter()
    for request in REQUESTS:
        t0 = time.perf_counter()
        status, record = client.request("/v1/solve", request)
        obs.observe("server.request_s", time.perf_counter() - t0)
        assert status == 200, (name, request, record)
        answers.append({key: record.get(key)
                        for key in ("kind", "verdict", "conclusive",
                                    "contained", "counterexample_pair")})
    return answers, time.perf_counter() - started


class TestServerThroughput:
    def test_cold_hot_cachehit_qps(self, benchmark, record, tmp_path):
        config = ServerConfig(port=0, workers=WORKERS,
                              cache_dir=str(tmp_path / "cache"))
        with start_in_thread(config) as handle:
            client = HttpClient(handle.http_address)
            cold_answers, cold_s = _run_pass(client, "cold")
            _, stats_after_cold = client.request("/stats")
            hot_answers, hot_s = _run_pass(client, "hot")
            _, stats_after_hot = client.request("/stats")
            hit_answers, hit_s = _run_pass(client, "cache-hit")
            _, stats = client.request("/stats")
            client.close()

        # Warm verdicts are the cold verdicts — the cache changes the
        # latency, never the answer.
        assert hot_answers == cold_answers
        assert hit_answers == cold_answers

        n = len(REQUESTS)
        cold_qps, hot_qps, hit_qps = n / cold_s, n / hot_s, n / hit_s
        assert hit_qps >= 5 * cold_qps, (
            f"steady-state {hit_qps:.0f} qps < 5x cold {cold_qps:.0f} qps")

        # Both warm passes were pure memory-tier hits, compiled nothing,
        # and left nothing in flight (executor submissions all completed).
        server = stats["server"]
        sessions = stats["sessions"]
        assert stats["cache"]["mem_hits"] >= 2 * n
        assert server["cache_hits"] >= 2 * n
        assert sessions["created"] == \
            stats_after_cold["sessions"]["created"], "warm pass compiled"
        assert stats_after_hot["sessions"]["created"] == \
            stats_after_cold["sessions"]["created"]
        assert stats["executor"]["completed"] == \
            stats["executor"]["submitted"]

        benchmark(lambda: None)
        record("E15 serving throughput (mixed 20-request workload)", {
            "requests": n,
            "workers": WORKERS,
            "cold_s": round(cold_s, 3),
            "hot_s": round(hot_s, 3),
            "cache_hit_s": round(hit_s, 3),
            "cold_qps": round(cold_qps, 1),
            "hot_qps": round(hot_qps, 1),
            "cache_hit_qps": round(hit_qps, 1),
            "hit_over_cold": round(hit_qps / cold_qps, 1),
            "warm_compiles": sessions["created"]
            - stats_after_cold["sessions"]["created"],
        })
        # Mirror the daemon's figures into this (main-thread) recording:
        # the perf gate requires the server./cache. prefixes and the
        # daemon's own threads never touch the benchmark's obs recording.
        obs.count("server.requests", server["requests"])
        obs.count("server.solved", server["solved"])
        obs.count("server.cache_hits", server["cache_hits"])
        obs.gauge("server.qps_cold", cold_qps)
        obs.gauge("server.qps_hot", hot_qps)
        obs.gauge("server.qps_cache_hit", hit_qps)
        cache_info = stats["cache"]
        obs.count("cache.mem_hit", cache_info["mem_hits"])
        obs.count("cache.disk_hit", cache_info["disk_hits"])
        obs.count("cache.miss", cache_info["misses"])
        obs.count("cache.store", cache_info["stores"])
        obs.gauge("cache.memory_entries", cache_info["memory_entries"])
        obs.gauge("server.sessions_created", sessions["created"])
        obs.gauge("server.sessions_reused", sessions["reused"])
