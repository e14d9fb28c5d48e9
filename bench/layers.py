"""The traced replay: each layer of the request path, timed from outside.

A fixed prefix of a workload is replayed in-process through the same
public functions a daemon request crosses — protocol parse, expression
parse, rewrite-pipeline canonicalization, verdict-cache key/get/put,
schema session, engine dispatch, a one-worker executor round trip, and
answer serialization.  Each call runs under a benchmark-owned
:mod:`repro.obs` span named ``layer.<metric>``; nothing inside ``src/``
is instrumented for the benchmark.  Engine time is attributed by
wrapping each registered engine's ``solve`` (and the automata engine's
``build_twoata``) for the length of the replay; the 2ATA phases and
counts come from the library's own ``twoata.emptiness.*`` spans and
counters.

The set-up requests a daemon gets are replayed first, so every workload
has samples of session compiles, cache misses and puts, and one solve per
engine path.  Then two equally sized chunks of the stream run: the first
with spans on (the per-layer numbers and the Chrome trace), the second
with spans off; ``trace.overhead_ratio`` is their per-request time ratio.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from .workloads import Request, check_answer

__all__ = ["LAYER_METRICS", "replay"]

#: Per-layer metrics: name -> (unit, better).  ``server.*``, ``cache.hit_ratio``
#: and ``session.created`` are read from a live daemon, the rest from the
#: replay.
LAYER_METRICS = {
    "server.overhead_ms": ("ms", "lower"),
    "protocol.parse_us": ("us", "lower"),
    "protocol.answer_us": ("us", "lower"),
    "xpath.parse_us": ("us", "lower"),
    "passes.canonical_us": ("us", "lower"),
    "passes.size_ratio": ("ratio", "lower"),
    "cache.key_us": ("us", "lower"),
    "cache.get_mem_us": ("us", "lower"),
    "cache.get_disk_us": ("us", "lower"),
    "cache.get_miss_us": ("us", "lower"),
    "cache.put_us": ("us", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "session.hit_us": ("us", "lower"),
    "session.compile_ms": ("ms", "lower"),
    "session.created": ("count", "lower"),
    "executor.roundtrip_ms": ("ms", "lower"),
    "executor.overhead_ms": ("ms", "lower"),
    "executor.queue_wait_ms": ("ms", "lower"),
    "executor.attempts_per_request": ("count", "lower"),
    "dispatch.solve_ms": ("ms", "lower"),
    "dispatch.declined_per_request": ("count", "lower"),
    "engine.patterns_ms": ("ms", "lower"),
    "engine.expspace_ms": ("ms", "lower"),
    "engine.automata_ms": ("ms", "lower"),
    "engine.bounded_ms": ("ms", "lower"),
    "engine.declined_ms": ("ms", "lower"),
    "bounded.trees_checked": ("count", "lower"),
    "automata.build_ms": ("ms", "lower"),
    "automata.compile_ms": ("ms", "lower"),
    "automata.saturate_ms": ("ms", "lower"),
    "automata.roots_ms": ("ms", "lower"),
    "automata.game_build_ms": ("ms", "lower"),
    "automata.game_solve_ms": ("ms", "lower"),
    "automata.decode_ms": ("ms", "lower"),
    "automata.rounds": ("count", "lower"),
    "automata.evals": ("count", "lower"),
    "automata.states": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

_SCALE = {"us": 1e6, "ms": 1e3}
#: Engines whose decided solves get an ``engine.<name>_ms`` metric.
_ENGINES = ("patterns", "expspace", "automata", "bounded")
_PHASES = ("compile", "saturate", "roots", "game_build", "game_solve", "decode")
#: Disk-tier probes made after the replay (a fresh cache instance reads
#: back entries the replay stored).
_DISK_PROBES = 200
#: Problems decided by ``bounded`` skip the executor round trip: their
#: search time would swamp the fork/IPC cost the round trip measures.
_NO_ROUNDTRIP = "bounded"

#: Metrics that average per-request counts instead of taking a median.
_MEANS = {"passes.size_ratio", "executor.attempts_per_request",
          "dispatch.declined_per_request", "bounded.trees_checked",
          "automata.rounds", "automata.evals", "automata.states"}


class _Replayer:
    """Replays requests through the layers, collecting samples."""

    def __init__(self, scratch: Path):
        from repro.parallel.cache import VerdictCache
        from repro.parallel.runner import ExecutorService

        self.cache = VerdictCache(tempfile.mkdtemp(prefix="replay-", dir=scratch))
        self.executor = ExecutorService(workers=1)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.stored: list = []
        self.checks: list[str] = []
        self._depth = 0
        self._decided: str | None = None
        self._declines = 0

    def close(self) -> None:
        self.executor.close()
        shutil.rmtree(self.cache.directory, ignore_errors=True)

    # --------------------------------------------------------- sampling

    def _sample(self, metric: str, seconds: float, span=None) -> None:
        unit = LAYER_METRICS[metric][0]
        self.samples[metric].append(seconds * _SCALE[unit])
        if span is not None and hasattr(span, "name"):
            span.name = f"layer.{metric}"

    @contextlib.contextmanager
    def _timed(self, metric: str):
        from repro import obs

        span = obs.span(f"layer.{metric}").start()
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            span.finish()
            self._sample(metric, elapsed)

    def _layer(self, name: str, call):
        """Run ``call()`` under a ``layer.<name>`` span; returns
        ``(result, seconds, span)`` so the caller picks the metric."""
        from repro import obs

        span = obs.span(f"layer.{name}").start()
        started = time.perf_counter()
        try:
            return call(), time.perf_counter() - started, span
        finally:
            span.finish()

    # ------------------------------------------------- engine attribution

    @contextlib.contextmanager
    def instrumented(self):
        """Wrap every registered engine's ``solve`` and the automata
        engine's ``build_twoata`` with timers, restoring them afterwards."""
        from repro.analysis import automata_engine
        from repro.analysis.registry import default_registry

        registry = default_registry()
        engines = [registry.get(name) for name in registry.names()]
        build = automata_engine.build_twoata
        for engine in engines:
            engine.solve = self._timed_solve(engine.name, engine.solve)
        automata_engine.build_twoata = self._timed_build(build)
        try:
            yield
        finally:
            for engine in engines:
                vars(engine).pop("solve", None)
            automata_engine.build_twoata = build

    def _timed_build(self, build):
        def timed(*args, **kwargs):
            with self._timed("automata.build_ms"):
                return build(*args, **kwargs)
        return timed

    def _timed_solve(self, name: str, solve):
        from repro import obs
        from repro.analysis.registry import EngineDeclined

        def timed(problem, session=None):
            recording = obs.active()
            if recording is not None:
                recording.gauges.pop("twoata.emptiness.evals", None)
                before = dict(recording.counters)
            depth = self._depth
            self._depth += 1
            span = obs.span(f"layer.engine.{name}").start()
            started = time.perf_counter()
            result = None
            declined = True
            try:
                result = solve(problem, session)
            except Exception as error:
                declined = isinstance(error, EngineDeclined)  # else an engine error
                raise
            finally:
                elapsed = time.perf_counter() - started
                span.finish()
                self._depth = depth
                if result is None and declined:
                    self._declines += 1
                    self._sample("engine.declined_ms", elapsed)
            if result is None:
                return None
            if depth == 0:
                self._decided = name
            if name in _ENGINES:
                self._sample(f"engine.{name}_ms", elapsed)
            if name == "bounded":
                self.samples["bounded.trees_checked"].append(result.trees_checked)
            if name == "automata" and recording is not None:
                counters = recording.counters
                for count in ("rounds", "states"):
                    key = f"twoata.emptiness.{count}"
                    self.samples[f"automata.{count}"].append(
                        counters.get(key, 0) - before.get(key, 0))
                self.samples["automata.evals"].append(
                    recording.gauges.get("twoata.emptiness.evals", 0))
            return result
        return timed

    # ------------------------------------------------------ one request

    def request(self, index: int, request: Request) -> None:
        from repro.analysis.registry import plan_and_run
        from repro.analysis.session import registry_stats, session_for
        from repro.parallel.cache import problem_fingerprint
        from repro.parallel.runner import BatchOutcome
        from repro.server.protocol import outcome_record, parse_problem_record
        from repro.xpath import parse_node, parse_path, size

        record = request.record
        with self._timed("protocol.parse_us"):
            record_id, kind, problem = parse_problem_record(record)
        with self._timed("xpath.parse_us"):
            if kind == "satisfiable":
                parse_node(record["expr"])
            else:
                parse_path(record["alpha"])
                parse_path(record["beta"])
        with self._timed("passes.canonical_us"):
            canonical = problem.canonical()
        self.samples["passes.size_ratio"].append(
            sum(map(size, canonical.expressions()))
            / sum(map(size, problem.expressions())))
        with self._timed("cache.key_us"):
            problem_fingerprint(canonical)
        mem_hits = self.cache.mem_hits
        result, elapsed, span = self._layer(
            "cache.get", lambda: self.cache.get(canonical))
        if result is None:
            tier = "miss"
        else:
            tier = "mem" if self.cache.mem_hits > mem_hits else "disk"
        self._sample(f"cache.get_{tier}_us", elapsed, span)
        outcome = BatchOutcome(index=index, problem=canonical, result=result,
                               engine="cache", cache_hit=result is not None)
        if result is None:
            created = registry_stats()["created"]
            _, elapsed, span = self._layer(
                "session", lambda: session_for(canonical))
            compiled = registry_stats()["created"] > created
            self._sample("session.compile_ms" if compiled else "session.hit_us",
                         elapsed, span)
            self._decided, self._declines = None, 0
            result, solve_s, _ = self._layer(
                "dispatch.solve_ms", lambda: plan_and_run(canonical))
            self._sample("dispatch.solve_ms", solve_s)
            self.samples["dispatch.declined_per_request"].append(self._declines)
            decided = self._decided
            if decided != _NO_ROUNDTRIP:
                self._roundtrip(request, kind, canonical, solve_s)
            with self._timed("cache.put_us"):
                self.cache.put(canonical, result)
            self.stored.append(canonical)
            _, elapsed, span = self._layer(
                "cache.get", lambda: self.cache.get(canonical))
            self._sample("cache.get_mem_us", elapsed, span)
            outcome = BatchOutcome(index=index, problem=canonical, result=result,
                                   engine=decided, worker_time_s=solve_s)
        with self._timed("protocol.answer_us"):
            answer = outcome_record(record_id, kind, outcome)
            json.dumps(answer, sort_keys=True)
        self.checks.append(check_answer(request, 200, answer))

    def _roundtrip(self, request: Request, kind: str, canonical,
                   solve_s: float) -> None:
        from repro.server.protocol import outcome_record

        outcome, elapsed, _ = self._layer(
            "executor.roundtrip_ms",
            lambda: self.executor.submit(canonical).result())
        self._sample("executor.roundtrip_ms", elapsed)
        self.samples["executor.overhead_ms"].append((elapsed - solve_s) * 1e3)
        self.samples["executor.queue_wait_ms"].append(outcome.queue_wait_s * 1e3)
        self.samples["executor.attempts_per_request"].append(len(outcome.attempts))
        self.checks.append(check_answer(
            request, 200, outcome_record(None, kind, outcome)))

    def disk_reads(self) -> None:
        """Read stored entries back through a cache with a cold memory
        tier: the disk-tier hit path."""
        from repro.parallel.cache import VerdictCache

        cold = VerdictCache(self.cache.directory)
        for canonical in self.stored[:_DISK_PROBES]:
            hits = cold.disk_hits
            result, elapsed, span = self._layer(
                "cache.get", lambda: cold.get(canonical))
            if result is not None and cold.disk_hits > hits:
                self._sample("cache.get_disk_us", elapsed, span)


def _phase_spans(node: dict, samples: dict) -> None:
    name = node.get("name", "")
    if name.startswith("twoata.emptiness."):
        phase = name.rsplit(".", 1)[1]
        if phase in _PHASES and node.get("duration_s") is not None:
            samples[f"automata.{phase}_ms"].append(node["duration_s"] * 1e3)
    for child in node.get("children", ()):
        _phase_spans(child, samples)


def _summary(samples: dict[str, list[float]]) -> dict[str, float]:
    values = {}
    for metric, data in samples.items():
        if metric not in LAYER_METRICS or not data:
            continue
        values[metric] = (statistics.fmean(data) if metric in _MEANS
                          else statistics.median(data))
    return values


#: Spans on or off for the four replay quarters: ABBA, so a drift over
#: the replay (heap growth, warming caches) cancels out of the ratio.
_QUARTERS = (True, False, False, True)


def replay(warmup: list[Request], requests, quarter: int, scratch: Path,
           trace_path: Path) -> tuple[dict[str, float], dict[str, int], list[str]]:
    """Replay the set-up requests, then four ``quarter``-sized slices of
    ``requests`` with spans on, off, off, on.

    Per-layer values come from the set-up and the spans-on slices.
    Returns ``(per-layer values, sample counts, verdict checks)`` and
    writes the spans-on recordings as a Chrome trace to ``trace_path``.
    """
    from repro import obs
    from repro.analysis.session import reset_sessions
    from repro.obs import traceout

    reset_sessions()
    replayer = _Replayer(scratch)
    recordings = []
    elapsed = {True: 0.0, False: 0.0}
    try:
        with replayer.instrumented():
            with obs.record("bench.replay.setup") as recording:
                for index, request in enumerate(warmup):
                    replayer.request(index, request)
            recordings.append(recording)
            for traced in _QUARTERS:
                chunk = [next(requests) for _ in range(quarter)]
                samples = replayer.samples
                if not traced:
                    replayer.samples = defaultdict(list)
                recording = obs.record("bench.replay") if traced else None
                started = time.perf_counter()
                with recording or contextlib.nullcontext():
                    for index, request in enumerate(chunk):
                        replayer.request(index, request)
                elapsed[traced] += time.perf_counter() - started
                replayer.samples = samples
                if recording is not None:
                    recordings.append(recording)
            with obs.record("bench.replay.disk") as recording:
                replayer.disk_reads()
            recordings.append(recording)
    finally:
        replayer.close()
    samples = replayer.samples
    runs = [recording.to_run_record() for recording in recordings]
    payload = traceout.single_trace(runs[0], process_name="bench replay")
    for lane, run in enumerate(runs):
        _phase_spans(run.spans, samples)
        if lane:
            payload["traceEvents"] += traceout.span_events(run, pid=0, tid=lane)
            payload["otherData"]["runs"].append(run.to_dict())
    samples["trace.overhead_ratio"] = [elapsed[True] / elapsed[False]]
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    traceout.write_trace(trace_path, payload)
    counts = {metric: len(data) for metric, data in samples.items()}
    return _summary(samples), counts, replayer.checks
