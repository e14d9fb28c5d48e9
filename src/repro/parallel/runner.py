"""The execution backend: many decision problems, one resident worker pool.

:class:`ExecutorService` is the long-lived heart of this module: a pool of
coordinator threads and a pool of worker *processes* — one of each per
slot — that stay resident across submissions and drive the lifecycle of
each :class:`~repro.analysis.problems.Problem` the service is handed,
whether problems arrive one at a time (:meth:`ExecutorService.submit`,
used by the ``repro serve`` daemon) or as whole batches
(:meth:`ExecutorService.run`).  Decision procedures are CPU-bound, so they
run in the worker processes; threads would serialize on the GIL.

1. **Cache.** With a :class:`~repro.parallel.cache.VerdictCache` attached,
   a hit returns the stored result without touching a worker (and, warm,
   without touching disk — see the cache's memory tier).
2. **Ladder.**  The coordinator checks a worker out of the pool and sends
   it the problem; the worker walks the admitted engines cheapest-first
   through :meth:`EngineRegistry.plan_and_run`, falling through on runtime
   declines and engine exceptions, and streams each attempt back (see
   :mod:`repro.parallel.worker` for the message protocol).  The parent
   imposes a per-engine wall-clock ``timeout`` (overridable per
   submission): on expiry the worker is killed and the ladder resumes at
   the next-cheapest engine on another worker, with the timed-out engine
   excluded — a timeout degrades the answer, never the batch.

Pool lifecycle: the workers are forked lazily, all at once, by the first
checkout, so a batch's parent-side precompile has already happened and
every worker inherits the warm sessions.  A worker that timed out or died
is killed, reaped and counted as ``replaced``; a worker that retired
itself (:data:`~repro.parallel.worker.MAX_TASKS` problems, or
:data:`~repro.parallel.worker.MAX_RSS_GROWTH` bytes of growth) is reaped
and counted as ``recycled``.  Either way the next checkout that finds no
idle worker forks a fresh one.  :meth:`ExecutorService.release` and
:meth:`ExecutorService.close` terminate and reap every worker.

Sessions: the coordinator warms the problem's
:class:`~repro.analysis.session.SchemaSession` in the parent before it
dispatches, so workers forked afterwards — the first pool, replacements,
recycled successors — inherit the finished
:class:`~repro.edtd.compiled.CompiledSchema` artifact instead of
rebuilding it.  A schema first seen after the pool forked is compiled once
more inside each worker that meets it, then stays warm there.  Only
:meth:`ExecutorService.close` resets the session registry.

Every problem yields a :class:`BatchOutcome` with the result (or a
structured error), the engine that produced it, cache/timing/attempt
metadata, and any :class:`~repro.parallel.worker.WorkerFailure` records.
Failures are data: a raising or hanging engine cannot poison the pool or
perturb any other problem's verdict.

Workers are forked (spawned where ``fork`` is unavailable), so engines
registered before the pool starts — including test doubles — are visible
to workers without pickling.  Problems and results cross the pipe.

:func:`run_batch` decides one batch on a private service and closes it;
:func:`contains_many` and :func:`satisfiable_many` are the list-in,
list-out conveniences mirroring :func:`repro.analysis.contains` and
:func:`repro.analysis.satisfiable`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .. import obs
from ..analysis.containment import _engine_preference
from ..analysis.problems import (
    DEFAULT_MAX_NODES,
    ContainmentResult,
    Problem,
    ProblemKind,
    SatResult,
)
from ..edtd import EDTD
from ..xpath.ast import NodeExpr, PathExpr
from .cache import VerdictCache
from .worker import WorkerFailure, serve

__all__ = [
    "BatchError",
    "BatchOutcome",
    "BatchReport",
    "ExecutorService",
    "contains_many",
    "run_batch",
    "satisfiable_many",
]

Result = SatResult | ContainmentResult

#: Poll granularity while waiting without a timeout (also the heartbeat for
#: detecting a worker that died without a final message).
_POLL_S = 0.2

#: Fork where available: workers inherit the registered engines and the
#: warm sessions without pickling.
_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")


class BatchError(RuntimeError):
    """Raised by the ``*_many`` conveniences when some problem produced no
    result at all; carries the failing outcomes."""

    def __init__(self, message: str, outcomes: "list[BatchOutcome]"):
        super().__init__(message)
        self.outcomes = outcomes


@dataclass
class BatchOutcome:
    """Everything the runner learned about one problem."""

    index: int
    problem: Problem
    result: Result | None = None
    engine: str | None = None
    cache_hit: bool = False
    queue_wait_s: float = 0.0
    worker_time_s: float = 0.0
    #: Wall-clock cost of the verdict-cache probe (hit or miss).
    cache_probe_s: float = 0.0
    #: One dict per engine attempt: ``{"engine", "status"}`` with status in
    #: ``result | declined | failed | timeout | died``.
    attempts: list[dict] = field(default_factory=list)
    failures: list[WorkerFailure] = field(default_factory=list)
    #: Set when no engine produced a result.
    error: str | None = None
    #: The run record behind the verdict: the winning worker's own record,
    #: or — on a cache hit — a minimal synthesized record annotating the
    #: ``cache.hit`` provenance and probe latency (``collect_stats=True``).
    stats: dict | None = None
    #: Every worker run record shipped for this problem (exhausted ladder
    #: walks, the winner) — the trace writer renders one process lane per
    #: worker pid (``collect_stats=True`` only).
    worker_records: list[dict] = field(default_factory=list)
    #: The coordinator thread's own recording of this problem's lifecycle:
    #: cache probe and worker attempts (``collect_stats=True``).
    coord_stats: dict | None = None


@dataclass
class BatchReport:
    """A finished batch: per-problem outcomes plus aggregate figures."""

    outcomes: list[BatchOutcome]
    wall_s: float
    workers: int
    cache_info: dict | None = None
    stats: dict | None = None
    #: One entry per distinct compiled schema in the batch: ``{"schema_id",
    #: "problems", "compile_s", "cache_hits", "session_reuse"}`` —
    #: ``session_reuse`` is the measured warm-session hit rate when worker
    #: stats were collected, else ``None``.
    schemas: list[dict] = field(default_factory=list)

    def results(self) -> list[Result | None]:
        return [outcome.result for outcome in self.outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cache_hit)

    @property
    def failed(self) -> list[BatchOutcome]:
        return [outcome for outcome in self.outcomes
                if outcome.result is None]

    def summary(self) -> dict:
        timeouts = sum(1 for outcome in self.outcomes
                       for attempt in outcome.attempts
                       if attempt["status"] == "timeout")
        return {
            "problems": len(self.outcomes),
            "wall_s": self.wall_s,
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "timeouts": timeouts,
            "worker_failures": sum(len(outcome.failures)
                                   for outcome in self.outcomes),
            "unsolved": len(self.failed),
        }


class _Worker:
    """Parent-side handle on one resident worker process and its pipe."""

    def __init__(self) -> None:
        self.conn, child_conn = _CTX.Pipe()
        self.process = _CTX.Process(target=serve, args=(child_conn,),
                                    daemon=True)
        self.process.start()
        child_conn.close()
        #: Set by the worker's ``retiring`` message: its current task is
        #: its last.
        self.retiring = False

    def stop(self) -> None:
        """Terminate (if still running) and reap the process.  Idempotent."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - stuck in uninterruptible IO
            self.process.kill()
            self.process.join(timeout=5)
        self.conn.close()


class ExecutorService:
    """See the module docstring.

    Parameters:

    * ``workers`` — coordinator-thread / worker-slot count (default:
      ``os.cpu_count()``, ≤ 8).
    * ``timeout`` — default per-engine-attempt wall-clock seconds
      (``None`` = no timeout); overridable per :meth:`submit`.
    * ``cache`` — a :class:`VerdictCache`, a directory for one, or ``None``
      to disable caching.
    * ``collect_stats`` — ship each worker's own obs run record back with
      its result (attached to ``BatchOutcome.stats``).

    Used as a context manager, the service is closed on exit.
    """

    def __init__(
        self,
        workers: int | None = None,
        timeout: float | None = None,
        cache: VerdictCache | str | Path | None = None,
        collect_stats: bool = False,
    ):
        self.workers = workers if workers is not None \
            else min(8, os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.timeout = timeout
        if cache is None or isinstance(cache, VerdictCache):
            self.cache = cache
        else:
            self.cache = VerdictCache(cache)
        self.collect_stats = collect_stats
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._closed = False
        self._next_index = 0
        self.submitted = 0
        self.completed = 0
        # The worker pool: every live worker, the idle ones in checkout
        # order, and lifetime figures for stats().
        self._workers_lock = threading.Lock()
        self._live: set[_Worker] = set()
        self._idle: deque[_Worker] = deque()
        self._worker_counts = {"spawned": 0, "replaced": 0, "recycled": 0}

    # ------------------------------------------------------- worker pool

    def _checkout(self) -> _Worker:
        """An idle worker for one ladder walk.  The first checkout forks
        the whole pool; later ones fork a successor only when no live
        worker is idle (one was replaced or recycled)."""
        with self._workers_lock:
            if self._closed:
                raise RuntimeError("ExecutorService is closed")
            if not self._live:
                for _ in range(self.workers):
                    self._idle.append(self._spawn())
            while self._idle:
                worker = self._idle.popleft()
                if worker.process.is_alive():
                    return worker
                self._live.discard(worker)  # died while idle
                self._count_worker("replaced")
                worker.stop()
            return self._spawn()

    def _spawn(self) -> _Worker:
        worker = _Worker()
        self._live.add(worker)
        self._count_worker("spawned")
        return worker

    def _count_worker(self, fate: str) -> None:
        self._worker_counts[fate] += 1
        obs.count(f"executor.worker.{fate}")

    def _checkin(self, worker: _Worker, status: str | None) -> None:
        """Return a healthy worker to the pool; reap one that timed out,
        died or retired.  ``status`` is :meth:`_attempt`'s (``None`` when
        the exchange broke off on a coordinator error)."""
        healthy = status in ("result", "exhausted")
        with self._workers_lock:
            # A worker no longer live was torn down by release/close.
            if worker in self._live:
                if healthy and not worker.retiring:
                    self._idle.append(worker)
                    return
                self._live.discard(worker)
                self._count_worker("recycled" if healthy else "replaced")
        worker.stop()

    def _stop_workers(self) -> None:
        with self._workers_lock:
            workers = list(self._live)
            self._live.clear()
            self._idle.clear()
        for worker in workers:
            worker.stop()

    # --------------------------------------------------------- lifecycle

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("ExecutorService is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="exec")
            return self._pool

    def release(self, wait: bool = True) -> None:
        """Shut down the coordinator threads and reap every worker but
        keep the service usable — both pools are recreated lazily on the
        next submission."""
        with self._pool_lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=wait)
        self._stop_workers()

    def close(self, wait: bool = True) -> None:
        """Shut the coordinator pool down, terminate and reap every worker
        (in-flight attempts included), and drop the (now orphaned) warm
        sessions.  Idempotent; the service is unusable afterwards."""
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=wait)
        self._stop_workers()
        from ..analysis.session import reset_sessions

        reset_sessions()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ExecutorService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """Live service gauges: slots, lifetime submissions, in-flight,
        and the worker pool — live workers plus lifetime forks, kills
        (timeout or death) and self-retirements."""
        with self._state_lock:
            submitted, completed = self.submitted, self.completed
        with self._workers_lock:
            alive = len(self._live)
            counts = dict(self._worker_counts)
        return {
            "workers": self.workers,
            "timeout_s": self.timeout,
            "submitted": submitted,
            "completed": completed,
            "inflight": submitted - completed,
            "workers_alive": alive,
            **counts,
        }

    # ------------------------------------------------------- submissions

    def submit(self, problem: Problem, *,
               timeout: float | None = None) -> "Future[BatchOutcome]":
        """Enqueue one problem; returns a future resolving to its
        :class:`BatchOutcome`.  Safe to call from concurrent threads; the
        per-engine ``timeout`` (``None``: the service's) applies to this
        submission only.  The future never raises from a solver failure —
        errors are data on the outcome — only from a closed service."""
        pool = self._ensure_pool()
        with self._state_lock:
            index = self._next_index
            self._next_index += 1
            self.submitted += 1
        per_attempt = self.timeout if timeout is None else timeout
        submitted_at = time.perf_counter()
        future = pool.submit(self._run_one, index, problem, submitted_at,
                             per_attempt)
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, future) -> None:
        with self._state_lock:
            self.completed += 1

    # ---------------------------------------------------------------- run

    def run(self, problems: Iterable[Problem]) -> BatchReport:
        """Decide a whole batch; outcomes come back in input order.

        Groups the batch by compiled schema up front and compiles each
        distinct schema ONCE in this thread, before the worker pool forks
        (it forks lazily, on the first checkout): the gauge tells a
        profile reader how much schema-session sharing the conclusive
        engines can expect, fork-started workers inherit the finished
        CompiledSchema artifacts instead of rebuilding them per process
        (true of a pool that is already running only for schemas it has
        seen before), and the ``schema.compile.*`` counters land in the
        caller's (batch-level) recording where the compile-once property
        is assertable.  Unlike :meth:`submit`, ``run`` also emits the
        batch-level obs metrics; it does NOT reset sessions —
        :meth:`close` does that.
        """
        items = list(problems)
        outcomes: list[BatchOutcome | None] = [None] * len(items)
        by_schema: dict[str, list[Problem]] = {}
        sessions: dict[str, "SchemaSession"] = {}
        if items:
            from ..analysis.session import schema_id_of

            for problem in items:
                canonical = problem.canonical()
                schema_id = schema_id_of(*canonical.expressions(),
                                         edtd=canonical.edtd)
                by_schema.setdefault(schema_id, []).append(canonical)
            obs.gauge("batch.schemas", len(by_schema))
        started = time.perf_counter()
        schema_summary: list[dict] = []
        with obs.span("batch.run", problems=len(items),
                      workers=self.workers):
            if items:
                from ..analysis.session import session_for

                with obs.span("batch.precompile", schemas=len(by_schema)):
                    for schema_id, group in by_schema.items():
                        sessions[schema_id] = session_for(group[0])
                futures = [self.submit(problem) for problem in items]
                for index, future in enumerate(futures):
                    outcomes[index] = future.result()
        schema_summary = self._schema_summary(by_schema, sessions, outcomes)
        wall = time.perf_counter() - started
        done = [outcome for outcome in outcomes if outcome is not None]
        assert len(done) == len(items)
        report = BatchReport(
            outcomes=done, wall_s=wall, workers=self.workers,
            cache_info=self.cache.info() if self.cache is not None else None,
            schemas=schema_summary,
        )
        self._emit_metrics(report)
        return report

    @staticmethod
    def _schema_summary(by_schema: dict[str, list[Problem]],
                        sessions: dict, outcomes: list) -> list[dict]:
        """Per-schema batch figures, collected while the sessions are
        still resident: problem count, parent compile time, verdict-cache
        hits, and the measured warm-session reuse rate (worker records
        only)."""
        from ..analysis.session import schema_id_of

        per_outcome: dict[str, list] = {}
        for outcome in outcomes:
            if outcome is None:
                continue
            schema_id = schema_id_of(*outcome.problem.expressions(),
                                     edtd=outcome.problem.edtd)
            per_outcome.setdefault(schema_id, []).append(outcome)
        summary = []
        for schema_id, group in by_schema.items():
            rows = per_outcome.get(schema_id, [])
            reused = compiles = observed = 0
            for outcome in rows:
                for record in outcome.worker_records:
                    counters = record.get("counters") or {}
                    observed += 1
                    reused += counters.get("analysis.session.reused", 0)
                    compiles += counters.get("schema.compile.count", 0)
            session = sessions.get(schema_id)
            summary.append({
                "schema_id": schema_id,
                "problems": len(group),
                "compile_s": session.compiled.compile_s if session else 0.0,
                "cache_hits": sum(1 for outcome in rows
                                  if outcome.cache_hit),
                "session_reuse": (reused / max(reused + compiles, 1))
                if observed else None,
            })
        return summary

    # ---------------------------------------------------- one problem slot

    def _run_one(self, index: int, problem: Problem, submitted: float,
                 timeout: float | None) -> BatchOutcome:
        if not self.collect_stats:
            return self._solve_one(index, problem, submitted, timeout)
        # Each coordinator thread records its problem's lifecycle — cache
        # probe and worker attempts — in its own thread-local
        # recording; the trace writer renders these as per-problem lanes
        # under the coordinator process.
        with obs.record(f"problem[{index}]") as recording:
            recording.note("index", index)
            outcome = self._solve_one(index, problem, submitted, timeout)
            recording.note("engine", outcome.engine)
            recording.note("cache", "hit" if outcome.cache_hit else "miss")
        outcome.coord_stats = recording.to_run_record().to_dict()
        return outcome

    def _solve_one(self, index: int, problem: Problem, submitted: float,
                   timeout: float | None) -> BatchOutcome:
        # Canonicalize once, before the cache probe: cache keys, worker
        # dispatch and engine admission all see the rewrite-pipeline
        # canonical form, so syntactic variants of one instance share a
        # cache entry (and the workers solve the smaller expressions).
        problem = problem.canonical()
        outcome = BatchOutcome(index=index, problem=problem)
        outcome.queue_wait_s = time.perf_counter() - submitted
        if self.cache is not None:
            with obs.span("cache.probe") as probe_span:
                probe_started = time.perf_counter()
                cached = self.cache.get(problem)
                outcome.cache_probe_s = time.perf_counter() - probe_started
                probe_span.annotate(hit=cached is not None)
            if cached is not None:
                hit_record = self._cache_hit_record(outcome)
                # Serve provenance-annotated stats, never a stale record
                # from whichever worker originally computed the verdict.
                outcome.result = cached.with_stats(hit_record) \
                    if self.collect_stats else cached
                outcome.engine = "cache"
                outcome.cache_hit = True
                outcome.stats = hit_record
                return outcome
        solve_started = time.perf_counter()
        try:
            # Warm the schema session in the parent before dispatching:
            # workers forked from now on inherit the finished
            # CompiledSchema, and a resident service keeps it hot for
            # later submissions of the same schema.  (Batch runs already
            # precompiled it — this is a registry hit; single submissions
            # compile here, once.)
            self._warm_session(problem)
            with obs.span("solve"):
                self._run_ladder(problem, outcome, timeout)
        except Exception as error:  # coordinator bug — never kill the batch
            outcome.error = f"{type(error).__name__}: {error}"
        outcome.worker_time_s = time.perf_counter() - solve_started
        if outcome.result is not None and self.cache is not None:
            self.cache.put(problem, outcome.result)
        return outcome

    @staticmethod
    def _warm_session(problem: Problem) -> None:
        from ..analysis.session import session_for

        try:
            session_for(problem)
        except Exception:
            # A schema the compiler chokes on is the engines' problem to
            # report (as a structured failure), not the coordinator's.
            pass

    @staticmethod
    def _cache_hit_record(outcome: BatchOutcome) -> dict:
        """A minimal RunRecord annotating a verdict served from the cache:
        ``cache.hit`` provenance plus the probe latency — never the stats
        of the worker run that originally produced the verdict."""
        from ..obs import RunRecord

        probe_s = outcome.cache_probe_s
        return RunRecord(
            name="cache.hit",
            duration_s=probe_s,
            meta={"engine": "cache", "cache": "hit",
                  "problem": outcome.index},
            # Zero-valued saturation counters: a warm verdict did no
            # summary search this run, but reports that require the
            # ``twoata.emptiness.`` instrumentation prefix must still
            # find it on cache-hit records instead of misfiring.
            counters={"cache.hit": 1,
                      "twoata.emptiness.rounds": 0,
                      "twoata.emptiness.evals": 0},
            gauges={"cache.probe_s": probe_s},
            # A minimal root span (anchored at probe start) so the trace
            # writer renders the hit on its synthetic cache lane.
            spans={"name": "cache.hit", "duration_s": probe_s, "id": 0,
                   "parent": None, "start_ts": time.time() - probe_s},
        ).to_dict()

    # ------------------------------------------------------------- ladder

    def _run_ladder(self, problem: Problem, outcome: BatchOutcome,
                    timeout: float | None) -> None:
        """Worker-backed engine ladder with parent-enforced timeouts."""
        exclude: set[str] = set()
        while True:
            status, engine = self._attempt(problem, frozenset(exclude),
                                           outcome, timeout)
            if status == "result":
                return
            if status == "exhausted":
                if outcome.error is None:
                    outcome.error = self._exhausted_message(outcome)
                return
            # timeout / died: exclude the engine that was running and
            # resume the ladder on another worker.
            if engine is None:
                outcome.error = f"worker {status} before choosing an engine"
                return
            exclude.add(engine)
            # Engines that declined or failed inside the dead worker must
            # not be retried by its successor.
            exclude.update(
                attempt["engine"] for attempt in outcome.attempts
                if attempt["status"] in ("declined", "failed"))

    def _exhausted_message(self, outcome: BatchOutcome) -> str:
        if outcome.failures:
            failure = outcome.failures[-1]
            return (f"no engine produced a result; last failure: "
                    f"{failure.engine}: {failure.error_type}: "
                    f"{failure.message}")
        return "no registered engine admitted or solved the problem"

    def _attempt(self, problem: Problem, exclude: frozenset[str],
                 outcome: BatchOutcome,
                 timeout: float | None) -> tuple[str, str | None]:
        """One ladder walk on a pooled worker; returns ``(status, engine)``
        where status is ``result | exhausted | timeout | died``."""
        worker = self._checkout()
        conn = worker.conn
        attempt_span = obs.span("worker.attempt",
                                pid=worker.process.pid).start()
        current: dict | None = None
        status: str | None = None
        deadline = None if timeout is None \
            else time.perf_counter() + timeout
        try:
            conn.send((problem, exclude, self.collect_stats))
            while status is None:
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if (remaining <= 0 or not conn.poll(remaining)) \
                            and not conn.poll(0):
                        status = "timeout"
                        break
                elif not conn.poll(_POLL_S):
                    if worker.process.is_alive() or conn.poll(0):
                        continue
                    status = "died"
                    break
                message = conn.recv()
                kind = message[0]
                if kind == "trying":
                    current = {"engine": message[1], "status": "running"}
                    outcome.attempts.append(current)
                    if timeout is not None:
                        deadline = time.perf_counter() + timeout
                elif kind in ("declined", "failed"):
                    if kind == "failed":
                        outcome.failures.append(WorkerFailure(**message[2]))
                    if current is not None and current["engine"] == message[1]:
                        current["status"] = kind
                    else:
                        outcome.attempts.append(
                            {"engine": message[1], "status": kind})
                    current = None
                elif kind == "retiring":
                    worker.retiring = True
                elif kind == "result":
                    _, engine, result, stats = message
                    if current is not None and current["engine"] == engine:
                        current["status"] = "result"
                    outcome.result = result
                    outcome.engine = engine
                    if stats is not None:
                        outcome.stats = stats
                        outcome.worker_records.append(stats)
                    attempt_span.annotate(engine=engine)
                    status = "result"
                elif kind == "exhausted":
                    if message[1] is not None:
                        outcome.worker_records.append(message[1])
                    status = "exhausted"
        except (EOFError, OSError):
            status = "died"
        finally:
            attempt_span.annotate(status=status)
            attempt_span.finish()
            self._checkin(worker, status)
        if status in ("timeout", "died"):
            if current is not None:
                current["status"] = status
            if status == "died":
                outcome.failures.append(WorkerFailure(
                    engine=current["engine"] if current else "?",
                    error_type="WorkerDied",
                    message="worker process exited without reporting a "
                            "result",
                    traceback=""))
        return status, current["engine"] if current else None

    # ------------------------------------------------------------ metrics

    def _emit_metrics(self, report: BatchReport) -> None:
        """Fold the report into the active obs recording (main thread) —
        coordinator threads never touch the thread-local recording."""
        if obs.active() is None:
            return
        obs.count("batch.problems", len(report.outcomes))
        queue_wait = 0.0
        worker_time = 0.0
        for outcome in report.outcomes:
            queue_wait += outcome.queue_wait_s
            worker_time += outcome.worker_time_s
            obs.observe("batch.queue_wait_s", outcome.queue_wait_s)
            if not outcome.cache_hit:
                obs.observe("batch.problem_s", outcome.worker_time_s)
            if self.cache is not None:
                obs.observe("batch.cache.probe_s", outcome.cache_probe_s)
                obs.count("batch.cache.hit" if outcome.cache_hit
                          else "batch.cache.miss")
            if outcome.result is None:
                obs.count("batch.unsolved")
            if outcome.failures:
                obs.count("batch.worker_failures", len(outcome.failures))
            for attempt in outcome.attempts:
                if attempt["status"] == "timeout":
                    obs.count("batch.timeouts")
            retries = sum(1 for attempt in outcome.attempts
                          if attempt["status"] in ("timeout", "died")) \
                if not outcome.cache_hit else 0
            if retries:
                obs.count("batch.retries", retries)
        obs.gauge("batch.queue_wait_s", queue_wait)
        obs.gauge("batch.worker_time_s", worker_time)
        obs.gauge("batch.wall_s", report.wall_s)
        obs.note("batch", report.summary())


# ------------------------------------------------------------- conveniences


def run_batch(
    problems: Iterable[Problem],
    *,
    workers: int | None = None,
    timeout: float | None = None,
    cache: VerdictCache | str | Path | None = None,
    collect_stats: bool = False,
    stats: bool = False,
) -> BatchReport:
    """Decide ``problems`` on a private :class:`ExecutorService` and
    close it, so neither worker processes nor warm sessions outlive the
    batch.  With ``stats=True`` the batch runs inside an obs recording
    whose run record lands on ``BatchReport.stats``."""
    with ExecutorService(workers=workers, timeout=timeout, cache=cache,
                         collect_stats=collect_stats) as service:
        if not stats:
            return service.run(problems)
        with obs.record("batch") as recording:
            report = service.run(problems)
    report.stats = recording.to_run_record().to_dict()
    return report


def _checked_results(report: BatchReport, what: str) -> list[Result]:
    failed = report.failed
    if failed:
        first = failed[0]
        raise BatchError(
            f"{len(failed)} of {len(report.outcomes)} {what} problems "
            f"produced no result (first: #{first.index}: {first.error})",
            failed,
        )
    results = report.results()
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


def contains_many(
    pairs: Sequence[tuple[PathExpr, PathExpr]],
    *,
    edtd: EDTD | None = None,
    method: str = "auto",
    max_nodes: int = DEFAULT_MAX_NODES,
    workers: int | None = None,
    timeout: float | None = None,
    cache: VerdictCache | str | Path | None = None,
) -> list[ContainmentResult]:
    """Decide ``α ⊑ β`` for every pair on a worker pool; results come back
    in input order and agree with sequential :func:`repro.analysis.contains`
    under the same configuration.  Raises :class:`BatchError` if some
    problem could not be decided by any engine."""
    engine = _engine_preference(method)
    problems = [
        Problem(ProblemKind.CONTAINMENT, alpha=alpha, beta=beta, edtd=edtd,
                max_nodes=max_nodes, engine=engine)
        for alpha, beta in pairs
    ]
    report = run_batch(problems, workers=workers, timeout=timeout,
                       cache=cache)
    results = _checked_results(report, "containment")
    assert all(isinstance(result, ContainmentResult) for result in results)
    return results  # type: ignore[return-value]


def satisfiable_many(
    exprs: Sequence[NodeExpr],
    *,
    edtd: EDTD | None = None,
    method: str = "auto",
    max_nodes: int = DEFAULT_MAX_NODES,
    workers: int | None = None,
    timeout: float | None = None,
    cache: VerdictCache | str | Path | None = None,
) -> list[SatResult]:
    """Batch node satisfiability; see :func:`contains_many`."""
    engine = _engine_preference(method)
    problems = [
        Problem(ProblemKind.SATISFIABILITY, phi=phi, edtd=edtd,
                max_nodes=max_nodes, engine=engine)
        for phi in exprs
    ]
    report = run_batch(problems, workers=workers, timeout=timeout,
                       cache=cache)
    results = _checked_results(report, "satisfiability")
    assert all(isinstance(result, SatResult) for result in results)
    return results  # type: ignore[return-value]
