"""Child-process side of the executor: one resident worker.

A worker is forked once and then decides problem after problem handed to
it over a duplex pipe, until the parent closes the pipe, terminates it, or
it retires itself.  Every problem goes through
:meth:`~repro.analysis.registry.EngineRegistry.plan_and_run` — the same
ladder the sequential API walks — with the parent's ``exclude`` set and a
progress hook that streams each top-level engine attempt back.  The parent
never trusts a worker to stay healthy: an engine that raises becomes a
structured :class:`WorkerFailure` message, an engine that declines is
reported and the ladder moves on, and a worker that hangs or dies is
killed and replaced by the parent (see :mod:`repro.parallel.runner`) —
none of these poison the pool or leak into other problems' verdicts.

Message protocol.  Parent → worker: ``(problem, exclude, collect_stats)``
per task, ``problem`` already in canonical form; ``None`` (or a closed
pipe) asks the worker to exit.  Worker → parent, per task, in order:

* ``("trying", engine)`` — a new engine attempt begins.  The parent resets
  its per-attempt timeout clock on this message, so each engine gets the
  full budget.
* ``("declined", engine, reason)`` — the engine declined at runtime (its
  ``solve`` raised ``EngineDeclined``, e.g. the EXPSPACE memory guard;
  ``reason`` is the exception's message).
* ``("failed", engine, failure_dict)`` — the engine raised; the exception
  crosses the process boundary *as data* (a :class:`WorkerFailure`
  rendering), never as a live exception.
* ``("retiring",)`` — optional: this is the worker's last task (see
  :data:`MAX_TASKS` and :data:`MAX_RSS_GROWTH`); it exits after the final
  message below.
* ``("result", engine, result, run_record_or_None)`` — a verdict; final.
* ``("exhausted", run_record_or_None)`` — every eligible engine declined
  or failed; final.  The run record still ships so the trace shows what
  the worker tried.

With ``collect_stats`` set, the worker wraps the task in an obs recording
whose run record — span tree with wall-clock anchors, including the
``engine.<name>`` span ``plan_and_run`` opens per attempt, the worker's
``pid`` in ``meta`` — rides back on the final message.  The parent
merges these per-process records into one Chrome trace timeline
(:func:`repro.obs.traceout.batch_trace`).
"""

from __future__ import annotations

import gc
import os
import signal
import stat
import traceback
from dataclasses import asdict, dataclass

from .. import obs
from ..analysis.problems import Problem
from ..analysis.registry import EngineDeclined, default_registry

__all__ = ["MAX_RSS_GROWTH", "MAX_TASKS", "WorkerFailure", "serve"]

#: A worker retires itself after deciding this many problems ...
MAX_TASKS = 1000
#: ... or once its resident set has grown this many bytes past its size
#: when it started (engine memo tables and interned terms accumulate).
MAX_RSS_GROWTH = 256 * 1024 * 1024


@dataclass(frozen=True)
class WorkerFailure:
    """A structured record of an engine exception inside a worker."""

    engine: str
    error_type: str
    message: str
    traceback: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_exception(cls, engine: str, error: BaseException) -> "WorkerFailure":
        return cls(
            engine=engine,
            error_type=type(error).__name__,
            message=str(error),
            traceback="".join(traceback.format_exception(error)),
        )


def _rss_bytes() -> int:
    """This process's resident set size (0 where ``/proc`` is missing)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0
    return pages * os.sysconf("SC_PAGE_SIZE")


def _detach_inherited_sockets(keep: int) -> None:
    """Point every socket fd inherited from the parent, except ``keep``,
    at ``/dev/null``.

    A resident worker outlives the connections that were open when it
    forked: holding their duplicates would keep a closed client
    connection (or a drained listener) open, and holding a sibling
    worker's pipe end would hide the parent's death from that sibling.
    ``dup2`` rather than ``close`` keeps the fd numbers occupied, so a
    stale inherited socket object that is finalized later cannot close an
    unrelated file that reused its number.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return  # no /proc: keep the inherited descriptors
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd in (keep, devnull):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:
                pass  # closed meanwhile (the listing's own descriptor)
    finally:
        os.close(devnull)


def serve(conn) -> None:
    """Process entry point: decide tasks from ``conn`` until told to stop.

    Never raises: every engine failure becomes a message, and a parent
    that went away (closed pipe) simply ends the loop.
    """
    from ..analysis.session import discard_incomplete_sessions

    # Fork hygiene, belt-and-braces with the session module's
    # ``os.register_at_fork`` hook: a session whose compile was in flight
    # in the parent at fork time must never be observed here.  (Under
    # ``spawn`` the registry starts empty and this is a no-op.)
    discard_incomplete_sessions()
    _detach_inherited_sockets(conn.fileno())
    # Ctrl-C reaches the whole process group; the parent owns it and
    # terminates the pool on the way out.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Everything inherited from the parent lives as long as the worker:
    # keep it out of every later collection.  Engines allocate heavily,
    # and full collections re-walking the inherited heap cost a resident
    # worker more than a fresh fork per problem paid.
    gc.freeze()
    baseline = _rss_bytes()
    tasks = 0
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            final = _solve(conn, *task)
            tasks += 1
            retiring = tasks >= MAX_TASKS \
                or _rss_bytes() - baseline > MAX_RSS_GROWTH
            if retiring:
                conn.send(("retiring",))
            conn.send(final)
            if retiring:
                return
    except (EOFError, OSError):
        pass  # parent went away (or terminated us mid-send)
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _solve(conn, problem: Problem, exclude: frozenset[str],
           collect_stats: bool) -> tuple:
    """Decide one problem, streaming progress; returns the final message."""
    recording = None
    if collect_stats:
        recording = obs.record("batch.worker").start()
        recording.note("pid", os.getpid())
    reported: list[BaseException] = []
    winner = None

    def progress(event: str, engine: str, detail) -> None:
        nonlocal winner
        if event == "trying":
            conn.send(("trying", engine))
        elif event == "declined":
            conn.send(("declined", engine, detail))
        elif event == "failed":
            reported.append(detail)
            conn.send(("failed", engine, WorkerFailure.from_exception(
                engine, detail).to_dict()))
        else:
            winner = engine

    result = None
    try:
        # The parent sends the canonical form (at the pass level and
        # alphabet this worker inherited); recording it as such saves the
        # dispatch from re-running the rewrite pipeline on the fresh copy.
        problem = problem.marked_canonical()
        result = default_registry().plan_and_run(
            problem, exclude=exclude, progress=progress)
    except EngineDeclined:
        pass  # every decline was already reported (or none admitted)
    except Exception as error:
        if not any(error is seen for seen in reported):
            # Raised outside any engine attempt: an unknown forced engine
            # or an ``admits`` bug.
            conn.send(("failed", problem.engine or "?",
                       WorkerFailure.from_exception("?", error).to_dict()))
    stats = None
    if recording is not None:
        if result is not None:
            recording.note("verdict", result.verdict.value)
        stats = recording.stop().to_run_record().to_dict()
    if result is None:
        return ("exhausted", stats)
    return ("result", winner, result, stats)
