"""Schema sessions: batch-shared compiled-schema state.

A :class:`SchemaSession` owns the :class:`~repro.edtd.compiled
.CompiledSchema` for one *compiled schema* — the relevant-alphabet
partition the problems quotient the infinite label alphabet into, the
schema's content-model NFAs and realizability tables, the Fig. 2 type
frames, the Prop. 4/5 reduction frames, and the emptiness kernel's
:class:`~repro.automata.core.KernelCache` — and hands it to every engine
that solves a problem over that schema.  The artifact is built **once**
per ``schema_id`` (asserted by the ``schema.compile.count`` counter) and
every later problem with the same id reuses it.

Sessions are **worker-local**: the registry below is per-process, so each
forked :class:`~repro.parallel.runner.ExecutorService` worker grows its own
warm session per schema and nothing is ever shared (or pickled) across
processes.  Under the default ``fork`` start method the runner compiles
each schema in the parent *before* spawning workers, so children inherit
finished sessions and never compile at all.  The session's ``schema_id``
— a digest of the EDTD fingerprint and the relevant label alphabet —
also feeds the verdict cache fingerprint (schema v6), so cached verdicts
are keyed on exactly the compiled-schema identity the kernel memos
assume.

Fork hygiene: sessions are only published to the registry *after* their
compile completes, the registry lock is re-created in forked children
(the parent may have held it mid-compile when a worker forked), and
:func:`discard_incomplete_sessions` drops any session whose build was in
flight at fork time — so a terminated or freshly forked worker can never
observe a half-built session.  The registry is a bounded LRU
(:data:`MAX_SESSIONS`) so long-lived processes cannot grow it without
bound.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

from .. import obs
from ..edtd.compiled import CompiledSchema, compile_schema
from ..xpath.ast import Expr
from .problems import Problem

__all__ = [
    "MAX_SESSIONS",
    "SchemaSession",
    "discard_incomplete_sessions",
    "registry_stats",
    "reset_sessions",
    "schema_id_of",
    "session_for",
]

#: Bounded-LRU capacity of the worker-local session registry.
MAX_SESSIONS = 32


def _schema_identity(exprs: tuple, edtd) -> tuple[str, tuple[str, ...]]:
    """``(schema_id, relevant alphabet)`` for ``exprs`` over ``edtd``.

    The alphabet is recomputed per call (a walk over the labels); the
    fingerprint JSON + SHA-256 work is memoized on ``(alphabet, edtd)``,
    so it runs once per compiled schema, and the memo holds one entry per
    schema rather than one per distinct problem.
    """
    from .engines import relevant_alphabet

    alphabet = tuple(relevant_alphabet(*exprs, edtd=edtd))
    return _schema_digest(alphabet, edtd), alphabet


@lru_cache(maxsize=1024)
def _schema_digest(alphabet: tuple[str, ...], edtd) -> str:
    """The schema id of ``alphabet`` over ``edtd`` (:class:`~repro.edtd
    .EDTD` hashes by identity)."""
    from ..parallel.cache import _edtd_fingerprint

    payload = {
        "schema": _edtd_fingerprint(edtd),
        "alphabet": list(alphabet),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def schema_id_of(*exprs: Expr, edtd=None) -> str:
    """The compiled-schema id: a SHA-256 digest of the EDTD fingerprint
    (when present) and the relevant label alphabet of ``exprs``.

    Two problems get the same id exactly when they compile to the same
    alphabet partition over the same schema — the precondition for their
    engines to share a :class:`CompiledSchema` soundly (kernel base keys
    are global, so sharing is *correct* regardless; same-schema problems
    are the ones that actually hit).  The id depends only on the schema's
    *content* (fingerprint), so the same EDTD built through different
    construction orders yields the same id.
    """
    return _schema_identity(tuple(exprs), edtd)[0]


@dataclass
class SchemaSession:
    """Shared state for all problems of one batch over one schema.

    ``compiled`` is the per-schema :class:`CompiledSchema` artifact;
    engines consume its partition, type frames, schema tables, reduction
    frames and kernel cache instead of rebuilding them per problem.
    ``pattern_cache`` holds the ``patterns`` engine's *per-pattern*
    cover-search memos (:mod:`repro.analysis.patterns`) — per-query state
    that rides along with the session but is not part of the immutable
    schema artifact.
    """

    schema_id: str
    compiled: CompiledSchema | None = None
    pattern_cache: dict = field(default_factory=dict)
    problems_seen: int = 0

    def __post_init__(self) -> None:
        if self.compiled is None:
            # Bare construction (tests, ad-hoc callers): compile an empty
            # schemaless artifact so kernel_cache & co. always exist.
            self.compiled = compile_schema(self.schema_id)

    @property
    def kernel_cache(self):
        """The emptiness kernel's memo store (on the compiled artifact)."""
        return self.compiled.kernel_cache

    def stats(self) -> dict:
        """Cache sizes plus the number of problems that used the session."""
        return {"problems": self.problems_seen,
                "pattern_entries": len(self.pattern_cache),
                "compile_s": self.compiled.compile_s,
                **self.kernel_cache.stats()}


#: Worker-local session registry (LRU order: oldest first); forked
#: workers inherit the parent's finished sessions and prune in-flight
#: ones via :func:`discard_incomplete_sessions`.
_SESSIONS: "OrderedDict[str, SchemaSession]" = OrderedDict()
_LOCK = threading.Lock()
#: Schema ids whose compile is in flight in *this* process.
_BUILDING: set[str] = set()
#: Lifetime registry counters (this process), independent of any obs
#: recording: the ``repro serve`` daemon's ``/stats`` endpoint reports
#: these so a warm pass can be asserted compile-free from outside the
#: process.  NOT reset by :func:`reset_sessions` — they count forever.
_STATS = {"created": 0, "reused": 0, "evicted": 0}


def session_for(problem: Problem) -> SchemaSession:
    """The worker-local session for ``problem``'s compiled schema
    (compiled on first use, reused afterwards, LRU-evicted beyond
    :data:`MAX_SESSIONS`)."""
    exprs = tuple(problem.expressions())
    schema_id, alphabet = _schema_identity(exprs, problem.edtd)
    with _LOCK:
        session = _SESSIONS.get(schema_id)
        if session is not None:
            _SESSIONS.move_to_end(schema_id)
            session.problems_seen += 1
            _STATS["reused"] += 1
            obs.count("analysis.session.reused")
            obs.count("schema.compile.cache_hit")
            return session
        _BUILDING.add(schema_id)
        try:
            compiled = compile_schema(schema_id, exprs, problem.edtd,
                                      alphabet=alphabet)
            session = SchemaSession(schema_id, compiled=compiled)
            session.problems_seen = 1
            _SESSIONS[schema_id] = session
        finally:
            _BUILDING.discard(schema_id)
        while len(_SESSIONS) > MAX_SESSIONS:
            _SESSIONS.popitem(last=False)
            _STATS["evicted"] += 1
            obs.count("analysis.session.evicted")
        _STATS["created"] += 1
        obs.count("analysis.session.created")
        return session


def registry_stats() -> dict:
    """Resident-session count plus lifetime created/reused/evicted
    counters for this process (see :data:`_STATS`)."""
    with _LOCK:
        return {"resident": len(_SESSIONS), **_STATS}


def reset_sessions() -> None:
    """Drop all worker-local sessions (pool shutdown; tests; long-lived
    processes that want to bound memory)."""
    with _LOCK:
        _SESSIONS.clear()
        _BUILDING.clear()
    _schema_digest.cache_clear()


def discard_incomplete_sessions() -> None:
    """Drop any session whose compile was in flight when this process
    forked.  Builds are only published after completion, so the window is
    the insert-to-discard gap in :func:`session_for`; pruning both sides
    guarantees a child never observes a half-built session."""
    for schema_id in list(_BUILDING):
        _SESSIONS.pop(schema_id, None)
    _BUILDING.clear()


def _after_fork_in_child() -> None:
    # The parent may have held _LOCK mid-compile at fork time; a child
    # inheriting a locked Lock would deadlock on first session_for.
    global _LOCK
    _LOCK = threading.Lock()
    discard_incomplete_sessions()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_after_fork_in_child)
