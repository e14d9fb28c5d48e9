"""Persistent verdict cache: a sharded on-disk store behind an LRU tier.

Repeated benchmark, CI, and *server* runs re-decide the same containment
and satisfiability instances over and over; the :class:`VerdictCache` lets
the batch runner, the resident :class:`~repro.parallel.runner
.ExecutorService`, and the ``repro serve`` daemon skip instances that were
already solved under the same configuration.

Keys
----

A cache key must identify a problem *structurally* and survive across
processes.  In-process, the structural identity of an expression is its
:func:`repro.xpath.intern.intern_key`; but intern keys are dense integers
assigned in first-seen order, so they are not stable between runs.  The
cache therefore keys on the stable cross-process rendering of the same
identity: :func:`repro.xpath.to_source`, which round-trips through the
parser and is injective on ASTs.  The full key is a SHA-256 over a
canonical JSON payload of

* the problem kind,
* the source rendering of each input expression,
* a schema fingerprint (root type, content models, projection),
* the search bound (``max_nodes``) and the engine preference,
* the active rewrite-pipeline level (a verdict computed at ``--passes
  none`` must not serve a ``--passes full`` session and vice versa), and
* a cache schema version (bump it when verdict semantics change).

Because the key hashes the whole payload, version and pipeline-level
mismatches invalidate by construction: an entry written under another
configuration is simply never looked up.

The registered engine set is *not* part of the key (it was, through
schema v4): a conclusive verdict is a proof and stays valid no matter
which engines exist.  Instead every entry stores the
:func:`engine_set_fingerprint` it was computed under, and ``get`` treats
an entry from a different engine set as a miss only when its verdict is
*inconclusive* — a new engine (say, ``patterns``) may well turn
``no-witness-within-bound`` into a proof, so stale inconclusive answers
must be recomputed, while conclusive ones survive the ladder change.

Since cache schema v3, callers canonicalize problems through the rewrite
pipeline (:meth:`Problem.canonical`) before keying — the batch runner does
it once per problem — so syntactic variants of the same instance (operand
order, duplicated union members, redundant filters) collide onto one
entry instead of each missing cold.

Tiers
-----

The cache is two tiers deep:

* **Memory** — a bounded LRU dict (``memory_entries``) in front of the
  disk; the hit path of a warm key never touches the filesystem.  This is
  the tier a long-lived daemon serves most requests from.
* **Disk** — entries live in :data:`DEFAULT_SHARDS` subdirectory *shards*
  (``<dir>/<xx>/<digest>.json``, shard = digest prefix mod shard count) so
  concurrent writers spread their directory traffic and per-shard file
  locks (``fcntl.flock`` on ``<shard>/.lock``) serialize writers on the
  same shard without a global lock.  Files directly in the cache
  directory are not entries: lookups and GC never touch them.

Probes and stores bump both plain attributes (``mem_hits``,
``disk_hits``, ``misses``, ``stores``, ``evicted``, ``corrupt``) and the
``cache.{mem_hit,disk_hit,miss,evicted,corrupt}`` obs counters (no-ops
outside a recording).

Values
------

Entries store the full result — verdict, witness / counterexample trees
(as tag-only XML), bounds, work counters — so a cache hit reconstructs a
result equal to the one the engines produced.  Run-record ``stats`` are
*not* cached; they describe one concrete run, not the problem.  Each entry
is its own ``<digest>.json`` file written atomically (temp file +
``os.replace``), so concurrent writers — batch coordinator threads,
parallel CI jobs, a daemon and a CLI sharing one cache directory — never
interleave partial writes.  Corrupt or truncated entries (bad JSON, or
JSON that no longer decodes to a result) are counted, deleted, and
treated as misses — the next ``put`` overwrites them; they can never
raise on the hit path.

The disk tier is optionally *bounded*: with ``max_entries`` and/or
``max_bytes`` set, every store garbage-collects oldest-mtime entries
until the cache fits again; ``repro cache gc`` runs the same collection
one-shot from the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

try:  # POSIX; the lock degrades to best-effort elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from .. import obs
from ..analysis.problems import (
    ContainmentResult,
    Problem,
    ProblemKind,
    SatResult,
    Verdict,
)
from ..edtd import EDTD
from ..trees import from_xml, to_xml
from ..xpath import to_source

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_MEMORY_ENTRIES",
    "DEFAULT_SHARDS",
    "VerdictCache",
    "default_cache_dir",
    "engine_set_fingerprint",
    "problem_fingerprint",
]

#: Bumped to 2 when the automata (2ATA emptiness) engine landed: auto
#: dispatch verdicts for CoreXPath(*, ≈) instances went from inconclusive
#: bounded-search answers to conclusive ones.  Bumped to 3 when keys moved
#: to rewrite-pipeline canonical forms (syntactic variants of the same
#: problem now collide onto one entry, and the active pipeline level joined
#: the payload).  Bumped to 4 when the compiled-schema id
#: (:func:`repro.analysis.session.schema_id_of`) joined the payload: the
#: bitset kernel's batch-shared sessions key their memos on it, so cached
#: verdicts are pinned to the same compiled-schema identity.  Bumped to 5
#: when the ``patterns`` engine landed and the engine set moved out of the
#: key into the stored entry: conclusive verdicts now survive engine-ladder
#: changes while inconclusive ones are invalidated by comparing the stored
#: :func:`engine_set_fingerprint` at ``get`` time.  Bumped to 6 when the
#: compile-once :class:`~repro.edtd.compiled.CompiledSchema` landed: every
#: engine now consumes the per-schema artifact (partition, type frames,
#: reduction frames, kernel memos) keyed on the same ``schema_session``
#: id, so entries are pinned to verdicts produced under the shared-artifact
#: regime.  The sharded disk layout did NOT bump the version: the key
#: scheme is unchanged, only where an entry's file lives moved.
CACHE_SCHEMA_VERSION = 6

#: Disk shards: entry files live under ``<dir>/<shard>/``, shard =
#: ``digest prefix mod DEFAULT_SHARDS`` rendered as two hex digits.
DEFAULT_SHARDS = 16

#: Bound of the in-memory LRU tier (entries, not bytes: a decoded entry is
#: a small dict; 4096 of them are a few MB).
DEFAULT_MEMORY_ENTRIES = 4096

Result = SatResult | ContainmentResult


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def _edtd_fingerprint(edtd: EDTD | None) -> dict | None:
    if edtd is None:
        return None
    labels = sorted(edtd.abstract_labels)
    return {
        "root": edtd.root_type,
        # Regex nodes are frozen dataclasses; their reprs are canonical.
        "content": {label: repr(edtd.content[label]) for label in labels},
        "projection": {label: edtd.projection[label] for label in labels},
    }


def engine_set_fingerprint() -> str:
    """The sorted names of all registered engines, comma-joined.

    Stored on every cache entry (not in the key, since schema v5): an
    ``engine="auto"`` verdict that is merely *inconclusive* depends on
    which engines exist — a later, stronger ladder could do better — so
    ``get`` refuses to serve inconclusive entries across an engine-set
    change while conclusive proofs are served unconditionally.
    """
    from ..analysis.registry import default_registry

    # Interned: every memory-tier entry carries it, so they share one
    # string instead of holding a copy each.
    return sys.intern(",".join(default_registry().names()))


def problem_fingerprint(problem: Problem) -> str:
    """The stable cache key of ``problem`` (a SHA-256 hex digest).

    The fingerprint hashes the problem *as given* — callers that want
    syntactic variants to collide (the batch runner, the engine registry)
    canonicalize first via :meth:`Problem.canonical`; the active pipeline
    level is part of the payload, so verdicts computed under different
    levels never serve each other.
    """
    from ..analysis.session import schema_id_of
    from ..xpath import passes

    payload = {
        "v": CACHE_SCHEMA_VERSION,
        "kind": problem.kind.value,
        "exprs": [to_source(expr) for expr in problem.expressions()],
        "schema": _edtd_fingerprint(problem.edtd),
        "schema_session": schema_id_of(*problem.expressions(),
                                       edtd=problem.edtd),
        "max_nodes": problem.max_nodes,
        "engine": problem.engine or "auto",
        "passes": passes.default_pipeline(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ------------------------------------------------------- result round-trip


def encode_result(result: Result) -> dict:
    """A JSON-able rendering of a result; raises ``ValueError`` if a witness
    tree carries labels outside the XML-serializable alphabet."""
    data: dict = {
        "verdict": result.verdict.value,
        "explored_up_to": result.explored_up_to,
        "trees_checked": result.trees_checked,
    }
    if isinstance(result, SatResult):
        data["type"] = "sat"
        if result.witness is not None:
            data["witness"] = to_xml(result.witness)
            data["witness_node"] = result.witness_node
        return data
    data["type"] = "containment"
    if result.counterexample is not None:
        data["counterexample"] = to_xml(result.counterexample)
        data["pair"] = list(result.counterexample_pair)
    if result.per_direction is not None:
        data["per_direction"] = [
            encode_result(direction) if direction is not None else None
            for direction in result.per_direction
        ]
    return data


def decode_result(data: dict) -> Result:
    """Inverse of :func:`encode_result`."""
    verdict = Verdict(data["verdict"])
    explored = data.get("explored_up_to")
    checked = data.get("trees_checked", 0)
    if data["type"] == "sat":
        witness = data.get("witness")
        return SatResult(
            verdict,
            witness=from_xml(witness) if witness is not None else None,
            witness_node=data.get("witness_node"),
            explored_up_to=explored,
            trees_checked=checked,
        )
    counterexample = data.get("counterexample")
    pair = data.get("pair")
    per_direction = None
    if data.get("per_direction") is not None:
        decoded = [
            decode_result(direction) if direction is not None else None
            for direction in data["per_direction"]
        ]
        per_direction = (decoded[0], decoded[1])
    assert isinstance(per_direction, tuple) or per_direction is None
    return ContainmentResult(
        verdict,
        counterexample=(from_xml(counterexample)
                        if counterexample is not None else None),
        counterexample_pair=tuple(pair) if pair is not None else None,
        explored_up_to=explored,
        trees_checked=checked,
        per_direction=per_direction,  # type: ignore[arg-type]
    )


# ----------------------------------------------------------------- the cache


class VerdictCache:
    """Two-tier verdict store: bounded LRU memory in front of sharded disk.

    Thread-safe for every in-process usage pattern (batch coordinator
    threads, the daemon's request threads) and process-safe for shared
    cache directories (atomic renames + per-shard ``flock``).

    Parameters:

    * ``directory`` — disk tier root (default: :func:`default_cache_dir`).
    * ``shards`` — subdirectory shard count (default
      :data:`DEFAULT_SHARDS`); existing directories may be opened with any
      count, keys land in different shards but lookups stay correct
      because the shard of a key is recomputed, never stored.
    * ``memory_entries`` — LRU memory-tier bound (0 disables the tier).
    * ``max_entries`` / ``max_bytes`` — disk-tier bounds; when set, every
      store garbage-collects oldest-mtime entries until the bound holds
      (see :meth:`gc`).  ``None`` (the default) leaves the disk unbounded.
    """

    def __init__(self, directory: str | Path | None = None, *,
                 shards: int = DEFAULT_SHARDS,
                 memory_entries: int = DEFAULT_MEMORY_ENTRIES,
                 max_entries: int | None = None,
                 max_bytes: int | None = None):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if memory_entries < 0:
            raise ValueError("memory_entries must be >= 0")
        self.directory = Path(directory) if directory is not None \
            else default_cache_dir()
        self.shards = shards
        self.memory_entries = memory_entries
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._memory: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self.mem_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.evicted = 0
        self.corrupt = 0
        self.gc_removed = 0

    # ------------------------------------------------------------- layout

    @property
    def hits(self) -> int:
        """Total hits across both tiers (memory + disk)."""
        return self.mem_hits + self.disk_hits

    def _shard_dir(self, key: str) -> Path:
        return self.directory / f"{int(key[:8], 16) % self.shards:02x}"

    def _path(self, key: str) -> str:
        # A plain string, not a Path: pathlib interns every path component,
        # and the interpreter's intern table would grow by one entry per
        # distinct cache key for the life of a daemon.
        return os.path.join(self._shard_dir(key), f"{key}.json")

    @contextmanager
    def _shard_lock(self, shard_dir: Path):
        """Exclusive advisory lock on one shard (held for writes and GC;
        reads need no lock — entry files appear atomically)."""
        shard_dir.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(shard_dir / ".lock", "a+b") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # ------------------------------------------------------------- probes

    def _memory_get(self, key: str) -> dict | None:
        if self.memory_entries == 0:
            return None
        with self._lock:
            data = self._memory.get(key)
            if data is not None:
                self._memory.move_to_end(key)
            return data

    def _memory_put(self, key: str, data: dict) -> None:
        if self.memory_entries == 0:
            return
        with self._lock:
            self._memory[key] = data
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                self.evicted += 1
                obs.count("cache.evicted")

    def _memory_drop(self, key: str) -> None:
        with self._lock:
            self._memory.pop(key, None)

    def _served(self, data: dict, key: str) -> Result | None:
        """Decode + engine-set-validate one entry; ``None`` refuses it."""
        try:
            result = decode_result(data)
        except (KeyError, TypeError, ValueError, IndexError):
            # Truncated or schema-incompatible entry: count it, drop it
            # from both tiers, and let the next put overwrite the file.
            self.corrupt += 1
            obs.count("cache.corrupt")
            self._memory_drop(key)
            try:
                os.unlink(self._path(key))
            except OSError:
                pass
            return None
        if result.verdict is Verdict.NO_WITNESS_WITHIN_BOUND \
                and data.get("engines") != engine_set_fingerprint():
            # An inconclusive verdict computed under a different engine
            # ladder: today's ladder might prove it, so recompute.
            # Conclusive entries are proofs and served regardless.
            self._memory_drop(key)
            return None
        return result

    def get(self, problem: Problem) -> Result | None:
        """The cached result of ``problem``, or ``None`` on a miss."""
        key = problem_fingerprint(problem)
        data = self._memory_get(key)
        if data is not None:
            result = self._served(data, key)
            if result is not None:
                self.mem_hits += 1
                obs.count("cache.mem_hit")
                return result
            self.misses += 1
            obs.count("cache.miss")
            return None
        try:
            with open(self._path(key), encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            self.misses += 1
            obs.count("cache.miss")
            return None
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("entry is not a JSON object")
        except ValueError:
            # Bad JSON on disk (truncated write from a pre-atomic-rename
            # era, disk corruption, a stray hand-edited file).
            self.corrupt += 1
            obs.count("cache.corrupt")
            try:
                os.unlink(self._path(key))
            except OSError:
                pass
            self.misses += 1
            obs.count("cache.miss")
            return None
        result = self._served(data, key)
        if result is None:
            self.misses += 1
            obs.count("cache.miss")
            return None
        self._memory_put(key, data)
        self.disk_hits += 1
        obs.count("cache.disk_hit")
        return result

    # ------------------------------------------------------------- stores

    def put(self, problem: Problem, result: Result) -> bool:
        """Store ``result`` under ``problem``'s key; returns False when the
        result cannot be serialized (exotic witness labels) or the disk
        tier is unwritable (the memory tier still serves it)."""
        if problem.kind is ProblemKind.SATISFIABILITY \
                and not isinstance(result, SatResult):
            raise TypeError("satisfiability problems cache SatResults")
        key = problem_fingerprint(problem)
        try:
            data = encode_result(result)
        except ValueError:
            return False
        # The engine ladder the verdict was computed under; ``get`` uses it
        # to refuse stale *inconclusive* entries (see module docstring).
        data["engines"] = engine_set_fingerprint()
        self._memory_put(key, data)
        shard_dir = self._shard_dir(key)
        try:
            with self._shard_lock(shard_dir):
                fd, tmp = tempfile.mkstemp(dir=shard_dir, suffix=".tmp")
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as handle:
                        json.dump(data, handle, sort_keys=True)
                    os.replace(tmp, self._path(key))
                except BaseException:
                    os.unlink(tmp)
                    raise
        except OSError:
            # A read-only or full cache directory degrades to memory-only.
            return False
        self.stores += 1
        obs.count("cache.store")
        if self.max_entries is not None or self.max_bytes is not None:
            self.gc()
        return True

    # ----------------------------------------------------------------- gc

    def _disk_entries(self) -> list[tuple[float, int, Path]]:
        """Every entry file in the shard directories as ``(mtime, size,
        path)``."""
        entries: list[tuple[float, int, Path]] = []
        try:
            shards = [child for child in self.directory.iterdir()
                      if child.is_dir()]
        except OSError:
            return entries
        for shard in shards:
            try:
                for path in shard.glob("*.json"):
                    try:
                        stat = path.stat()
                    except OSError:
                        continue
                    entries.append((stat.st_mtime, stat.st_size, path))
            except OSError:
                continue
        return entries

    def gc(self, max_entries: int | None = None,
           max_bytes: int | None = None) -> dict:
        """Garbage-collect the disk tier down to the given bounds
        (defaulting to the cache's own ``max_entries``/``max_bytes``):
        oldest-mtime entries are deleted first until both bounds hold.

        Returns a summary dict (``scanned``/``removed``/``bytes_removed``/
        ``entries``/``bytes``).  A cache with no bounds at all is a no-op
        scan.  Deletions take the owning shard's lock; a concurrently
        re-written entry whose file vanished under us is skipped.
        """
        if max_entries is None:
            max_entries = self.max_entries
        if max_bytes is None:
            max_bytes = self.max_bytes
        entries = self._disk_entries()
        total_bytes = sum(size for _, size, _ in entries)
        removed = 0
        bytes_removed = 0
        if max_entries is not None or max_bytes is not None:
            entries.sort()  # oldest mtime first
            index = 0
            while index < len(entries) and (
                    (max_entries is not None
                     and len(entries) - removed > max_entries)
                    or (max_bytes is not None
                        and total_bytes - bytes_removed > max_bytes)):
                _, size, path = entries[index]
                index += 1
                try:
                    with self._shard_lock(path.parent):
                        path.unlink()
                except OSError:
                    continue
                removed += 1
                bytes_removed += size
        if removed:
            self.gc_removed += removed
            obs.count("cache.gc_removed", removed)
        return {
            "scanned": len(entries),
            "removed": removed,
            "bytes_removed": bytes_removed,
            "entries": len(entries) - removed,
            "bytes": total_bytes - bytes_removed,
        }

    # -------------------------------------------------------------- info

    def info(self) -> dict:
        """Tiered hit/miss/store counters plus the backing directory."""
        with self._lock:
            memory_len = len(self._memory)
        return {
            "directory": str(self.directory),
            "shards": self.shards,
            "hits": self.hits,
            "mem_hits": self.mem_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evicted": self.evicted,
            "corrupt": self.corrupt,
            "gc_removed": self.gc_removed,
            "memory_entries": memory_len,
            "memory_limit": self.memory_entries,
        }
