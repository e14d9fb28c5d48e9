"""Concurrency, tiering and lifecycle tests for the sharded VerdictCache.

The flat-file cache of PR 3 never had to survive *concurrent* writers —
the batch runner serialized stores through one coordinator process.  The
sharded two-tier cache explicitly supports multi-process use (a daemon
and CLI runs sharing one directory), so these tests hammer one shard
from several processes, verify the memory LRU tier (including serving a
key whose disk file was deleted), corrupt entry tolerance, and the
bounded-disk GC (API and ``repro cache gc``).
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.analysis.problems import Problem, ProblemKind, SatResult, Verdict
from repro.parallel import VerdictCache, problem_fingerprint
from repro.xpath import parse_node

_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")

pytestmark = pytest.mark.skipif(
    _CTX.get_start_method() != "fork",
    reason="multi-process cache tests rely on fork inheritance")


def _problem(index: int) -> Problem:
    # max_nodes is part of the fingerprint, so each index is its own key.
    return Problem(ProblemKind.SATISFIABILITY, phi=parse_node("p"),
                   max_nodes=2 + index)


def _result() -> SatResult:
    return SatResult(Verdict.SATISFIABLE)


def _write_range(directory: str, start: int, count: int, barrier) -> None:
    cache = VerdictCache(directory, shards=1)
    barrier.wait()  # maximize write overlap on the single shard
    for index in range(start, start + count):
        assert cache.put(_problem(index), _result())


def _hammer_one_key(directory: str, rounds: int, barrier) -> None:
    cache = VerdictCache(directory, shards=1, memory_entries=0)
    barrier.wait()
    for _ in range(rounds):
        assert cache.put(_problem(0), _result())


class TestMultiProcess:
    def test_concurrent_writers_one_shard(self, tmp_path):
        """Several processes writing disjoint keys into the *same* shard
        (shards=1) under the per-shard lock: every entry lands intact."""
        directory = str(tmp_path)
        writers = 4
        per_writer = 6
        barrier = _CTX.Barrier(writers)
        processes = [
            _CTX.Process(target=_write_range,
                         args=(directory, start * per_writer, per_writer,
                               barrier))
            for start in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        reader = VerdictCache(directory, shards=1)
        for index in range(writers * per_writer):
            assert reader.get(_problem(index)) is not None
        assert reader.disk_hits == writers * per_writer
        assert reader.corrupt == 0

    def test_contended_writes_same_key_never_corrupt(self, tmp_path):
        """Two processes rewriting one key while this process reads it:
        atomic rename + shard lock mean a reader never sees a torn file."""
        directory = str(tmp_path)
        barrier = _CTX.Barrier(3)
        processes = [
            _CTX.Process(target=_hammer_one_key,
                         args=(directory, 50, barrier))
            for _ in range(2)
        ]
        for process in processes:
            process.start()
        barrier.wait()
        reader = VerdictCache(directory, shards=1, memory_entries=0)
        while any(process.is_alive() for process in processes):
            result = reader.get(_problem(0))
            if result is not None:
                assert result.verdict is Verdict.SATISFIABLE
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        assert reader.corrupt == 0
        assert reader.get(_problem(0)) is not None


class TestMemoryTier:
    def test_mem_hit_survives_deleted_disk_file(self, tmp_path):
        """The warm hit path never touches the filesystem: a key in the
        memory tier is served even after its disk entry vanished."""
        cache = VerdictCache(tmp_path)
        problem = _problem(0)
        cache.put(problem, _result())
        os.unlink(cache._path(problem_fingerprint(problem)))
        assert cache.get(problem) is not None
        assert (cache.mem_hits, cache.disk_hits) == (1, 0)

    def test_lru_eviction_bounds_the_tier(self, tmp_path):
        cache = VerdictCache(tmp_path, memory_entries=1)
        first, second = _problem(0), _problem(1)
        cache.put(first, _result())
        cache.put(second, _result())  # evicts first from memory
        assert cache.evicted == 1
        assert cache.get(first) is not None  # served from disk...
        assert cache.disk_hits == 1
        assert cache.get(first) is not None  # ...and re-promoted to memory
        assert cache.mem_hits == 1

    def test_disabled_tier_goes_to_disk(self, tmp_path):
        cache = VerdictCache(tmp_path, memory_entries=0)
        problem = _problem(0)
        cache.put(problem, _result())
        assert cache.get(problem) is not None
        assert (cache.mem_hits, cache.disk_hits) == (0, 1)


class TestCorruptEntries:
    def test_corrupt_disk_entry_is_a_counted_miss_then_overwritten(
            self, tmp_path):
        cache = VerdictCache(tmp_path)
        problem = _problem(0)
        key = problem_fingerprint(problem)
        shard = cache._shard_dir(key)
        shard.mkdir(parents=True, exist_ok=True)
        (shard / f"{key}.json").write_text("{\"trunc", encoding="utf-8")
        assert cache.get(problem) is None
        assert cache.corrupt == 1
        assert not (shard / f"{key}.json").exists()
        assert cache.put(problem, _result())
        assert cache.get(problem) is not None

    def test_wrong_shape_entry_is_corrupt_too(self, tmp_path):
        cache = VerdictCache(tmp_path)
        problem = _problem(0)
        key = problem_fingerprint(problem)
        shard = cache._shard_dir(key)
        shard.mkdir(parents=True, exist_ok=True)
        (shard / f"{key}.json").write_text(
            json.dumps({"type": "sat"}), encoding="utf-8")  # no verdict
        assert cache.get(problem) is None
        assert cache.corrupt == 1


class TestDiskBounds:
    def _fill(self, cache: VerdictCache, count: int) -> list[Problem]:
        problems = [_problem(index) for index in range(count)]
        for tick, problem in enumerate(problems):
            cache.put(problem, _result())
            # Deterministic ages: index 0 is oldest regardless of clock
            # resolution.
            path = cache._path(problem_fingerprint(problem))
            os.utime(path, (1000 + tick, 1000 + tick))
        return problems

    def test_gc_removes_oldest_first(self, tmp_path):
        cache = VerdictCache(tmp_path)
        problems = self._fill(cache, 5)
        summary = cache.gc(max_entries=2)
        assert summary["removed"] == 3
        assert summary["entries"] == 2
        fresh = VerdictCache(tmp_path)
        assert fresh.get(problems[0]) is None  # oldest gone
        assert fresh.get(problems[4]) is not None  # newest kept

    def test_gc_max_bytes(self, tmp_path):
        cache = VerdictCache(tmp_path)
        self._fill(cache, 4)
        total = sum(size for _, size, _ in cache._disk_entries())
        summary = cache.gc(max_bytes=total // 2)
        assert summary["bytes"] <= total // 2
        assert summary["removed"] >= 1

    def test_put_enforces_bounds(self, tmp_path):
        cache = VerdictCache(tmp_path, max_entries=2)
        self._fill(cache, 4)
        assert len(cache._disk_entries()) <= 2
        assert cache.gc_removed >= 2

    def test_gc_leaves_files_in_the_cache_root_alone(self, tmp_path):
        """Entries live in shard directories only: a foreign file in the
        cache root is neither scanned nor collected, however old."""
        notes = tmp_path / "notes.json"
        notes.write_text("{}", encoding="utf-8")
        os.utime(notes, (0, 0))  # older than every entry
        cache = VerdictCache(tmp_path)
        self._fill(cache, 2)
        summary = cache.gc(max_entries=1)
        assert notes.exists()
        assert (summary["scanned"], summary["removed"]) == (2, 1)

    def test_unbounded_gc_is_a_pure_scan(self, tmp_path):
        cache = VerdictCache(tmp_path)
        self._fill(cache, 3)
        summary = cache.gc()
        assert summary["removed"] == 0
        assert summary["entries"] == 3

    def test_cli_cache_gc_and_info(self, tmp_path, capsys):
        from repro.cli import main

        cache = VerdictCache(tmp_path)
        self._fill(cache, 3)
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entries"] == 3
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-entries", "1"]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert summary["removed"] == 2
        assert "cache gc: removed 2" in captured.err
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entries"] == 1
