"""Parallel batch execution of decision problems.

The sequential analysis API (:func:`repro.analysis.contains` and friends)
decides one problem at a time in-process.  This package scales that to
*batches* and request streams: an :class:`ExecutorService` (and its
one-shot front-end :class:`BatchRunner`) executes many
:class:`~repro.analysis.problems.Problem`\\ s on a pool of resident worker
processes, with per-engine wall-clock timeouts that degrade gracefully to
the next-cheapest admitted engine, and a persistent on-disk
:class:`VerdictCache` so repeated benchmark/CI runs skip solved instances.

Quickstart::

    from repro import parse_path, contains_many
    pairs = [(parse_path("down/down[p]"), parse_path("down/down"))]
    results = contains_many(pairs, workers=4)

The CLI front-end is ``python -m repro batch`` (JSONL in, JSONL out).
"""

from .cache import (
    VerdictCache,
    default_cache_dir,
    engine_set_fingerprint,
    problem_fingerprint,
)
from .runner import (
    BatchError,
    BatchOutcome,
    BatchReport,
    BatchRunner,
    ExecutorService,
    contains_many,
    run_batch,
    satisfiable_many,
)
from .worker import WorkerFailure

__all__ = [
    "BatchError",
    "BatchOutcome",
    "BatchReport",
    "BatchRunner",
    "ExecutorService",
    "VerdictCache",
    "WorkerFailure",
    "contains_many",
    "default_cache_dir",
    "engine_set_fingerprint",
    "problem_fingerprint",
    "run_batch",
    "satisfiable_many",
]
