"""``python3 -m bench``: run the serving benchmark and print every metric.

Untraced (the default): per workload, start the daemon and warm it up
three times (``setup_s`` is the median), then drive the seeded stream as a
closed loop for ``--seconds`` and report the end-to-end metrics.  With
``--trace``: one daemon phase for the server-side per-layer figures, then
the in-process layer replay (:mod:`bench.layers`), which also writes a
Chrome trace under ``.bench_out/``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong conclusive verdict
makes the command exit 1; a harness failure (no sources, daemon that
will not start, leaked worker processes) exits 2 without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from . import ROOT, use_source
from .workloads import WORKLOADS, stream, warmup

#: End-to-end metrics: name -> (unit, better).  ``error_ratio`` is printed
#: too, but it is 0 on a healthy run, so it travels as ``failed``.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "throughput_rps": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "conclusive_ratio": ("ratio", "higher"),
    "cpu_ms_per_request": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
#: Daemon start-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Share of ``--seconds`` the traced run spends loading a live daemon.
TRACED_DAEMON_SHARE = 0.35
DEFAULT_SECONDS = 26
SCRATCH = ROOT / ".bench_out"


@dataclass
class Run:
    """One workload, one seed: metric values, their sample counts, and
    request accounting."""

    metrics: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    errors: int = 0
    wrong: int = 0

    def account(self, checks) -> None:
        checks = list(checks)
        self.attempted += len(checks)
        self.errors += checks.count("error")
        self.wrong += checks.count("wrong")


def _stop_all(daemons) -> None:
    leaked = []
    for daemon in daemons:
        leaked += daemon.stop()
    if leaked:
        raise RuntimeError(f"worker processes outlived the daemon: {leaked}")


def _load_metrics(run: Run, load) -> list[tuple[float, dict]]:
    """Account a load phase; returns ``(latency_s, answer)`` of every
    request answered with 200."""
    run.account(reply[3] for reply in load.replies)
    return [(reply[0], reply[2]) for reply in load.replies if reply[1] == 200]


def run_untraced(name: str, seed: int, seconds: float) -> Run:
    from .daemon import Daemon, drive, warm

    run = Run()
    setups = []
    daemons = []
    try:
        for _ in range(SETUPS):
            started = time.perf_counter()
            daemon = Daemon(SCRATCH)
            daemons.append(daemon)
            daemon.wait_ready()
            warm(daemon, warmup(name, seed))
            setups.append(time.perf_counter() - started)
            if len(setups) < SETUPS:
                _stop_all([daemons.pop()])
        cpu_before = daemon.cpu_ms()
        load = drive(daemon.address, stream(name, seed), seconds,
                     WORKLOADS[name].block)
        cpu_ms = daemon.cpu_ms() - cpu_before
        peak_rss = daemon.peak_rss_mb()
    finally:
        _stop_all(daemons)
    answered = _load_metrics(run, load)
    if not answered:
        raise RuntimeError("the daemon answered no request")
    latencies = [latency * 1e3 for latency, _ in answered]
    conclusive = sum(1 for _, answer in answered if answer.get("conclusive"))
    run.metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(answered) / load.wall_s,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "conclusive_ratio": conclusive / len(answered),
        "cpu_ms_per_request": cpu_ms / run.attempted,
        "peak_rss_mb": peak_rss,
    }
    run.counts = {metric: len(answered) for metric in run.metrics}
    run.counts["setup_s"] = len(setups)
    return run


def run_traced(name: str, seed: int, seconds: float) -> Run:
    from .daemon import Daemon, drive, warm
    from .layers import replay

    run = Run()
    daemon = Daemon(SCRATCH)
    try:
        daemon.wait_ready()
        warm(daemon, warmup(name, seed))
        before = daemon.stats()
        load = drive(daemon.address, stream(name, seed),
                     seconds * TRACED_DAEMON_SHARE, WORKLOADS[name].block)
        after = daemon.stats()
    finally:
        _stop_all([daemon])
    answered = _load_metrics(run, load)
    overheads = [(latency - answer["elapsed_s"]) * 1e3
                 for latency, answer in answered]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    trace_path = SCRATCH / f"trace-{name}-seed{seed}.json"
    values, counts, checks = replay(warmup(name, seed), stream(name, seed),
                                    WORKLOADS[name].replay, SCRATCH, trace_path)
    run.account(checks)
    run.metrics = {
        "server.overhead_ms": statistics.median(overheads),
        "cache.hit_ratio": hits / max(hits + misses, 1),
        "session.created": after["sessions"]["created"]
        - before["sessions"]["created"],
        **values,
    }
    run.counts = {**counts, "server.overhead_ms": len(overheads),
                  "cache.hit_ratio": hits + misses, "session.created": 1}
    print(f"trace: {trace_path.relative_to(ROOT)}", file=sys.stderr)
    return run


def _metric_table(trace: bool) -> dict[str, tuple[str, str]]:
    if not trace:
        return E2E_METRICS
    from .layers import LAYER_METRICS

    return LAYER_METRICS


def _print_run(name: str, seed: int, trace: bool, run: Run) -> None:
    table = _metric_table(trace)
    print(f"== {name}  seed {seed}  {'traced' if trace else 'untraced'} ==")
    for metric, (unit, _) in table.items():
        value = run.metrics.get(metric)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {metric:32} {shown:>12} {unit:6} n={run.counts.get(metric, 0)}")
    failed = run.errors + run.wrong
    print(f"  {'error_ratio':32} {failed / max(run.attempted, 1):>12.6g} "
          f"{'ratio':6} ({run.errors} errors, {run.wrong} wrong, "
          f"{run.attempted} attempted)")


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def _summarize(name: str, trace: bool, runs: list[Run]) -> dict:
    """Median and IQR of every metric over repeats; printed, returned."""
    table = _metric_table(trace)
    summary = {}
    print(f"== {name}  {len(runs)} repeats  median [q1, q3]  iqr/median ==")
    for metric, (unit, better) in table.items():
        values = [run.metrics[metric] for run in runs if metric in run.metrics]
        if not values:
            continue
        q1, median, q3 = (statistics.quantiles(values, n=4)
                          if len(values) > 1 else values * 3)
        spread = (q3 - q1) / abs(median) if median else 0.0
        summary[metric] = {"median": median, "q1": q1, "q3": q3,
                           "iqr": q3 - q1, "spread": spread, "unit": unit,
                           "better": better, "values": values}
        print(f"  {metric:32} {median:12.6g} [{q1:.6g}, {q3:.6g}] {unit:6} "
              f"{spread:7.2%}")
    return summary


def _write_baseline(path, summaries: dict, args, trace: bool) -> None:
    """Merge this invocation's summaries into a baseline JSON file."""
    path = os.path.join(ROOT, path) if not os.path.isabs(path) else path
    try:
        with open(path, encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError):
        baseline = {}
    section = "per_layer" if trace else "end_to_end"
    baseline["meta"] = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    for name, summary in summaries.items():
        baseline.setdefault(section, {})[name] = {
            "seconds": args.seconds, "repeats": args.repeat,
            "first_seed": args.seed, "metrics": summary}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench",
        description="Serving benchmark for 'repro serve' (see bench/README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report the per-layer metrics instead")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+N-1; "
                             "prints median and IQR of every metric")
    parser.add_argument("--baseline", metavar="FILE",
                        help="with --repeat: merge the medians and IQRs into "
                             "this JSON file")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat must be >= 1 and --seconds > 0")
    try:
        use_source()
    except FileNotFoundError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so every daemon is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    SCRATCH.mkdir(exist_ok=True)
    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    total = Run()
    metrics: dict[str, dict] = {}
    summaries = {}
    table = _metric_table(trace)
    try:
        for name in names:
            runs = []
            for repeat in range(args.repeat):
                seed = args.seed + repeat
                run = (run_traced if trace else run_untraced)(
                    name, seed, args.seconds)
                _print_run(name, seed, trace, run)
                runs.append(run)
                total.attempted += run.attempted
                total.errors += run.errors
                total.wrong += run.wrong
            if args.repeat > 1:
                summaries[name] = _summarize(name, trace, runs)
            for metric, (unit, _) in table.items():
                values = [run.metrics[metric] for run in runs
                          if metric in run.metrics]
                if values:
                    key = metric if len(names) == 1 else f"{name}/{metric}"
                    metrics[key] = {"value": statistics.median(values),
                                    "unit": unit}
    except (RuntimeError, OSError) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    if args.baseline:
        _write_baseline(args.baseline, summaries, args, trace)
    correct = total.wrong == 0
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.errors + total.wrong,
                      "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
