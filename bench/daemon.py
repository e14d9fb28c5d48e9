"""The daemon under test and the closed-loop load driver.

:class:`Daemon` starts ``python -m repro serve --port 0 --workers 2
--cache-dir <tmp>`` from the checkout's sources, reads the bound port from
its stderr (every stderr line is echoed to ours with a ``[daemon]``
prefix, so a crash shows in the run output), and stops it with SIGTERM,
then SIGKILL after a timeout.  Each daemon gets a fresh cache directory
that is removed when it stops; any process still running with that
directory on its command line afterwards is a leaked worker, which is
killed and reported.

:func:`drive` is the load: :data:`CONNECTIONS` threads, each with its own
keep-alive :class:`~repro.server.client.HttpClient`, send the next request
only after the previous reply arrived (a closed loop, like ``repro batch
--server`` or ``contains_many`` callers).
"""

from __future__ import annotations

import contextlib
import http.client
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from . import ROOT, SOURCE
from .workloads import Request, check_answer

__all__ = ["Daemon", "LoadResult", "drive", "warm"]

WORKERS = 2
CONNECTIONS = 2
#: A reply slower than this counts as a failed request, so a wedged
#: daemon cannot hang the run (the client retries once on a dropped
#: connection, so the worst case is twice this).
CLIENT_TIMEOUT_S = 20.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
_LISTENING = re.compile(r"listening on http://([\w.]+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _http_client(address: str, timeout: float):
    from repro.server.client import HttpClient

    return HttpClient(address, timeout=timeout)


class Daemon:
    """One ``repro serve`` process with its own cache directory."""

    def __init__(self, scratch: Path):
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SOURCE)
        env.pop("REPRO_CACHE_DIR", None)
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(WORKERS), "--cache-dir", str(self.cache_dir)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except OSError:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            raise
        self.address: str | None = None
        self._bound = threading.Event()
        self._echo = threading.Thread(target=self._read_stderr, daemon=True)
        self._echo.start()

    def _read_stderr(self) -> None:
        assert self.process.stderr is not None
        for line in self.process.stderr:
            print(f"[daemon] {line.rstrip()}", file=sys.stderr, flush=True)
            match = _LISTENING.search(line)
            if match and self.address is None:
                self.address = f"{match.group(1)}:{match.group(2)}"
                self._bound.set()
        self._bound.set()  # stderr closed: the daemon is gone

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self) -> None:
        """Block until ``/healthz`` answers ``ok``."""
        deadline = time.monotonic() + START_TIMEOUT_S
        if not self._bound.wait(START_TIMEOUT_S) or self.address is None:
            raise RuntimeError("daemon exited before binding its port")
        while time.monotonic() < deadline:
            try:
                status, body = self.request("/healthz")
            except (OSError, http.client.HTTPException):
                status, body = None, None
            if status == 200 and body and body.get("status") == "ok":
                return
            if self.process.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            time.sleep(0.02)
        raise RuntimeError("daemon did not become healthy")

    def request(self, path: str, payload: dict | None = None):
        with _http_client(self.address, CLIENT_TIMEOUT_S) as client:
            return client.request(path, payload)

    def stats(self) -> dict:
        status, body = self.request("/stats")
        if status != 200 or not isinstance(body, dict):
            raise RuntimeError(f"/stats answered {status}")
        return body

    def cpu_ms(self) -> float:
        """CPU time of the daemon plus its reaped (exited) workers."""
        text = Path(f"/proc/{self.pid}/stat").read_text()
        fields = text.rsplit(")", 1)[1].split()
        # utime, stime, cutime, cstime are fields 14-17 of proc(5).
        ticks = sum(int(value) for value in fields[11:15])
        return ticks * 1000.0 / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> list[int]:
        """SIGTERM (graceful drain), SIGKILL after a timeout; removes the
        cache directory.  Returns the pids of leaked workers (killed)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(STOP_TIMEOUT_S)
        self._echo.join(STOP_TIMEOUT_S)
        if self.process.stderr is not None:
            self.process.stderr.close()
        leaked = _processes_mentioning(str(self.cache_dir))
        for pid in leaked:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return leaked


def _processes_mentioning(needle: str) -> list[int]:
    """Pids of live processes whose command line contains ``needle``
    (forked workers inherit the daemon's command line)."""
    found = []
    own = os.getpid()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == own:
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if needle.encode() in cmdline:
            found.append(int(entry.name))
    return found


@dataclass
class LoadResult:
    """Everything one closed-loop phase observed."""

    #: ``(latency_s, status, answer, check)`` per request sent.
    replies: list[tuple[float, int | None, dict | None, str]] = \
        field(default_factory=list)
    requests: list[Request] = field(default_factory=list)
    wall_s: float = 0.0


def drive(address: str, requests: Iterator[Request], seconds: float,
          block: int = 1) -> LoadResult:
    """Closed loop over :data:`CONNECTIONS` keep-alive connections until
    ``seconds`` have passed at a block boundary, or the stream ends."""
    result = LoadResult()
    lock = threading.Lock()
    state = {"issued": 0, "done": False}
    started = time.perf_counter()
    deadline = started + seconds

    def take() -> tuple[int, Request] | None:
        with lock:
            if state["done"]:
                return None
            issued = state["issued"]
            if time.perf_counter() >= deadline and issued % block == 0:
                state["done"] = True
                return None
            request = next(requests, None)
            if request is None:
                state["done"] = True
                return None
            state["issued"] = issued + 1
            result.requests.append(request)
            result.replies.append((0.0, None, None, "error"))
            return issued, request

    def loop() -> None:
        with _http_client(address, CLIENT_TIMEOUT_S) as client:
            while (item := take()) is not None:
                index, request = item
                sent = time.perf_counter()
                try:
                    status, answer = client.request("/v1/solve", request.record)
                except (OSError, http.client.HTTPException, ValueError) as error:
                    status, answer = None, {"error": repr(error)}
                latency = time.perf_counter() - sent
                check = check_answer(request, status, answer)
                with lock:
                    result.replies[index] = (latency, status, answer, check)

    threads = [threading.Thread(target=loop, name=f"load-{n}")
               for n in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        with lock:  # interrupted: let in-flight requests be the last
            state["done"] = True
        for thread in threads:
            thread.join()
    result.wall_s = time.perf_counter() - started
    return result


def warm(daemon: Daemon, requests: list[Request]) -> None:
    """Send every set-up request and fail on any bad reply."""
    result = drive(daemon.address, iter(requests), float("inf"))
    bad = [(request.record, reply[3]) for request, reply
           in zip(result.requests, result.replies) if reply[3] != "ok"]
    if bad:
        raise RuntimeError(f"warm-up request failed: {bad[0]}")
