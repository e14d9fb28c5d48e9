"""Containment-as-a-service: the ``repro serve`` daemon.

:class:`ReproServer` keeps one resident
:class:`~repro.parallel.runner.ExecutorService` (warm schema sessions,
a pool of resident worker processes) behind one shared two-tier
:class:`~repro.parallel.cache.VerdictCache` and serves decision problems
over two stdlib-only asyncio transports:

* **HTTP/1.1** (``host:port``) — ``POST /v1/solve`` takes one request
  record (see :mod:`repro.server.protocol`); ``POST /v1/contains``,
  ``/v1/satisfiable`` and ``/v1/equivalent`` are kind-pinning aliases.
  ``GET /healthz`` is a liveness probe and ``GET /stats`` reports server
  counters, executor gauges, cache tiers and the schema-session registry
  (the warm-path assertion "zero recompiles" is made from outside the
  process through this endpoint).  Connections are keep-alive.
* **JSONL socket** (a unix socket path or a TCP port) — the ``repro
  batch`` stream protocol: one request record per line in, one answer
  record per line out, *in input order*, with lines solved concurrently
  on the executor (pipelining).  ``repro batch --server`` speaks this.

Request lifecycle: validate + admission-control → parse through the
shared protocol (the expressions then flow through the same
pass-pipeline canonicalization every local caller gets, inside the
executor) → cache probe and solve on the resident executor.  The asyncio
loop never blocks on a solve: submissions return
``concurrent.futures.Future``\\ s that are awaited via
:func:`asyncio.wrap_future`.

Admission control rejects (HTTP 400 / an ``error`` answer record)
requests that ask for an unknown or un-admitted engine, a per-request
``timeout`` beyond the server's cap, a ``max_nodes`` beyond the server's
cap, or a ``passes`` level other than the one the server runs (pipeline
level is part of the cache key; a mismatched level would silently fork
the cache namespace).  Framing errors are answered too: an HTTP request
or header line over 64 KiB, or a ``Content-Length`` that is not a
non-negative integer, gets a 400 and the connection closes; a JSONL line
over 64 KiB gets an ``error`` record in its place.  Load shedding: at
most ``max_inflight`` solve requests may be admitted concurrently; beyond
that the server answers 429 (HTTP) / an ``error`` record (JSONL)
immediately instead of queueing without bound.

Shutdown is a graceful *drain*: on SIGTERM/SIGINT (or
:meth:`ServerHandle.stop`) the listeners close first, in-flight requests
get ``drain_s`` seconds to finish, then the executor shuts down.

:func:`start_in_thread` runs the whole daemon on a background thread —
the form the tests and benchmarks use — and returns a
:class:`ServerHandle` with the bound addresses.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass

from ..analysis.problems import DEFAULT_MAX_NODES
from ..parallel.cache import VerdictCache
from ..parallel.runner import ExecutorService
from .protocol import outcome_record, parse_problem_record

__all__ = ["ReproServer", "ServerConfig", "ServerHandle", "start_in_thread"]

def _reset_signals_in_child() -> None:
    """Fork hygiene for solver children (see session.py for the session
    registry's half): a worker forked while the daemon's loop has signal
    handlers installed inherits both the handlers and the loop's wakeup
    pipe.  The coordinator's ``terminate()`` would then not kill the
    child — its inherited handler just writes the signal number into the
    *shared* wakeup pipe, which the parent's loop reads as a phantom
    SIGTERM and drains the whole daemon.  Restore default dispositions in
    every forked child."""
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_signals_in_child)


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Counters the server always reports (so ``/stats`` has a stable shape).
_COUNTER_KEYS = ("requests", "http_requests", "jsonl_requests", "solved",
                 "unsolved", "cache_hits", "bad_requests", "shed", "errors")

#: Longest line either transport reads (asyncio's default stream limit):
#: a longer HTTP request or header line is a 400, a longer JSONL line an
#: ``error`` record.
_MAX_LINE = 64 * 1024


@dataclass
class ServerConfig:
    """Everything ``repro serve`` can be told.

    ``port=0`` binds an ephemeral HTTP port (read it back from
    ``ReproServer.http_port``); ``port=None`` disables HTTP.  The JSONL
    transport listens on ``jsonl_path`` (a unix socket) when set, else on
    ``jsonl_port`` when set, else not at all.
    """

    host: str = "127.0.0.1"
    port: int | None = 0
    jsonl_path: str | None = None
    jsonl_port: int | None = None
    #: Executor shape (see :class:`ExecutorService`).
    workers: int | None = None
    timeout: float | None = None
    #: Verdict cache: directory (``None`` = the default), disable switch,
    #: and disk-tier bounds enforced on every store.
    cache_dir: str | None = None
    no_cache: bool = False
    cache_max_entries: int | None = None
    cache_max_bytes: int | None = None
    #: Schema file applied to every request (the batch ``--schema`` flag).
    schema: str | None = None
    #: Rewrite-pipeline level the server runs; requests asking for a
    #: different level are rejected (400) — see the module docstring.
    passes: str = "full"
    #: Admission caps: per-request ``timeout`` ceiling, per-request
    #: ``max_nodes`` ceiling and default, engine allowlist (``None`` =
    #: every registered engine), and the in-flight shedding bound.
    max_timeout: float = 600.0
    max_nodes_cap: int = 12
    default_max_nodes: int = DEFAULT_MAX_NODES
    engines: tuple[str, ...] | None = None
    max_inflight: int = 64
    #: Seconds a graceful drain waits for in-flight requests.
    drain_s: float = 10.0


class _RequestError(ValueError):
    """An admission-control or validation rejection (answered with 400)."""


async def _read_jsonl_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next line (``b""`` at end of stream), or ``None`` for a line
    over the stream limit.  An over-long line is discarded through its
    newline, so the following lines still frame correctly."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        return error.partial  # a last line without a newline, or b""
    except asyncio.LimitOverrunError as error:
        consumed = error.consumed
    while True:
        # The overrun bytes stay buffered: drop them and look again.
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as error:
            consumed = error.consumed


class ReproServer:
    """The daemon: resident executor + shared cache + asyncio front-ends.

    Construct it, then either ``asyncio.run(server.serve_forever())``
    (the CLI path, installs signal handlers) or drive
    :meth:`start`/:meth:`drain` yourself inside a running loop
    (:func:`start_in_thread` does).
    """

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        if self.config.schema:
            from ..cli import load_schema

            self.edtd = load_schema(self.config.schema)
        else:
            self.edtd = None
        if self.config.no_cache:
            self.cache: VerdictCache | None = None
        else:
            self.cache = VerdictCache(
                self.config.cache_dir,
                max_entries=self.config.cache_max_entries,
                max_bytes=self.config.cache_max_bytes)
        self.service = ExecutorService(
            workers=self.config.workers, timeout=self.config.timeout,
            cache=self.cache)
        self._counters = {key: 0 for key in _COUNTER_KEYS}
        self._lock = threading.Lock()
        self._inflight = 0
        self._seq = 0
        self._started_mono = time.monotonic()
        self._servers: list[asyncio.AbstractServer] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopped: asyncio.Event | None = None
        self._draining = False
        self.http_port: int | None = None
        self.jsonl_port: int | None = None
        self.jsonl_path: str | None = None

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind the configured listeners inside the running loop."""
        from ..xpath import passes

        passes.set_default_pipeline(self.config.passes)
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        config = self.config
        if config.port is not None:
            server = await asyncio.start_server(
                self._handle_http, config.host, config.port,
                limit=_MAX_LINE)
            self._servers.append(server)
            self.http_port = server.sockets[0].getsockname()[1]
        if config.jsonl_path is not None:
            path = str(config.jsonl_path)
            with contextlib.suppress(OSError):
                os.unlink(path)
            server = await asyncio.start_unix_server(
                self._handle_jsonl, path=path, limit=_MAX_LINE)
            self._servers.append(server)
            self.jsonl_path = path
        elif config.jsonl_port is not None:
            server = await asyncio.start_server(
                self._handle_jsonl, config.host, config.jsonl_port,
                limit=_MAX_LINE)
            self._servers.append(server)
            self.jsonl_port = server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """CLI entry point: start (unless the caller already did, e.g. to
        print a banner), install SIGTERM/SIGINT → drain, park."""
        if self._stopped is None:
            await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError,
                                     ValueError):
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(self.drain()))
        assert self._stopped is not None
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, let in-flight requests
        finish (bounded by ``drain_s``), then shut the executor down."""
        if self._draining:
            return
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        deadline = time.monotonic() + self.config.drain_s
        while time.monotonic() < deadline:
            with self._lock:
                if self._inflight == 0:
                    break
            await asyncio.sleep(0.02)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self.service.close(wait=False))
        if self.jsonl_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.jsonl_path)
        if self._stopped is not None:
            self._stopped.set()

    # ----------------------------------------------------- admission + solve

    def _count(self, key: str, value: int = 1) -> None:
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def _admit(self) -> bool:
        with self._lock:
            if self._inflight >= self.config.max_inflight:
                return False
            self._inflight += 1
            return True

    def _release_slot(self) -> None:
        with self._lock:
            self._inflight -= 1

    def _next_id(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _validate(self, data) -> tuple[object, str, "object", float | None]:
        """Admission control + protocol parse; raises :class:`_RequestError`
        on anything the server refuses to run."""
        if not isinstance(data, dict):
            raise _RequestError("expected a JSON object")
        config = self.config
        passes_level = data.get("passes")
        if passes_level is not None and passes_level != config.passes:
            raise _RequestError(
                f"this server runs rewrite passes {config.passes!r}; "
                f"per-request passes {passes_level!r} would fork the cache "
                "namespace and is not admitted")
        timeout = data.get("timeout")
        if timeout is not None:
            try:
                timeout = float(timeout)
            except (TypeError, ValueError):
                raise _RequestError(
                    f"bad timeout {data.get('timeout')!r}") from None
            if not 0 < timeout <= config.max_timeout:
                raise _RequestError(
                    "timeout must be in "
                    f"(0, {config.max_timeout:g}] seconds")
        max_nodes = data.get("max_nodes")
        if max_nodes is not None:
            if not isinstance(max_nodes, int) or isinstance(max_nodes, bool) \
                    or not 1 <= max_nodes <= config.max_nodes_cap:
                raise _RequestError(
                    "max_nodes must be an integer in "
                    f"[1, {config.max_nodes_cap}]")
        engine = data.get("engine")
        if engine is not None and config.engines is not None \
                and engine not in config.engines:
            raise _RequestError(
                f"engine {engine!r} is not admitted by this server "
                f"(admitted: {', '.join(config.engines)})")
        try:
            record_id, kind_name, problem = parse_problem_record(
                data, edtd=self.edtd,
                default_max_nodes=config.default_max_nodes)
        except ValueError as error:
            raise _RequestError(str(error)) from error
        return record_id, kind_name, problem, timeout

    async def _solve(self, data, *, default_id=None) -> tuple[int, dict]:
        """One solve request end to end; returns ``(status, record)``."""
        self._count("requests")
        if not self._admit():
            self._count("shed")
            return 429, {"id": default_id,
                         "error": "server overloaded "
                                  f"({self.config.max_inflight} requests "
                                  "in flight); retry later"}
        try:
            try:
                record_id, kind_name, problem, timeout = self._validate(data)
            except _RequestError as error:
                self._count("bad_requests")
                record_id = data.get("id", default_id) \
                    if isinstance(data, dict) else default_id
                return 400, {"id": record_id, "error": str(error)}
            if record_id is None:
                record_id = default_id if default_id is not None \
                    else self._next_id()
            try:
                outcome = await asyncio.wrap_future(
                    self.service.submit(problem, timeout=timeout))
            except Exception as error:  # noqa: BLE001 - answered, not raised
                self._count("errors")
                return 500, {"id": record_id,
                             "error": f"{type(error).__name__}: {error}"}
            if outcome.result is None:
                self._count("unsolved")
            else:
                self._count("solved")
                if outcome.cache_hit:
                    self._count("cache_hits")
            return 200, outcome_record(record_id, kind_name, outcome)
        finally:
            self._release_slot()

    def stats_payload(self) -> dict:
        """The ``/stats`` document: server counters, executor gauges,
        cache tiers, schema-session registry."""
        from ..analysis.session import registry_stats

        with self._lock:
            counters = dict(self._counters)
            inflight = self._inflight
        return {
            "status": "draining" if self._draining else "ok",
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
            "passes": self.config.passes,
            "server": {**counters, "inflight": inflight,
                       "max_inflight": self.config.max_inflight},
            "executor": self.service.stats(),
            "sessions": registry_stats(),
            "cache": self.cache.info() if self.cache is not None else None,
        }

    # ----------------------------------------------------------------- HTTP

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_http_request(reader)
                except _RequestError as error:
                    # Framing is lost: answer, then drop the connection.
                    self._count("bad_requests")
                    await self._http_respond(writer, 400,
                                             {"error": str(error)})
                    break
                if request is None:
                    break
                method, target, keep_alive, body = request
                status, payload = await self._dispatch_http(
                    method, target, body)
                await self._http_respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    @staticmethod
    async def _read_http_request(reader: asyncio.StreamReader):
        """``(method, target, keep_alive, body)`` of the next request, or
        ``None`` at end of stream.  Raises :class:`_RequestError` on a
        malformed or over-long request line or header line, and on a
        ``Content-Length`` that is not a non-negative integer."""

        async def _line() -> bytes:
            try:
                return await reader.readline()
            except ValueError:  # longer than the stream limit
                raise _RequestError(
                    f"request line or header line over {_MAX_LINE} "
                    "bytes") from None

        request_line = await _line()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _RequestError("malformed request line")
        method, target, version = parts
        headers: dict[str, str] = {}
        while True:
            line = await _line()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0") or "0"
        if not (length.isascii() and length.isdigit()):
            raise _RequestError(f"bad Content-Length {length!r}")
        body = await reader.readexactly(int(length))
        keep_alive = (version == "HTTP/1.1"
                      and headers.get("connection", "").lower() != "close")
        return method, target, keep_alive, body

    async def _dispatch_http(self, method: str, target: str,
                             body: bytes) -> tuple[int, dict]:
        self._count("http_requests")
        path = target.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}
            return 200, {"status": "draining" if self._draining else "ok",
                         "uptime_s": round(
                             time.monotonic() - self._started_mono, 3)}
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "stats is GET-only"}
            return 200, self.stats_payload()
        if path in ("/v1/solve", "/v1/contains", "/v1/satisfiable",
                    "/v1/equivalent"):
            if method != "POST":
                return 405, {"error": f"{path} is POST-only"}
            try:
                data = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                self._count("bad_requests")
                return 400, {"error": f"invalid JSON: {error}"}
            if path != "/v1/solve" and isinstance(data, dict):
                # Kind-pinning aliases: the path wins over the body.
                data = {**data, "kind": path.rsplit("/", 1)[1]}
            return await self._solve(data)
        return 404, {"error": f"no route {method} {path}"}

    @staticmethod
    async def _http_respond(writer: asyncio.StreamWriter, status: int,
                            payload: dict, keep_alive: bool = False) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ---------------------------------------------------------------- JSONL

    async def _handle_jsonl(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        """The batch stream protocol: answers come back in input order
        while the underlying solves run concurrently (a FIFO of futures
        between the reader loop and one write-back task)."""
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        async def _writeback() -> None:
            while True:
                item = await queue.get()
                if item is None:
                    return
                _, record = await item
                writer.write(
                    (json.dumps(record, sort_keys=True) + "\n")
                    .encode("utf-8"))
                await writer.drain()

        def _reject(message: str) -> None:
            self._count("bad_requests")
            ready: asyncio.Future = loop.create_future()
            ready.set_result((400, {"id": number, "error": message}))
            queue.put_nowait(ready)

        writeback = asyncio.ensure_future(_writeback())
        number = 0
        try:
            while True:
                line = await _read_jsonl_line(reader)
                if line is None:
                    number += 1
                    self._count("jsonl_requests")
                    _reject(f"line over {_MAX_LINE} bytes")
                    continue
                if not line:
                    break
                text = line.decode("utf-8", "replace").strip()
                if not text or text.startswith("#"):
                    continue
                number += 1
                self._count("jsonl_requests")
                try:
                    data = json.loads(text)
                except ValueError as error:
                    _reject(f"invalid JSON: {error}")
                    continue
                queue.put_nowait(asyncio.ensure_future(
                    self._solve(data, default_id=number)))
            queue.put_nowait(None)
            await writeback
        except (ConnectionError, asyncio.IncompleteReadError):
            writeback.cancel()
        finally:
            if not writeback.done():
                writeback.cancel()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


class ServerHandle:
    """A daemon running on a background thread (:func:`start_in_thread`):
    bound addresses + a blocking :meth:`stop` that drains and joins."""

    def __init__(self, server: ReproServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def http_address(self) -> str | None:
        if self.server.http_port is None:
            return None
        return f"{self.server.config.host}:{self.server.http_port}"

    @property
    def jsonl_address(self) -> str | None:
        if self.server.jsonl_path is not None:
            return self.server.jsonl_path
        if self.server.jsonl_port is not None:
            return f"{self.server.config.host}:{self.server.jsonl_port}"
        return None

    def stop(self, timeout: float = 30.0) -> None:
        loop = self.server._loop
        if loop is not None and not loop.is_closed():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(
                    lambda: asyncio.ensure_future(self.server.drain()))
        self.thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(config: ServerConfig | None = None) -> ServerHandle:
    """Run a :class:`ReproServer` on a daemon thread and wait until its
    listeners are bound; raises whatever :meth:`ReproServer.start` raised
    (bad schema file, unbindable port) instead of returning a dead handle."""
    server = ReproServer(config)
    ready = threading.Event()
    failures: list[BaseException] = []

    async def _main() -> None:
        try:
            await server.start()
        except BaseException as error:  # noqa: BLE001 - reported to caller
            failures.append(error)
            ready.set()
            return
        ready.set()
        assert server._stopped is not None
        await server._stopped.wait()

    def _run() -> None:
        try:
            asyncio.run(_main())
        except BaseException as error:  # noqa: BLE001 - reported to caller
            failures.append(error)
            ready.set()

    thread = threading.Thread(target=_run, name="repro-server", daemon=True)
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("server failed to start within 30s")
    if failures:
        raise failures[0]
    return ServerHandle(server, thread)
