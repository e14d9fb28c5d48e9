"""Tests for the resident ExecutorService and the ``repro serve`` daemon.

The service half covers the resident lifecycle: residency across
submissions (warm schema sessions), per-submit timeout overrides,
release/close semantics, and session-registry LRU eviction while the
service is live.  The daemon half drives the HTTP and JSONL endpoints end
to end over real sockets — validation and admission rejections, framing
errors, load shedding, answer ordering, ``/stats``, graceful drain — plus
the ``repro batch --server`` CLI integration against a local batch run of
the same stream.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import threading
import time

import pytest

from repro.analysis import contains, default_registry
from repro.analysis.problems import Problem, ProblemKind
from repro.analysis.registry import Engine
from repro.analysis.session import registry_stats, reset_sessions
from repro.parallel import ExecutorService
from repro.server import (
    HttpClient,
    ServerClient,
    ServerConfig,
    http_json,
    start_in_thread,
)
from repro.xpath import parse_node, parse_path

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-threads notice on 3.12+


def _contains(alpha: str = "down[p]", beta: str = "down",
              **kwargs) -> Problem:
    return Problem(ProblemKind.CONTAINMENT, alpha=parse_path(alpha),
                   beta=parse_path(beta), **kwargs)


def _sat(expr: str, **kwargs) -> Problem:
    return Problem(ProblemKind.SATISFIABILITY, phi=parse_node(expr),
                   **kwargs)


class Sleeper(Engine):
    name = "test-srv-sleeper"
    conclusive = True
    cost_hint = 1

    def admits(self, problem):
        return True

    def solve(self, problem, session=None):
        time.sleep(60)
        raise AssertionError("sleeper was not terminated")


@pytest.fixture
def sleeper_engine():
    default_registry().register(Sleeper())
    yield Sleeper.name
    default_registry()._engines.pop(Sleeper.name, None)


# ---------------------------------------------------------- ExecutorService


class TestExecutorService:
    def test_resident_sessions_across_submissions(self, tmp_path):
        """The compile-once property holds across *submissions*, not just
        within one batch: the second submit of a schema-shape reuses the
        parent's warm session instead of compiling again."""
        reset_sessions()
        before = registry_stats()
        service = ExecutorService(workers=2, cache=None)
        try:
            first = service.submit(_sat("p")).result(timeout=60)
            second = service.submit(_sat("p")).result(timeout=60)
            assert first.result is not None
            assert second.result is not None
            after = registry_stats()
            assert after["created"] - before["created"] == 1
            assert after["reused"] - before["reused"] >= 1
            stats = service.stats()
            assert stats["submitted"] == 2
            assert stats["completed"] == 2
            assert stats["inflight"] == 0
        finally:
            service.close()
        assert registry_stats()["resident"] == 0  # close resets sessions
        assert multiprocessing.active_children() == []  # and reaps workers

    def test_concurrent_submitters(self):
        service = ExecutorService(workers=4, cache=None)
        results = {}
        errors = []

        def _submit(index: int) -> None:
            try:
                outcome = service.submit(
                    _sat("p", max_nodes=2 + index)).result(timeout=60)
                results[index] = outcome
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        try:
            threads = [threading.Thread(target=_submit, args=(index,))
                       for index in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert len(results) == 6
            assert all(outcome.result is not None
                       for outcome in results.values())
        finally:
            service.close()

    def test_per_submit_timeout_override(self, sleeper_engine):
        service = ExecutorService(workers=1, cache=None, timeout=None)
        try:
            started = time.perf_counter()
            outcome = service.submit(
                _sat("p", engine=sleeper_engine),
                timeout=0.3).result(timeout=60)
            elapsed = time.perf_counter() - started
            assert elapsed < 30
            assert any(attempt["status"] == "timeout"
                       for attempt in outcome.attempts)
        finally:
            service.close()

    def test_release_keeps_service_usable(self):
        service = ExecutorService(workers=1, cache=None)
        try:
            assert service.submit(_sat("p")).result(timeout=60).result \
                is not None
            service.release()
            assert service._pool is None
            assert service.submit(_sat("p")).result(timeout=60).result \
                is not None  # pool lazily recreated
        finally:
            service.close()

    def test_close_is_terminal_and_idempotent(self):
        service = ExecutorService(workers=1, cache=None)
        service.close()
        service.close()
        assert service.closed
        with pytest.raises(RuntimeError):
            service.submit(_sat("p"))

    def test_batchrunner_leaves_no_threads_or_sessions(self):
        with ExecutorService(workers=2, cache=None) as service:
            report = service.run([_contains(), _sat("p")])
        assert all(outcome.result is not None for outcome in report.outcomes)
        assert service._pool is None  # shut down on exit
        assert registry_stats()["resident"] == 0
        assert multiprocessing.active_children() == []

    def test_session_lru_eviction_under_live_service(self, monkeypatch):
        """A long-lived service over many schema shapes stays bounded: the
        registry LRU-evicts beyond MAX_SESSIONS while the service keeps
        answering correctly."""
        import repro.analysis.session as session_module

        reset_sessions()
        monkeypatch.setattr(session_module, "MAX_SESSIONS", 2)
        before = registry_stats()
        service = ExecutorService(workers=1, cache=None)
        try:
            for expr in ("p", "q", "r", "s"):
                outcome = service.submit(_sat(expr)).result(timeout=60)
                assert outcome.result is not None
                assert outcome.result.verdict.value == "satisfiable"
            after = registry_stats()
            assert after["resident"] <= 2
            assert after["evicted"] - before["evicted"] >= 2
            # An evicted schema recompiles on resubmission — and still
            # answers.
            outcome = service.submit(_sat("p")).result(timeout=60)
            assert outcome.result is not None
        finally:
            service.close()


# ------------------------------------------------------------------ daemon


def _config(tmp_path, **kwargs) -> ServerConfig:
    kwargs.setdefault("port", 0)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    return ServerConfig(**kwargs)


class TestHttpEndpoints:
    @pytest.fixture
    def server(self, tmp_path):
        with start_in_thread(_config(tmp_path)) as handle:
            yield handle

    def test_healthz(self, server):
        status, body = http_json(server.http_address, "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_solve_then_cache_hit(self, server):
        request = {"kind": "contains", "alpha": "down[p]", "beta": "down"}
        status, first = http_json(server.http_address, "/v1/solve", request)
        assert status == 200
        assert first["verdict"] == "unsatisfiable"
        assert first["contained"] is True
        assert first["cache"] == "miss"
        status, second = http_json(server.http_address, "/v1/solve", request)
        assert status == 200
        assert second["cache"] == "hit"
        assert second["engine"] == "cache"
        assert second["verdict"] == first["verdict"]

    def test_kind_pinning_aliases(self, server):
        status, body = http_json(server.http_address, "/v1/satisfiable",
                                 {"expr": "p and q"})
        assert status == 200
        assert body["kind"] == "satisfiable"
        status, body = http_json(server.http_address, "/v1/equivalent",
                                 {"alpha": "down", "beta": "down/down"})
        assert status == 200
        assert body["kind"] == "equivalent"
        assert body["contained"] is False

    def test_rejections(self, server):
        address = server.http_address
        cases = [
            ({"kind": "nope", "expr": "p"}, "unknown kind"),
            ({"expr": "p"}, "missing field"),  # contains without alpha
            ({"kind": "satisfiable", "expr": "p", "passes": "none"},
             "passes"),
            ({"kind": "satisfiable", "expr": "p", "timeout": 1e9},
             "timeout"),
            ({"kind": "satisfiable", "expr": "p", "max_nodes": 99},
             "max_nodes"),
            ({"kind": "satisfiable", "expr": "p", "engine": "no-such"},
             "unknown engine"),
            ({"kind": "satisfiable", "expr": "p("}, ""),  # syntax error
        ]
        for request, needle in cases:
            status, body = http_json(address, "/v1/solve", request)
            assert status == 400, request
            assert needle in body["error"]

    def test_invalid_json_and_routing(self, server):
        address = server.http_address
        with HttpClient(address) as client:
            status, body = client.request("/v1/solve", method="POST")
            assert status == 400  # empty body is not JSON
            status, body = client.request("/nowhere")
            assert status == 404
            status, body = client.request("/healthz", method="POST",
                                          payload={})
            assert status == 405
            status, body = client.request("/v1/solve", method="GET")
            assert status == 405

    def test_stats_shape_and_warm_compile_freeness(self, server):
        address = server.http_address
        request = {"kind": "satisfiable", "expr": "p or q"}
        assert http_json(address, "/v1/solve", request)[0] == 200
        _, cold = http_json(address, "/stats")
        assert http_json(address, "/v1/solve", request)[0] == 200
        _, warm = http_json(address, "/stats")
        for payload in (cold, warm):
            assert payload["status"] == "ok"
            for section in ("server", "executor", "sessions", "cache"):
                assert section in payload
        assert warm["server"]["cache_hits"] >= cold["server"]["cache_hits"]
        assert warm["cache"]["mem_hits"] >= 1
        # The warm request compiled nothing: the session registry's
        # lifetime counters are flat across it.
        assert warm["sessions"]["created"] == cold["sessions"]["created"]
        assert warm["executor"]["completed"] == \
            warm["executor"]["submitted"]

    def test_engine_allowlist(self, tmp_path):
        config = _config(tmp_path, engines=("patterns",))
        with start_in_thread(config) as handle:
            status, body = http_json(
                handle.http_address, "/v1/solve",
                {"kind": "satisfiable", "expr": "p", "engine": "bounded"})
            assert status == 400
            assert "not admitted" in body["error"]
            status, body = http_json(
                handle.http_address, "/v1/solve",
                {"kind": "satisfiable", "expr": "p", "engine": "patterns"})
            assert status == 200


def _raw_http(address: str, request: bytes) -> bytes:
    """Send raw bytes to the daemon's HTTP port and read until it
    closes the connection."""
    host, port = address.rsplit(":", 1)
    received = b""
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass  # the server closed with part of the request unread
    return received


def _unhandled(caplog) -> list[str]:
    return [record.getMessage() for record in caplog.records
            if "Unhandled exception" in record.getMessage()]


class TestHttpFraming:
    """Requests whose framing cannot be trusted get a 400 and a closed
    connection — never an exception escaping the connection handler."""

    @pytest.fixture
    def server(self, tmp_path):
        with start_in_thread(_config(tmp_path)) as handle:
            yield handle

    def _assert_rejected(self, server, caplog, request: bytes,
                         needle: str) -> None:
        response = _raw_http(server.http_address, request)
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), response[:200]
        assert b"Connection: close" in head
        assert needle in json.loads(body)["error"]
        # The daemon is still healthy, and the bad connection logged no
        # unhandled exception.
        assert http_json(server.http_address, "/healthz")[0] == 200
        assert _unhandled(caplog) == []

    def test_negative_content_length(self, server, caplog):
        for length in ("-1", "12x"):
            self._assert_rejected(
                server, caplog,
                b"POST /v1/solve HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n{}",
                "Content-Length")

    def test_over_long_header_line(self, server, caplog):
        pad = b"a" * 70_000  # over asyncio's 64 KiB stream limit
        for request in (b"GET /healthz HTTP/1.1\r\nX-Pad: " + pad
                        + b"\r\n\r\n",
                        b"GET /" + pad + b" HTTP/1.1\r\n\r\n"):
            self._assert_rejected(server, caplog, request,
                                  "header line over 65536 bytes")


class TestShedding:
    def test_max_inflight_zero_sheds_everything(self, tmp_path):
        with start_in_thread(_config(tmp_path, max_inflight=0)) as handle:
            status, body = http_json(
                handle.http_address, "/v1/solve",
                {"kind": "satisfiable", "expr": "p"})
            assert status == 429
            assert "overloaded" in body["error"]
            _, stats = http_json(handle.http_address, "/stats")
            assert stats["server"]["shed"] == 1
            assert stats["server"]["solved"] == 0


class TestJsonlProtocol:
    @pytest.fixture
    def server(self, tmp_path):
        config = _config(tmp_path, jsonl_port=0)
        with start_in_thread(config) as handle:
            yield handle

    def test_answers_in_input_order(self, server):
        client = ServerClient(server.jsonl_address)
        requests = [
            {"id": f"r{index}", "kind": "satisfiable", "expr": "p",
             "max_nodes": 2 + index}
            for index in range(8)
        ]
        records = client.solve_records(requests)
        assert [record["id"] for record in records] == \
            [request["id"] for request in requests]
        assert all(record["verdict"] == "satisfiable"
                   for record in records)

    def test_malformed_line_gets_error_record_in_place(self, server):
        client = ServerClient(server.jsonl_address)
        lines = [
            json.dumps({"kind": "satisfiable", "expr": "p"}),
            "{this is not json",
            json.dumps({"kind": "satisfiable", "expr": "q"}),
        ]
        records = client.solve_lines(lines)
        assert len(records) == 3
        assert records[0]["id"] == 1
        assert "invalid JSON" in records[1]["error"]
        assert records[1]["id"] == 2
        assert records[2]["id"] == 3
        assert records[2]["verdict"] == "satisfiable"

    def test_oversized_line_answers_in_place(self, server, caplog):
        """A line over the 64 KiB stream limit gets an ``error`` record in
        its place; the answers before and after it still arrive."""
        client = ServerClient(server.jsonl_address)
        lines = [
            json.dumps({"kind": "satisfiable", "expr": "p"}),
            json.dumps({"kind": "satisfiable", "expr": "p",
                        "pad": "x" * 70_000}),
            json.dumps({"kind": "satisfiable", "expr": "q"}),
        ]
        records = client.solve_lines(lines)
        assert [record["id"] for record in records] == [1, 2, 3]
        assert records[0]["verdict"] == "satisfiable"
        assert "over 65536 bytes" in records[1]["error"]
        assert records[2]["verdict"] == "satisfiable"
        assert client.solve_lines(lines[:1])[0]["verdict"] == "satisfiable"
        assert _unhandled(caplog) == []

    def test_default_ids_number_payload_lines(self, server):
        client = ServerClient(server.jsonl_address)
        records = client.solve_records(
            [{"kind": "satisfiable", "expr": "p"},
             {"kind": "satisfiable", "expr": "q"}])
        assert [record["id"] for record in records] == [1, 2]


class TestCliIntegration:
    def _write_stream(self, tmp_path) -> str:
        lines = [
            {"id": "a", "kind": "contains", "alpha": "down[p]",
             "beta": "down"},
            {"id": "b", "kind": "satisfiable", "expr": "p and not p"},
            {"id": "c", "kind": "equivalent", "alpha": "down",
             "beta": "down/down"},
        ]
        path = tmp_path / "stream.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines),
                        encoding="utf-8")
        return str(path)

    @staticmethod
    def _stable(records: list[dict]) -> list[dict]:
        keep = ("id", "kind", "verdict", "conclusive", "contained",
                "counterexample_pair", "error")
        return [{key: record[key] for key in keep if key in record}
                for record in records]

    def test_batch_via_server_matches_local_batch(self, tmp_path, capsys):
        from repro.cli import main

        stream = self._write_stream(tmp_path)
        config = _config(tmp_path, jsonl_path=str(tmp_path / "sock"))
        with start_in_thread(config) as handle:
            assert main(["batch", stream, "--server",
                         handle.jsonl_address]) == 0
            served = [json.loads(line) for line
                      in capsys.readouterr().out.splitlines()]
        assert main(["batch", stream, "--no-cache", "--workers", "2"]) == 0
        local = [json.loads(line) for line
                 in capsys.readouterr().out.splitlines()]
        assert self._stable(served) == self._stable(local)

    def test_batch_via_server_bad_line_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        stream = tmp_path / "bad.jsonl"
        stream.write_text('{"kind": "nope"}\n', encoding="utf-8")
        config = _config(tmp_path, jsonl_path=str(tmp_path / "sock"))
        with start_in_thread(config) as handle:
            assert main(["batch", str(stream), "--server",
                         handle.jsonl_address]) == 2
        records = [json.loads(line) for line
                   in capsys.readouterr().out.splitlines()]
        assert "unknown kind" in records[0]["error"]


class TestWorkerPool:
    def test_requests_share_the_pool_and_drain_reaps_it(self, tmp_path):
        """Served verdicts match sequential ``contains``, every request
        reuses the two workers forked for the first one, and a drain
        leaves no worker process behind."""
        pairs = [("down[p]/down[q]", "down/down"),
                 ("down/down", "down[p]/down"),
                 ("down[q]", "down"),
                 ("down*[p]", "down")]
        want = [contains(parse_path(alpha), parse_path(beta)).verdict.value
                for alpha, beta in pairs]
        handle = start_in_thread(_config(tmp_path, workers=2, no_cache=True))
        try:
            got = []
            for alpha, beta in pairs:
                status, body = http_json(
                    handle.http_address, "/v1/contains",
                    {"alpha": alpha, "beta": beta})
                assert status == 200
                got.append(body["verdict"])
            assert got == want
            _, stats = http_json(handle.http_address, "/stats")
            executor = stats["executor"]
            assert (executor["spawned"], executor["workers_alive"],
                    executor["replaced"], executor["recycled"]) == (2, 2, 0, 0)
            assert len(multiprocessing.active_children()) == 2
        finally:
            handle.stop()
        assert multiprocessing.active_children() == []

    def test_timed_out_request_replaces_a_worker(self, tmp_path, request):
        problem = _contains()
        want = contains(problem.alpha, problem.beta).verdict.value
        # Registered only now: the sequential baseline must not sleep.
        sleeper_engine = request.getfixturevalue("sleeper_engine")
        config = _config(tmp_path, workers=1, no_cache=True)
        with start_in_thread(config) as handle:
            status, body = http_json(
                handle.http_address, "/v1/contains",
                {"alpha": "down[p]", "beta": "down", "timeout": 0.5})
            assert status == 200
            assert body["verdict"] == want
            assert body["timeouts"] == [sleeper_engine]
            _, stats = http_json(handle.http_address, "/stats")
            assert (stats["executor"]["spawned"],
                    stats["executor"]["replaced"]) == (2, 1)
        assert multiprocessing.active_children() == []


class TestDrain:
    def test_stop_joins_and_unlinks_socket(self, tmp_path):
        sock = tmp_path / "drain.sock"
        handle = start_in_thread(_config(tmp_path, jsonl_path=str(sock)))
        assert sock.exists()
        assert http_json(handle.http_address, "/healthz")[0] == 200
        handle.stop()
        assert not handle.thread.is_alive()
        assert not sock.exists()
        handle.stop()  # idempotent
