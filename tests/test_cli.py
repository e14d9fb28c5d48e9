"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, load_schema, main

from .helpers import run_with_hash_seed


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "book.schema"
    path.write_text(
        "# the paper's book schema\n"
        "Book = Chapter+\n"
        "Chapter = Section+\n"
        "Section = (Section | Paragraph | Image)+\n"
        "Paragraph = eps\n"
        "Image = eps\n"
    )
    return str(path)


@pytest.fixture
def edtd_file(tmp_path):
    path = tmp_path / "sections.schema"
    path.write_text(
        "s1 = s2?\n"
        "s2 = eps\n"
        "%projection\n"
        "s1 -> s\n"
        "s2 -> s\n"
    )
    return str(path)


DOC = "<Book><Chapter><Section><Image/></Section></Chapter></Book>"


class TestSchemaLoading:
    def test_dtd(self, schema_file):
        schema = load_schema(schema_file)
        assert schema.root_type == "Book"
        assert schema.is_dtd

    def test_edtd_projection(self, edtd_file):
        schema = load_schema(edtd_file)
        assert not schema.is_dtd
        assert schema.projection["s1"] == "s"

    def test_bad_rule(self, tmp_path):
        bad = tmp_path / "bad.schema"
        bad.write_text("no separator here\n")
        with pytest.raises(ValueError):
            load_schema(str(bad))

    def test_empty_schema(self, tmp_path):
        empty = tmp_path / "empty.schema"
        empty.write_text("# nothing\n")
        with pytest.raises(ValueError):
            load_schema(str(empty))


class TestCommands:
    def test_evaluate(self, capsys):
        code = main(["evaluate", "down*[Image]", "--xml", DOC, "--from", "0"])
        assert code == 0
        assert "from node 0: [3]" in capsys.readouterr().out

    def test_evaluate_all_sources(self, capsys):
        main(["evaluate", "down", "--xml", DOC])
        out = capsys.readouterr().out
        assert "0 -> [1]" in out

    def test_satisfiable_positive(self, capsys):
        code = main(["satisfiable", "p and <down[q]>"])
        assert code == 0
        out = capsys.readouterr().out
        assert "satisfiable" in out
        assert "witness" in out

    def test_satisfiable_conclusive_negative(self, capsys):
        code = main(["satisfiable", "<down[p] intersect down[q]>"])
        assert code == 0
        assert "unsatisfiable" in capsys.readouterr().out

    def test_satisfiable_inconclusive(self, capsys):
        # Forced bounded search: auto dispatch would hand this to the
        # automata engine and decide it conclusively.
        code = main(["satisfiable", "<up> and not <up>", "--max-nodes", "3",
                     "--engine", "bounded"])
        assert code == 2

    def test_satisfiable_with_schema(self, capsys, schema_file):
        code = main(["satisfiable", "Paragraph and <down>",
                     "--schema", schema_file])
        assert code == 0
        assert "unsatisfiable" in capsys.readouterr().out

    def test_contains_positive(self, capsys):
        code = main(["contains", "down[p]", "down"])
        assert code == 0
        assert "contained: True" in capsys.readouterr().out

    def test_contains_negative_exits_1(self, capsys):
        code = main(["contains", "down", "down[p]"])
        assert code == 1
        assert "counterexample" in capsys.readouterr().out

    def test_validate(self, capsys, schema_file):
        assert main(["validate", "--schema", schema_file, "--xml", DOC]) == 0
        assert "valid" in capsys.readouterr().out
        bad = "<Book><Image/></Book>"
        assert main(["validate", "--schema", schema_file, "--xml", bad]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_translate_for(self, capsys):
        code = main(["translate", "down* except down[p]", "--to", "for"])
        assert code == 0
        assert "for $" in capsys.readouterr().out

    def test_translate_eq(self, capsys):
        code = main(["translate", "down intersect down[p]", "--to", "eq"])
        assert code == 0
        out = capsys.readouterr().out
        assert "intersect" not in out
        assert "eq(" in out

    def test_translate_official(self, capsys):
        code = main(["translate", "down*[p] intersect down", "--to", "official"])
        assert code == 0
        out = capsys.readouterr().out
        assert "descendant-or-self::*" in out
        assert "intersect" in out

    def test_translate_normal_form(self, capsys):
        code = main(["translate", "eq(down, down)", "--to", "normal-form"])
        assert code == 0
        assert "NFLoop" in capsys.readouterr().out

    def test_translate_normal_form_ignores_hash_seed(self):
        # The transition table is a frozenset, whose iteration order
        # follows PYTHONHASHSEED; the printed form must not.
        args = ["-m", "repro", "translate", "<down[p]/right[q]>",
                "--to", "normal-form"]
        first, second = (run_with_hash_seed(args, seed) for seed in (0, 1))
        assert "NFLoop" in first
        assert first == second

    def test_show(self, capsys):
        code = main(["show", "down intersect down[p]"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CoreXPath↓(∩)" in out
        assert "size: 5" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_official_axis_syntax(self, capsys):
        code = main(["contains", "child::a", "descendant::a"])
        assert code == 0
        assert "contained: True" in capsys.readouterr().out


class TestStreamsAndExitCodes:
    """The stream contract: answers on stdout, diagnostics on stderr."""

    def test_verdict_on_stdout_only(self, capsys):
        assert main(["satisfiable", "p"]) == 0
        captured = capsys.readouterr()
        assert "verdict: satisfiable" in captured.out
        assert captured.err == ""

    def test_parse_error_on_stderr_exit_2(self, capsys):
        code = main(["satisfiable", "<<<not an expression"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_bad_schema_file_on_stderr_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.schema"
        bad.write_text("no separator here\n")
        code = main(["satisfiable", "p", "--schema", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_inconclusive_warns_on_stderr_exit_2(self, capsys):
        """Bound-exhausted 'no witness' is ambiguous: non-zero exit plus a
        stderr warning, never a bare success."""
        code = main(["satisfiable", "<up> and not <up>", "--max-nodes", "3",
                     "--engine", "bounded"])
        assert code == 2
        captured = capsys.readouterr()
        assert "no-witness-within-bound" in captured.out
        assert "warning:" in captured.err
        assert "not a proof" in captured.err

    def test_contains_inconclusive_exit_2(self, capsys):
        code = main(["contains", "up", "up", "--max-nodes", "2",
                     "--engine", "bounded"])
        assert code == 2
        captured = capsys.readouterr()
        assert "conclusive: False" in captured.out
        assert "warning:" in captured.err


class TestEngineErrorPaths:
    """Satellite contract: a forced engine that declines, raises, or does
    not exist is a diagnostic on stderr and exit code 2 — never a
    traceback on either stream."""

    # Enough distinct modal atoms that the EXPSPACE engine's memory guard
    # declines at runtime (candidate space > 60k types).
    TOO_BIG = " and ".join(f"<down[p{i}]>" for i in range(12))

    def test_unknown_engine_name_exits_2(self, capsys):
        code = main(["satisfiable", "p", "--engine", "warp-drive"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "warp-drive" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_runtime_decline_honors_exit_contract(self, capsys):
        code = main(["satisfiable", self.TOO_BIG, "--engine", "expspace"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "declined" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_forced_engine_exception_exits_2(self, capsys):
        from repro.analysis import default_registry
        from repro.analysis.registry import Engine

        class Explodes(Engine):
            name = "test-cli-explodes"

            def admits(self, problem):
                return True

            def solve(self, problem, session=None):
                raise RuntimeError("catastrophic engine bug")

        default_registry().register(Explodes())
        try:
            code = main(["satisfiable", "p", "--engine", "test-cli-explodes"])
        finally:
            default_registry()._engines.pop("test-cli-explodes", None)
        assert code == 2
        captured = capsys.readouterr()
        assert "error: RuntimeError: catastrophic engine bug" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_auto_dispatch_still_answers_declined_input(self, capsys):
        # Without forcing, the guard's decline falls through to the bounded
        # engine: the same input yields a clean (inconclusive) verdict, not
        # an error.  The ``not q`` keeps the instance outside the patterns
        # fragment, which would otherwise answer it conclusively.
        code = main(["satisfiable", self.TOO_BIG + " and not q",
                     "--max-nodes", "2"])
        captured = capsys.readouterr()
        assert code == 2  # bound too small for a witness — but no crash
        assert "no-witness-within-bound" in captured.out
        assert "warning:" in captured.err
        assert "error:" not in captured.err


class TestBatchCommand:
    def _write_corpus(self, tmp_path):
        lines = [
            {"id": "c1", "kind": "contains", "alpha": "down[p]",
             "beta": "down"},
            {"id": "s1", "kind": "satisfiable", "expr": "p and <down[q]>"},
            {"id": "c2", "kind": "contains", "alpha": "down",
             "beta": "down[p]", "max_nodes": 3},
        ]
        path = tmp_path / "corpus.jsonl"
        path.write_text("# comment line\n" + "\n".join(
            __import__("json").dumps(line) for line in lines) + "\n")
        return path

    def _records(self, out):
        import json
        return {record["id"]: record
                for record in map(json.loads, out.splitlines())}

    def test_batch_happy_path_and_warm_cache(self, capsys, tmp_path):
        corpus = self._write_corpus(tmp_path)
        argv = ["batch", str(corpus), "--workers", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        records = self._records(captured.out)
        assert records["c1"]["verdict"] == "unsatisfiable"
        assert records["c1"]["contained"] is True
        assert records["c2"]["contained"] is False
        assert records["c2"]["counterexample_pair"] is not None
        assert records["s1"]["verdict"] == "satisfiable"
        assert all(record["cache"] == "miss" for record in records.values())
        assert "3 problems" in captured.err

        assert main(argv) == 0  # warm run: every verdict from the cache
        captured = capsys.readouterr()
        records = self._records(captured.out)
        assert all(record["cache"] == "hit" for record in records.values())
        assert "3 cache hits" in captured.err

    def test_batch_output_file_and_stdin(self, capsys, tmp_path, monkeypatch):
        import io
        import json
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"kind": "satisfiable", "expr": "p"}\n'))
        out = tmp_path / "answers.jsonl"
        code = main(["batch", "-", "--no-cache", "--workers", "1",
                     "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""  # answers went to the file
        [record] = [json.loads(line)
                    for line in out.read_text().splitlines()]
        assert record["verdict"] == "satisfiable"

    def test_batch_bad_line_exits_2_with_error_record(self, capsys, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text(
            'not json at all\n'
            '{"kind": "contains", "alpha": "down[p]", "beta": "down"}\n')
        code = main(["batch", str(corpus), "--no-cache", "--workers", "1"])
        assert code == 2
        captured = capsys.readouterr()
        records = self._records(captured.out)
        assert "invalid JSON" in records[1]["error"]
        # The good line is still decided.
        good = next(r for r in records.values() if "verdict" in r)
        assert good["verdict"] == "unsatisfiable"
        assert "1 bad input lines" in captured.err

    def test_batch_over_deep_line_is_a_bad_line(self, capsys, tmp_path):
        """An expression nested too deeply to parse is a bad input line:
        an error record, the other lines still answered."""
        corpus = tmp_path / "deep.jsonl"
        deep = "<down[" * 2500 + "p" + "]>" * 2500
        corpus.write_text(
            json.dumps({"kind": "satisfiable", "expr": deep}) + "\n"
            '{"kind": "satisfiable", "expr": "p"}\n')
        code = main(["batch", str(corpus), "--no-cache", "--workers", "1"])
        assert code == 2
        captured = capsys.readouterr()
        records = self._records(captured.out)
        assert "nests too deeply" in records[1]["error"]
        assert records[2]["verdict"] == "satisfiable"
        assert "1 bad input lines" in captured.err

    def test_batch_unknown_engine_flag_exits_2(self, capsys, tmp_path):
        corpus = self._write_corpus(tmp_path)
        code = main(["batch", str(corpus), "--engine", "warp-drive"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "warp-drive" in captured.err

    def test_batch_unknown_engine_on_a_line_is_line_scoped(self, capsys,
                                                           tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"kind": "satisfiable", "expr": "p", "engine": "warp-drive"}\n'
            '{"kind": "satisfiable", "expr": "p"}\n')
        code = main(["batch", str(corpus), "--no-cache", "--workers", "1"])
        assert code == 2
        records = self._records(capsys.readouterr().out)
        assert "unknown engine" in records[1]["error"]
        good = next(r for r in records.values() if "verdict" in r)
        assert good["verdict"] == "satisfiable"

    def test_batch_rejects_max_nodes_the_daemon_rejects(self, capsys,
                                                        tmp_path):
        """A ``max_nodes`` that is not an integer >= 1 is a bad input line,
        as it is a 400 on ``repro serve`` — never a bounded search."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"kind": "contains", "alpha": "down except down[p]",
                        "beta": "down", "max_nodes": value}) + "\n"
            for value in ("3", 2.5, -2)))
        code = main(["batch", str(corpus), "--no-cache", "--workers", "1"])
        assert code == 2
        captured = capsys.readouterr()
        records = self._records(captured.out)
        assert sorted(records) == [1, 2, 3]
        for number, record in records.items():
            assert record["error"].startswith(f"line {number}: ")
            assert "max_nodes" in record["error"]
            assert "engine_failures" not in record
        assert "3 bad input lines" in captured.err

    def test_batch_records_list_runtime_declines(self, capsys, tmp_path):
        """An answer record lists the runtime declines that came before
        the deciding engine; a cache hit ran no solve and lists none."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(
            {"id": "d", "kind": "satisfiable",
             "expr": "a or <up[b]/up[a]/up[b]/up[a]>"}) + "\n")
        argv = ["batch", str(corpus), "--workers", "1",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        solved = self._records(capsys.readouterr().out)["d"]
        assert (solved["engine"], solved["cache"]) == ("bounded", "miss")
        [declined] = solved["declined"]
        assert declined["engine"] == "automata"
        assert "max_states" in declined["reason"]
        assert main(argv) == 0
        hit = self._records(capsys.readouterr().out)["d"]
        assert hit["cache"] == "hit"
        assert "declined" not in hit

    def test_batch_engine_flag_has_single_problem_semantics(self, capsys,
                                                            tmp_path):
        """``batch --engine`` forces the same engine a single-problem
        ``satisfiable --engine`` call would use: under auto dispatch the ↑
        axis goes to the automata engine and is decided conclusively, under
        a forced bounded search the very same line stays inconclusive.

        Pinned to ``--passes basic``: the full rewrite pipeline collapses
        ``<up> and not <up>`` to ``false`` before dispatch, at which point
        the (cheaper) expspace engine rightly takes the ↑-free residue."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"kind": "satisfiable", "id": "s", '
                          '"expr": "<up> and not <up>", "max_nodes": 3}\n')
        assert main(["batch", str(corpus), "--no-cache", "--workers", "1",
                     "--passes", "basic"]) == 0
        auto = self._records(capsys.readouterr().out)["s"]
        assert auto["verdict"] == "unsatisfiable"
        assert auto["engine"] == "automata"
        assert main(["batch", str(corpus), "--no-cache",
                     "--workers", "1"]) == 0
        full = self._records(capsys.readouterr().out)["s"]
        assert full["verdict"] == "unsatisfiable"
        assert full["engine"] == "expspace"
        assert main(["batch", str(corpus), "--no-cache", "--workers", "1",
                     "--engine", "bounded"]) == 0
        forced = self._records(capsys.readouterr().out)["s"]
        assert forced["verdict"] == "no-witness-within-bound"
        assert forced["engine"] == "bounded"

    def test_batch_stats_flag_reports_run(self, capsys, tmp_path):
        corpus = self._write_corpus(tmp_path)
        code = main(["batch", str(corpus), "--no-cache", "--workers", "2",
                     "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        assert "== run: batch ==" in captured.err
        assert "batch.problems" in captured.err

    def test_batch_trace_merges_worker_processes(self, capsys, tmp_path):
        from repro.obs import traceout

        lines = [
            {"id": f"s{i}", "kind": "satisfiable",
             "expr": f"p{i} and <down[q{i}]>"}
            for i in range(6)
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(json.dumps(line) for line in lines))
        out = tmp_path / "trace.json"
        code = main(["batch", str(corpus), "--no-cache", "--workers", "2",
                     "--trace", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert traceout.validate_trace(payload) == []
        # One merged timeline: coordinator lanes plus >= 2 worker processes.
        assert len(traceout.worker_pids(payload)) >= 2
        lanes = traceout.events_by_lane(payload)
        assert (0, 0) in lanes
        assert any(tid == "problem[0]" for pid, tid in lanes if pid == 0)

    def test_batch_trace_renders_cache_hits(self, capsys, tmp_path):
        from repro.obs import traceout

        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(
            {"id": "s", "kind": "satisfiable", "expr": "p"}))
        cache_dir = str(tmp_path / "cache")
        out = tmp_path / "trace.json"
        assert main(["batch", str(corpus), "--cache-dir", cache_dir,
                     "--workers", "1"]) == 0
        assert main(["batch", str(corpus), "--cache-dir", cache_dir,
                     "--workers", "1", "--trace", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert traceout.validate_trace(payload) == []
        hits = [run for run in payload["otherData"]["runs"]
                if run.get("name") == "cache.hit"]
        assert hits and hits[0]["counters"]["cache.hit"] == 1
        probe_names = {event["name"]
                       for event in payload["traceEvents"]
                       if event.get("ph") == "X" and event["pid"] == 0}
        assert "cache.probe" in probe_names


class TestStatsFlags:
    def test_stats_goes_to_stderr(self, capsys):
        code = main(["satisfiable", "self::a", "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        assert "verdict: satisfiable" in captured.out
        assert "== run: satisfiable ==" in captured.err
        assert "engine:" in captured.err
        assert "counters:" in captured.err
        assert "== run" not in captured.out

    def test_trace_file_is_chrome_format(self, capsys, tmp_path):
        import json

        from repro.obs import traceout

        out = tmp_path / "trace.json"
        code = main(["contains", "child::a", "descendant::a",
                     "--stats", "--trace", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert traceout.validate_trace(payload) == []
        # The machine-readable RunRecord rides along under otherData.runs.
        run = payload["otherData"]["runs"][0]
        assert run["meta"]["engine"] in ("patterns", "expspace", "bounded")
        assert run["meta"]["verdict"] == "unsatisfiable"
        assert len(run["counters"]) >= 3
        timed = [event for event in payload["traceEvents"]
                 if event["ph"] == "X" and event["dur"] >= 0]
        assert len(timed) >= 3

    def test_trace_dash_to_stderr(self, capsys):
        code = main(["satisfiable", "p", "--trace", "-"])
        assert code == 0
        captured = capsys.readouterr()
        assert '"traceEvents"' in captured.err
        assert '"traceEvents"' not in captured.out

    def test_stats_off_leaves_result_clean(self, capsys):
        assert main(["satisfiable", "p"]) == 0
        assert "== run" not in capsys.readouterr().err
