"""Command-line interface: ``python -m repro <command> …``.

Commands
--------

* ``evaluate PATH [--doc FILE | --xml STRING] [--from NODE]`` — evaluate a
  path expression on a document and print the selected pairs/nodes.
* ``satisfiable NODE_EXPR [--schema FILE] [--max-nodes N]`` — decide node
  satisfiability; prints the verdict and a witness document if one exists.
* ``contains ALPHA BETA [--schema FILE] [--max-nodes N]`` — decide path
  containment; prints the verdict and a counterexample if one exists.
* ``translate EXPR --to {eq,for,normal-form,official}`` — run one of the
  paper's translations on an expression and print the result.
* ``simplify EXPR [--passes LEVEL] [--schema FILE]`` — print the rewrite
  pipeline's canonical form of an expression (the exact input every engine
  sees); ``--stats``-style per-pass statistics go to stderr.
* ``validate --schema FILE [--doc FILE | --xml STRING]`` — EDTD conformance.
* ``batch INPUT.jsonl [--workers N] [--timeout S] [--cache-dir D]``
  — decide a JSONL stream of problems on a worker pool (see
  :mod:`repro.parallel`); answers are emitted as JSONL.  With ``--server
  ADDRESS`` the stream is shipped to a running daemon instead.
* ``serve [--port P] [--socket PATH] …`` — the containment daemon (see
  :mod:`repro.server`): a resident executor + verdict cache behind HTTP
  (``/v1/solve``, ``/healthz``, ``/stats``) and the batch JSONL protocol.
* ``cache gc|info [--cache-dir D]`` — garbage-collect the verdict cache
  down to ``--max-entries``/``--max-bytes``, or print its totals.
* ``report BENCH_obs.json [--compare BASELINE --fail-on-regression PCT]``
  — render the benchmark harness's per-test perf artifact as a table, or
  gate against a committed baseline (the CI perf-regression job).

The decision commands take ``--stats`` (human-readable run statistics on
stderr), ``--trace FILE`` (a Chrome trace-event JSON file — load it at
https://ui.perfetto.dev — whose ``otherData.runs`` carries the full
:class:`repro.obs.RunRecord` dicts; ``-`` for stderr), and
``--engine NAME`` to force a registered decision engine (``patterns``,
``expspace``, ``automata``, ``bounded``, ``split``; the default ``auto``
lets the engine registry pick — see :mod:`repro.analysis.registry`), and
``--passes {none,basic,full}`` to set the session rewrite-pipeline level
(:mod:`repro.xpath.passes`; default ``full``) applied to every expression
before dispatch and cache keying.  ``batch`` takes the same flags with the
same semantics, applied per problem: a forced ``--engine`` becomes the
default for every line (overridable per line by a JSONL ``engine`` field),
``--stats`` reports the merged run record of the whole batch, and
``--trace`` merges the coordinator's and every worker process's span trees
into one cross-process timeline (one Perfetto lane per worker pid).

Stream and exit-code contract: *answers* (verdicts, witnesses,
counterexamples, evaluation results) go to stdout; *diagnostics* (errors,
warnings, ``--stats`` reports) go to stderr.  Exit codes: 0 — conclusive
positive answer (satisfiable / contained / valid); 1 — conclusive negative
answer (counterexample found / invalid document); 2 — error, or an
inconclusive bounded-search verdict (no witness up to the bound, which is
*not* a proof: see ``Verdict.NO_WITNESS_WITHIN_BOUND``).  The contract
holds even when a forced engine declines or raises at runtime: the
failure is a diagnostic on stderr and exit code 2, never a traceback.

``batch`` emits one JSON object per problem on the answer stream and a
one-line summary on stderr; its exit code is 0 when every problem
produced a verdict and 2 when some input line was malformed or some
problem could not be decided by any engine.

Schemas are text files with one ``label = content-model`` rule per line; the
first rule's label is the root type (lines like ``label -> concrete`` after
a ``%projection`` marker define an EDTD projection).  Expressions use the
library's ASCII syntax (see ``repro.xpath.parser``), which also accepts
official XPath axis steps such as ``child::a`` or ``descendant::a``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import contains as _contains
from .analysis import satisfiable as _satisfiable
from .edtd import EDTD
from .obs import RunRecord
from .semantics import evaluate_path
from .trees import XMLTree, from_xml, to_indented
from .xpath import parse_node, parse_path, to_paper, to_source

__all__ = ["main", "load_schema"]


def load_schema(path: str) -> EDTD:
    """Parse the CLI schema format into an :class:`EDTD`."""
    rules: dict[str, str] = {}
    projection: dict[str, str] = {}
    root: str | None = None
    in_projection = False
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == "%projection":
                in_projection = True
                continue
            if in_projection:
                name, _, concrete = line.partition("->")
                projection[name.strip()] = concrete.strip()
                continue
            name, separator, body = line.partition("=")
            if not separator:
                raise ValueError(f"bad schema rule: {line!r}")
            name = name.strip()
            rules[name] = body.strip()
            if root is None:
                root = name
    if root is None:
        raise ValueError("schema file has no rules")
    return EDTD.from_rules(rules, root_type=root,
                           projection=projection or None)


def _load_document(args) -> XMLTree:
    if args.doc:
        with open(args.doc, encoding="utf-8") as handle:
            return from_xml(handle.read())
    if args.xml:
        return from_xml(args.xml)
    raise SystemExit("provide a document via --doc FILE or --xml STRING")


def _cmd_evaluate(args) -> int:
    tree = _load_document(args)
    path = parse_path(args.path)
    relation = evaluate_path(tree, path)
    if args.from_node is not None:
        targets = sorted(relation.get(args.from_node, frozenset()))
        print(f"from node {args.from_node}: {targets}")
    else:
        for source in sorted(relation):
            print(f"{source} -> {sorted(relation[source])}")
    return 0


def _wants_stats(args) -> bool:
    return bool(args.stats or args.trace)


def _emit_stats(stats: dict | None, args,
                trace_payload: dict | None = None) -> None:
    """Route the run record to the requested sinks (all diagnostics).

    ``--stats`` prints the human summary; ``--trace`` writes a Chrome
    trace-event payload (``trace_payload`` when the caller pre-built one —
    the batch command's cross-process merge — else a single-process render
    of ``stats``).
    """
    if stats is None:
        return
    run_record = RunRecord.from_dict(stats)
    if args.stats:
        print(run_record.summary(), file=sys.stderr)
    if args.trace:
        from .obs import traceout

        if trace_payload is None:
            trace_payload = traceout.single_trace(run_record)
        if args.trace == "-":
            print(json.dumps(trace_payload, sort_keys=True), file=sys.stderr)
        else:
            traceout.write_trace(args.trace, trace_payload)


def _warn_inconclusive(explored_up_to: int | None) -> None:
    bound = f" up to {explored_up_to} nodes" if explored_up_to else ""
    print(f"warning: no witness found{bound}; the search bound was "
          "exhausted, so this is evidence, not a proof "
          "(raise --max-nodes to search further)", file=sys.stderr)


def _apply_passes(args) -> None:
    """Install the requested rewrite-pipeline level as the session default
    (commands run once per process, so there is nothing to restore)."""
    from .xpath import passes

    passes.set_default_pipeline(args.passes)


def _cmd_satisfiable(args) -> int:
    _apply_passes(args)
    phi = parse_node(args.expr)
    edtd = load_schema(args.schema) if args.schema else None
    result = _satisfiable(phi, edtd=edtd, method=args.engine,
                          max_nodes=args.max_nodes, stats=_wants_stats(args))
    print(f"verdict: {result.verdict.value} (conclusive: {result.conclusive})")
    if result.witness is not None:
        print("witness document:")
        print(to_indented(result.witness))
        print(f"satisfied at node {result.witness_node}")
    _emit_stats(result.stats, args)
    if result.witness is not None or result.conclusive:
        return 0
    _warn_inconclusive(result.explored_up_to)
    return 2


def _cmd_contains(args) -> int:
    _apply_passes(args)
    alpha = parse_path(args.alpha)
    beta = parse_path(args.beta)
    edtd = load_schema(args.schema) if args.schema else None
    result = _contains(alpha, beta, edtd=edtd, method=args.engine,
                       max_nodes=args.max_nodes, stats=_wants_stats(args))
    print(f"contained: {result.contained} (conclusive: {result.conclusive})")
    if result.counterexample is not None:
        d, e = result.counterexample_pair
        print(f"counterexample (pair {d} -> {e}):")
        print(to_indented(result.counterexample))
        _emit_stats(result.stats, args)
        return 1
    _emit_stats(result.stats, args)
    if result.conclusive:
        return 0
    _warn_inconclusive(result.explored_up_to)
    return 2


def _parse_batch_line(line: str, number: int, args, edtd) -> tuple:
    """One JSONL problem line -> (record_id, Problem).  Raises ValueError
    with a line-scoped message on malformed input.  The record format
    itself lives in :mod:`repro.server.protocol` (shared with the
    daemon); this wrapper adds JSON decoding, the ``line N:`` scoping
    and the line-number default id."""
    from .server.protocol import parse_problem_record

    try:
        data = json.loads(line)
    except ValueError as error:
        raise ValueError(f"line {number}: invalid JSON: {error}") from error
    try:
        record_id, kind_name, problem = parse_problem_record(
            data, edtd=edtd, default_max_nodes=args.max_nodes,
            default_engine=None if args.engine == "auto" else args.engine)
    except ValueError as error:
        raise ValueError(f"line {number}: {error}") from error
    if record_id is None:
        record_id = number
    return record_id, kind_name, problem


def _batch_record(record_id, kind_name, outcome) -> dict:
    from .server.protocol import outcome_record

    return outcome_record(record_id, kind_name, outcome)


def _batch_via_server(args, lines) -> int:
    """``repro batch --server``: ship the stream to a running daemon over
    its JSONL socket instead of spawning a local worker pool.  Records
    come back in input order and in the same shape as a local batch
    (default ids number the *payload* lines, since the daemon never sees
    blanks or comments)."""
    import time

    from .server.client import ServerClient

    if args.schema:
        raise ValueError("--schema is not supported with --server; "
                         "configure the schema on the daemon "
                         "(repro serve --schema)")
    payload = []
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            data = json.loads(text)
        except ValueError:
            # Ship it anyway: the daemon answers the same error record a
            # local batch would emit for the malformed line.
            payload.append(text)
            continue
        if isinstance(data, dict):
            # Fold the CLI-level defaults into each record; explicit
            # per-line fields always win, exactly as in a local batch.
            if "max_nodes" not in data and args.max_nodes != 6:
                data["max_nodes"] = args.max_nodes
            if "engine" not in data and args.engine != "auto":
                data["engine"] = args.engine
            if "timeout" not in data and args.timeout is not None:
                data["timeout"] = args.timeout
            text = json.dumps(data, sort_keys=True)
        payload.append(text)
    client = ServerClient(args.server)
    started = time.perf_counter()
    records = client.solve_lines(payload)
    wall = time.perf_counter() - started
    out = sys.stdout
    if args.output and args.output != "-":
        out = open(args.output, "w", encoding="utf-8")
    try:
        for record in records:
            print(json.dumps(record, sort_keys=True), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    failed = sum(1 for record in records if "error" in record)
    cache_hits = sum(1 for record in records if record.get("cache") == "hit")
    print(f"batch: {len(records)} problems in {wall:.2f}s via server "
          f"{args.server} ({cache_hits} cache hits, {failed} "
          "errors)", file=sys.stderr)
    return 2 if failed else 0


def _cmd_batch(args) -> int:
    from . import obs
    from .analysis import default_registry
    from .parallel import ExecutorService, VerdictCache

    _apply_passes(args)
    if args.engine != "auto" and args.engine not in default_registry().names():
        raise ValueError(
            f"unknown engine {args.engine!r} (registered: "
            f"{', '.join(default_registry().names())})")
    edtd = load_schema(args.schema) if args.schema else None
    if args.input == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.input, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    if args.server:
        return _batch_via_server(args, lines)
    problems = []
    ids: list[tuple] = []
    bad_records: list[dict] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            record_id, kind_name, problem = _parse_batch_line(
                line, number, args, edtd)
        except ValueError as error:
            bad_records.append({"id": number, "error": str(error)})
            continue
        ids.append((record_id, kind_name))
        problems.append(problem)

    cache = None if args.no_cache else VerdictCache(args.cache_dir)
    # --trace needs the full cross-process picture: coordinator-thread
    # recordings plus every worker's shipped run record.
    trace_payload = None
    stats = None
    with ExecutorService(workers=args.workers, timeout=args.timeout,
                         cache=cache,
                         collect_stats=bool(args.trace)) as service:
        if _wants_stats(args):
            with obs.record("batch") as recording:
                report = service.run(problems)
            stats = recording.to_run_record().to_dict()
        else:
            report = service.run(problems)
    if args.trace:
        from .obs import traceout

        trace_payload = traceout.batch_trace(report, coordinator=stats)

    records = [_batch_record(record_id, kind_name, outcome)
               for (record_id, kind_name), outcome
               in zip(ids, report.outcomes)]
    records.extend(bad_records)
    out = sys.stdout
    if args.output and args.output != "-":
        out = open(args.output, "w", encoding="utf-8")
    try:
        for record in records:
            print(json.dumps(record, sort_keys=True), file=out)
    finally:
        if out is not sys.stdout:
            out.close()

    summary = report.summary()
    if cache is not None:
        summary["cache"] = cache.info()
    print(f"batch: {summary['problems']} problems in "
          f"{summary['wall_s']:.2f}s on {summary['workers']} workers "
          f"({summary['cache_hits']} cache hits, {summary['timeouts']} "
          f"timeouts, {summary['worker_failures']} engine failures, "
          f"{summary['unsolved']} unsolved, {len(bad_records)} bad input "
          "lines)", file=sys.stderr)
    if args.stats:
        for entry in report.schemas:
            reuse = entry["session_reuse"]
            reuse_text = "n/a" if reuse is None else f"{reuse:.0%}"
            print(f"schema {entry['schema_id'][:12]}: "
                  f"{entry['problems']} problems, compiled once in "
                  f"{entry['compile_s'] * 1000:.1f}ms, "
                  f"{entry['cache_hits']} cache hits, "
                  f"session hit rate {reuse_text}", file=sys.stderr)
    if stats is not None:
        _emit_stats(stats, args, trace_payload)
    if bad_records or report.failed:
        return 2
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .server import ReproServer, ServerConfig

    engines = tuple(name for chunk in (args.engines or [])
                    for name in chunk.split(",") if name) or None
    config = ServerConfig(
        host=args.host, port=args.port,
        jsonl_path=args.socket, jsonl_port=args.jsonl_port,
        workers=args.workers, timeout=args.timeout,
        cache_dir=args.cache_dir, no_cache=args.no_cache,
        cache_max_entries=args.cache_max_entries,
        cache_max_bytes=args.cache_max_bytes,
        schema=args.schema, passes=args.passes,
        max_timeout=args.max_timeout, max_nodes_cap=args.max_nodes_cap,
        default_max_nodes=args.max_nodes, engines=engines,
        max_inflight=args.max_inflight, drain_s=args.drain_s)
    server = ReproServer(config)

    async def _serve() -> None:
        await server.start()
        listening = []
        if server.http_port is not None:
            listening.append(f"http://{config.host}:{server.http_port}")
        if server.jsonl_path is not None:
            listening.append(f"jsonl unix:{server.jsonl_path}")
        if server.jsonl_port is not None:
            listening.append(f"jsonl tcp:{config.host}:{server.jsonl_port}")
        print(f"repro serve: listening on {', '.join(listening)} "
              f"({server.service.workers} workers, passes "
              f"{config.passes}); SIGTERM drains", file=sys.stderr,
              flush=True)
        await server.serve_forever()

    asyncio.run(_serve())
    return 0


def _cmd_cache(args) -> int:
    from .parallel import VerdictCache

    cache = VerdictCache(args.cache_dir)
    if args.cache_command == "gc":
        summary = cache.gc(max_entries=args.max_entries,
                           max_bytes=args.max_bytes)
        print(json.dumps(summary, sort_keys=True))
        print(f"cache gc: removed {summary['removed']} of "
              f"{summary['scanned']} entries "
              f"({summary['bytes_removed']} bytes) under {cache.directory}; "
              f"{summary['entries']} entries / {summary['bytes']} bytes "
              "remain", file=sys.stderr)
        return 0
    # "info": an unbounded gc() is a pure scan — it yields the live
    # entry/byte totals without deleting anything.
    summary = cache.gc()
    info = cache.info()
    info["entries"] = summary["entries"]
    info["bytes"] = summary["bytes"]
    print(json.dumps(info, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    from .obs import report as obs_report

    payload = obs_report.load_bench(args.input)
    required = [key for chunk in (args.require_keys or [])
                for key in chunk.split(",") if key]
    missing = obs_report.missing_keys(payload, required)
    if args.compare:
        baseline = obs_report.load_bench(args.compare)
        comparison = obs_report.compare(
            payload, baseline, fail_pct=args.fail_on_regression,
            min_duration_s=args.min_duration)
        print(obs_report.render_report(comparison, missing), file=sys.stderr)
        return 0 if comparison.ok and not missing else 1
    print(obs_report.render_table(payload))
    for prefix in missing:
        print(f"FAIL missing instrumentation: no key matches {prefix!r}",
              file=sys.stderr)
    return 1 if missing else 0


def _cmd_translate(args) -> int:
    if args.to == "official":
        from .xpath.official import to_official
        try:
            expr = parse_path(args.expr)
        except Exception:  # noqa: BLE001 - fall back to node expressions
            expr = parse_node(args.expr)
        print(to_official(expr))
        return 0
    if args.to == "eq":
        from .automata import FreshLabels, node_to_let_nf, path_to_epa
        from .automata.toexpr import epa_to_path, letnf_to_expr
        try:
            path = parse_path(args.expr)
            translated = epa_to_path(path_to_epa(path, FreshLabels()))
        except Exception:  # noqa: BLE001
            node = parse_node(args.expr)
            translated = letnf_to_expr(node_to_let_nf(node, FreshLabels()))
        print(to_source(translated))
        return 0
    if args.to == "for":
        from .lowerbounds import eliminate_complements
        path = parse_path(args.expr)
        print(to_source(eliminate_complements(path)))
        return 0
    if args.to == "normal-form":
        from .automata import nf_render, to_normal_form
        node = parse_node(args.expr)
        print(nf_render(to_normal_form(node)))
        return 0
    raise SystemExit(f"unknown translation target {args.to!r}")


def _cmd_simplify(args) -> int:
    from .xpath import canonical_with_stats

    try:
        expr = parse_path(args.expr)
    except Exception:  # noqa: BLE001 - fall back to node expressions
        expr = parse_node(args.expr)
    alphabet = None
    if args.schema:
        alphabet = load_schema(args.schema).concrete_labels()
    result, stats = canonical_with_stats(expr, level=args.passes,
                                         alphabet=alphabet)
    print(to_source(result))
    print(f"passes: level={stats.level} nodes {stats.nodes_before} -> "
          f"{stats.nodes_after}", file=sys.stderr)
    for name, entry in sorted(stats.per_pass.items()):
        print(f"  {name}: fired={entry['fired']} "
              f"nodes {entry['nodes_before']} -> {entry['nodes_after']}",
              file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    edtd = load_schema(args.schema)
    tree = _load_document(args)
    try:
        edtd.validate(tree)
    except ValueError as error:
        print(f"INVALID: {error}")
        return 1
    print("valid")
    return 0


def _cmd_show(args) -> int:
    try:
        expr = parse_path(args.expr)
    except Exception:  # noqa: BLE001
        expr = parse_node(args.expr)
    from .xpath import size
    from .xpath.fragments import fragment_of
    print(f"paper notation: {to_paper(expr)}")
    print(f"size: {size(expr)}")
    print(f"fragment: {fragment_of(expr).name}")
    return 0


def _add_obs_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--stats", action="store_true",
        help="print run statistics (engine, spans, counters) to stderr")
    subparser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome trace-event JSON file to FILE ('-' for "
             "stderr): load it at https://ui.perfetto.dev; the full "
             "RunRecords ride along under otherData.runs")
    subparser.add_argument(
        "--engine", metavar="NAME", default="auto",
        help="force a registered decision engine (e.g. patterns, expspace, "
             "automata, bounded); default: auto-select the cheapest "
             "conclusive engine that admits the input")
    subparser.add_argument(
        "--passes", choices=["none", "basic", "full"], default="full",
        help="rewrite-pipeline level applied to every expression before "
             "dispatch and cache keying (default: full)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CoreXPath containment & satisfiability "
                    "(ten Cate & Lutz, PODS 2007)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    evaluate = commands.add_parser("evaluate", help="evaluate a path on a document")
    evaluate.add_argument("path")
    evaluate.add_argument("--doc")
    evaluate.add_argument("--xml")
    evaluate.add_argument("--from", dest="from_node", type=int, default=None)
    evaluate.set_defaults(func=_cmd_evaluate)

    sat = commands.add_parser("satisfiable", help="node satisfiability")
    sat.add_argument("expr")
    sat.add_argument("--schema")
    sat.add_argument("--max-nodes", type=int, default=6)
    _add_obs_flags(sat)
    sat.set_defaults(func=_cmd_satisfiable)

    cont = commands.add_parser("contains", help="path containment")
    cont.add_argument("alpha")
    cont.add_argument("beta")
    cont.add_argument("--schema")
    cont.add_argument("--max-nodes", type=int, default=6)
    _add_obs_flags(cont)
    cont.set_defaults(func=_cmd_contains)

    translate = commands.add_parser("translate", help="run a paper translation")
    translate.add_argument("expr")
    translate.add_argument("--to", required=True,
                           choices=["eq", "for", "normal-form", "official"])
    translate.set_defaults(func=_cmd_translate)

    simplify = commands.add_parser(
        "simplify", help="print an expression's rewrite-pipeline canonical "
                         "form (per-pass statistics on stderr)")
    simplify.add_argument("expr")
    simplify.add_argument("--passes", choices=["none", "basic", "full"],
                          default="full",
                          help="pipeline level to run (default: full)")
    simplify.add_argument("--schema",
                          help="schema whose labels enable dead-branch "
                               "elimination")
    simplify.set_defaults(func=_cmd_simplify)

    validate = commands.add_parser("validate", help="EDTD conformance")
    validate.add_argument("--schema", required=True)
    validate.add_argument("--doc")
    validate.add_argument("--xml")
    validate.set_defaults(func=_cmd_validate)

    batch = commands.add_parser(
        "batch", help="decide a JSONL stream of problems on a worker pool")
    batch.add_argument(
        "input", metavar="INPUT",
        help="JSONL file of problems ('-' for stdin); each line is an "
             'object like {"kind": "contains", "alpha": "...", "beta": '
             '"..."} or {"kind": "satisfiable", "expr": "..."} with '
             "optional id/max_nodes/engine fields")
    batch.add_argument("--output", metavar="FILE", default=None,
                       help="write JSONL answers to FILE (default: stdout)")
    batch.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: CPU count, max 8)")
    batch.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-engine-attempt wall-clock timeout; on "
                            "expiry the problem retries on the next-cheapest "
                            "admitted engine")
    batch.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="verdict cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro)")
    batch.add_argument("--no-cache", action="store_true",
                       help="disable the persistent verdict cache")
    batch.add_argument("--schema", help="schema applied to every problem")
    batch.add_argument("--max-nodes", type=int, default=6)
    batch.add_argument(
        "--server", metavar="ADDRESS", default=None,
        help="send the stream to a running 'repro serve' daemon over its "
             "JSONL socket (a unix socket path or host:port) instead of "
             "spawning a local pool; executor flags (--workers, --cache-dir, "
             "--stats, --trace) are the daemon's and ignored "
             "here, --schema must be configured on the daemon")
    _add_obs_flags(batch)
    batch.set_defaults(func=_cmd_batch)

    serve = commands.add_parser(
        "serve", help="run the containment daemon (HTTP + JSONL socket) "
                      "over a resident executor and verdict cache")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="HTTP port (0 = ephemeral; default: 8642)")
    serve.add_argument("--socket", metavar="PATH", default=None,
                       help="also serve the batch JSONL protocol on this "
                            "unix socket (repro batch --server PATH)")
    serve.add_argument("--jsonl-port", type=int, default=None, metavar="PORT",
                       help="serve the JSONL protocol on a TCP port instead "
                            "of a unix socket (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=None,
                       help="executor slots (default: CPU count, max 8)")
    serve.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="default per-engine-attempt timeout (requests "
                            "may override up to --max-timeout)")
    serve.add_argument("--max-timeout", type=float, default=600.0,
                       metavar="S",
                       help="admission cap on per-request timeouts "
                            "(default: 600)")
    serve.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="verdict cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the verdict cache")
    serve.add_argument("--cache-max-entries", type=int, default=None,
                       metavar="N",
                       help="bound the disk cache to N entries (GC on "
                            "overflow)")
    serve.add_argument("--cache-max-bytes", type=int, default=None,
                       metavar="B",
                       help="bound the disk cache to B bytes (GC on "
                            "overflow)")
    serve.add_argument("--schema", help="schema applied to every request")
    serve.add_argument("--passes", choices=["none", "basic", "full"],
                       default="full",
                       help="rewrite-pipeline level the server runs; "
                            "requests asking for another level are "
                            "rejected (default: full)")
    serve.add_argument("--max-nodes", type=int, default=6,
                       help="default search bound per request (default: 6)")
    serve.add_argument("--max-nodes-cap", type=int, default=12, metavar="N",
                       help="admission cap on per-request max_nodes "
                            "(default: 12)")
    serve.add_argument("--engines", action="append", metavar="NAME[,NAME..]",
                       default=None,
                       help="admit only these engines for per-request "
                            "engine forcing (default: all registered)")
    serve.add_argument("--max-inflight", type=int, default=64, metavar="N",
                       help="shed (429) beyond N concurrently admitted "
                            "requests (default: 64)")
    serve.add_argument("--drain-s", type=float, default=10.0, metavar="S",
                       help="graceful-drain budget on SIGTERM "
                            "(default: 10)")
    serve.set_defaults(func=_cmd_serve)

    cache = commands.add_parser(
        "cache", help="inspect or garbage-collect the verdict cache")
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_gc = cache_commands.add_parser(
        "gc", help="delete oldest-mtime entries until the bounds hold")
    cache_gc.add_argument("--cache-dir", metavar="DIR", default=None,
                          help="cache directory (default: $REPRO_CACHE_DIR "
                               "or ~/.cache/repro)")
    cache_gc.add_argument("--max-entries", type=int, default=None,
                          metavar="N", help="keep at most N entries")
    cache_gc.add_argument("--max-bytes", type=int, default=None,
                          metavar="B", help="keep at most B bytes")
    cache_gc.set_defaults(func=_cmd_cache)
    cache_info = cache_commands.add_parser(
        "info", help="print entry/byte totals and tier counters")
    cache_info.add_argument("--cache-dir", metavar="DIR", default=None,
                            help="cache directory (default: "
                                 "$REPRO_CACHE_DIR or ~/.cache/repro)")
    cache_info.set_defaults(func=_cmd_cache)

    rep = commands.add_parser(
        "report", help="render or gate a BENCH_obs.json perf artifact")
    rep.add_argument(
        "input", metavar="BENCH_OBS",
        help="BENCH_obs.json written by the benchmark harness")
    rep.add_argument(
        "--compare", metavar="BASELINE", default=None,
        help="gate against a baseline BENCH_obs.json: duration regressions "
             "and missing instrumentation fail (exit 1), counter drift "
             "only warns")
    rep.add_argument(
        "--fail-on-regression", type=float, default=50.0, metavar="PCT",
        help="relative duration growth that fails the gate "
             "(default: 50%%)")
    rep.add_argument(
        "--min-duration", type=float, default=0.05, metavar="S",
        help="noise floor: tests faster than this on either side never "
             "trip the duration gate (default: 0.05s)")
    rep.add_argument(
        "--require-keys", action="append", metavar="PREFIX[,PREFIX...]",
        help="fail unless each prefix matches some counter/gauge/histogram "
             "key in the artifact (catches silently dropped "
             "instrumentation); repeatable or comma-separated")
    rep.set_defaults(func=_cmd_report)

    show = commands.add_parser("show", help="inspect an expression")
    show.add_argument("expr")
    show.set_defaults(func=_cmd_show)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as error:
        # Parse errors (XPathSyntaxError is a ValueError), bad schema files,
        # unreadable documents, unknown/declining engines: diagnostics
        # belong on stderr, exit code 2.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:  # noqa: BLE001
        # The stream/exit-code contract holds even when a decision engine
        # raises something unexpected mid-solve (--engine NAME re-raises
        # the forced engine's exception verbatim, a witness that fails the
        # registry's check included): no tracebacks on the answer stream,
        # diagnostics to stderr, exit 2.
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
