"""Tests for the Chrome trace-event writer (:mod:`repro.obs.traceout`).

Covers the span-tree round-trip invariants (well-formed parent links, no
orphans), single- and cross-process trace assembly, worker-record merging
when attempts time out or race, and the structural validator the CI smoke
gate relies on.
"""

import json

from repro import obs
from repro.analysis.problems import Problem, ProblemKind
from repro.obs import RunRecord, traceout
from repro.parallel import ExecutorService, run_batch
from repro.xpath import parse_node


def _recorded_run(name="unit"):
    with obs.record(name) as recording:
        with obs.span("outer"):
            with obs.span("inner", detail=1):
                pass
            with obs.span("sibling"):
                pass
    return recording.to_run_record()


class TestSpanTree:
    def test_parent_links_are_well_formed(self):
        record = _recorded_run()
        parents = traceout.span_parents(record)
        roots = [sid for sid, parent in parents.items() if parent is None]
        assert len(roots) == 1
        for span_id, parent in parents.items():
            if parent is not None:
                assert parent in parents, f"span {span_id} orphaned"
                assert parent != span_id

    def test_span_ids_are_dense_and_unique(self):
        record = _recorded_run()
        ids = sorted(traceout.span_parents(record))
        assert ids == list(range(len(ids)))

    def test_round_trip_through_json(self):
        record = _recorded_run()
        clone = RunRecord.from_json(record.to_json())
        assert traceout.span_parents(clone) == traceout.span_parents(record)

    def test_exception_unwind_keeps_tree_well_formed(self):
        with obs.record("boom") as recording:
            try:
                with obs.span("outer"):
                    with obs.span("inner"):
                        raise RuntimeError("escape")
            except RuntimeError:
                pass
        parents = traceout.span_parents(recording.to_run_record())
        assert sum(1 for parent in parents.values() if parent is None) == 1


class TestSingleTrace:
    def test_events_carry_wall_clock_and_ids(self):
        record = _recorded_run()
        payload = traceout.single_trace(record)
        assert traceout.validate_trace(payload) == []
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} \
            >= {"unit", "outer", "inner", "sibling"}
        for event in events:
            assert event["ts"] > 0  # epoch microseconds
            assert event["dur"] >= 0
            assert event["pid"] == 0
        inner = next(e for e in events if e["name"] == "inner")
        assert inner["args"]["detail"] == 1
        assert inner["args"]["parent_id"] is not None

    def test_runs_ride_along_in_other_data(self):
        record = _recorded_run()
        payload = traceout.single_trace(record)
        assert payload["otherData"]["format"] == traceout.TRACE_FORMAT
        assert payload["otherData"]["runs"][0]["name"] == "unit"

    def test_payload_is_json_serializable(self, tmp_path):
        payload = traceout.single_trace(_recorded_run())
        out = tmp_path / "trace.json"
        traceout.write_trace(out, payload)
        assert json.loads(out.read_text()) == payload


class TestBatchTrace:
    def _problems(self, n=4):
        return [
            Problem(ProblemKind.SATISFIABILITY,
                    phi=parse_node(f"p{i} and <down[q{i}]>"), max_nodes=4)
            for i in range(n)
        ]

    def test_merges_coordinator_and_worker_lanes(self):
        with obs.record("batch") as recording:
            report = run_batch(self._problems(), workers=2, cache=None,
                               collect_stats=True)
        coordinator = recording.to_run_record()
        payload = traceout.batch_trace(report, coordinator)
        assert traceout.validate_trace(payload) == []
        pids = traceout.worker_pids(payload)
        assert len(pids) >= 2, "expected spans from >= 2 worker processes"
        lanes = traceout.events_by_lane(payload)
        # One per-problem coordinator lane each, plus the main lane.
        coord_lanes = [key for key in lanes if key[0] == 0]
        assert (0, 0) in lanes
        assert len(coord_lanes) == len(report.outcomes) + 1
        # Worker lanes carry the engine spans recorded inside the workers.
        worker_events = [event for (pid, _), events in lanes.items()
                        if pid > 0 for event in events]
        assert any(event["name"].startswith("engine.")
                   for event in worker_events)

    def test_timed_out_workers_leave_no_orphan_lane(self):
        # A worker killed by timeout ships no record: its pid must simply
        # be absent while the coordinator lane still shows the attempt.
        hard = Problem(
            ProblemKind.SATISFIABILITY,
            phi=parse_node("<down[<down[a and <down[b]>]>]> and "
                           "not <down[c]>"),
            max_nodes=64)
        with obs.record("batch") as recording:
            report = run_batch([hard], workers=1, timeout=0.005, cache=None,
                               collect_stats=True)
        payload = traceout.batch_trace(report, recording.to_run_record())
        assert traceout.validate_trace(payload) == []
        outcome = report.outcomes[0]
        timed_out = [attempt for attempt in outcome.attempts
                     if attempt["status"] == "timeout"]
        shipped = {record["meta"].get("pid")
                   for record in outcome.worker_records}
        assert None not in shipped
        # Every worker lane in the trace corresponds to a shipped record.
        assert traceout.worker_pids(payload) == {p for p in shipped}
        if timed_out:
            coord = outcome.coord_stats
            assert coord is not None
            attempts = [span for span in RunRecord.from_dict(coord).iter_spans()
                        if span["name"] == "worker.attempt"]
            assert any(span.get("attrs", {}).get("status") == "timeout"
                       for span in attempts)

    def test_cache_hits_render_on_synthetic_lane(self, tmp_path):
        problems = self._problems(2)
        with ExecutorService(workers=2, cache=tmp_path / "cache",
                             collect_stats=True) as service:
            service.run(problems)  # warm
            with obs.record("batch") as recording:
                report = service.run(problems)  # all hits
        assert all(outcome.cache_hit for outcome in report.outcomes)
        payload = traceout.batch_trace(report, recording.to_run_record())
        assert traceout.validate_trace(payload) == []
        assert traceout.worker_pids(payload) == set()
        lanes = traceout.events_by_lane(payload)
        assert any(pid == -1 for pid, _ in lanes), \
            "cache-hit records should render on the synthetic cache lane"


class TestValidate:
    def test_flags_missing_fields(self):
        payload = {"traceEvents": [{"ph": "X"}], "otherData": {}}
        problems = traceout.validate_trace(payload)
        assert any("missing" in problem for problem in problems)
        assert any("format" in problem for problem in problems)

    def test_flags_non_list_events(self):
        assert traceout.validate_trace({"traceEvents": None}) \
            == ["traceEvents missing or not a list"]
