"""Tests of repro.trace: span model, tracer seam, export, reports, and
the tracing integration across the serve path.

The differential test at the bottom is the load-bearing one: the means
reconstructed from exported spans must equal the runtime's own
``stage_<name>_s`` histograms, proving the trace pipeline measures the
same quantity the metrics do rather than a lookalike.
"""

import json
from pathlib import Path

import pytest

from repro.serve import FleetService, MeasurementRequest, synthetic_load
from repro.trace import (
    JsonlExporter,
    NULL_TRACER,
    Span,
    Trace,
    TraceSink,
    Tracer,
    read_traces,
    render_exemplars,
    render_flamegraph,
    stage_breakdown,
    stage_compute_means,
    trace_report,
    write_traces,
)
from repro.trace.report import _fmt_time, _percentile

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_structure.json"
ENERGY_GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_structure_energy.json"

#: Spans whose presence depends on cross-run cache temperature, excluded
#: from golden-structure comparison (see golden fixture notes).
_UNSTABLE_SPANS = {"artifact_build"}


# ------------------------------------------------------------------ span model


def test_span_wall_s_prefers_exact_attr():
    span = Span("compute", t0_s=1.0, t1_s=2.0)
    assert span.wall_s == pytest.approx(1.0)
    span.attrs["wall_s"] = 0.25  # the emitter's exact perf_counter window
    assert span.wall_s == pytest.approx(0.25)


def test_span_dict_roundtrip():
    span = Span("reconfig", 0.5, 0.75, depth=2, attrs={"stage": "filter", "cached": True})
    clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
    assert clone == span


def test_trace_begin_end_nesting():
    trace = Trace("t")
    trace.begin("execute", t0=0.0)
    trace.begin("stage:frontend", t0=0.1)
    trace.add("reconfig", 0.1, 0.2)
    trace.end("stage:frontend", t1=0.5, requests=4)
    trace.end("execute", t1=0.6)
    assert trace.structure() == [
        (0, "execute"),
        (1, "stage:frontend"),
        (2, "reconfig"),
    ]
    stage = trace.find("stage:frontend")[0]
    assert stage.t1_s == 0.5 and stage.attrs["requests"] == 4
    assert trace.depth == 0


def test_trace_end_without_open_raises():
    with pytest.raises(ValueError, match="no open span"):
        Trace("t").end("execute")


def test_trace_end_wrong_name_raises():
    trace = Trace("t")
    trace.begin("outer", t0=0.0)
    trace.begin("inner", t0=0.0)
    with pytest.raises(ValueError, match="innermost open span"):
        trace.end("outer")


def test_trace_extend_offsets_depth():
    segment = Trace("batch-1")
    segment.begin("execute", t0=0.0)
    segment.add("reconfig", 0.0, 0.1)
    segment.end("execute", t1=0.2)

    trace = Trace("req-1")
    trace.begin("request", t0=0.0)
    trace.extend(segment)
    trace.end("request", t1=0.3)
    assert trace.structure() == [(0, "request"), (1, "execute"), (2, "reconfig")]
    # Grafts are copies: mutating the request trace leaves the segment alone.
    trace.spans[1].attrs["touched"] = True
    assert "touched" not in segment.spans[0].attrs


def test_trace_close_open_marks_unfinished():
    trace = Trace("t")
    trace.begin("execute", t0=0.0)
    trace.begin("stage:filter", t0=0.1)
    assert trace.close_open(t1=0.9) == 2
    assert all(s.t1_s == 0.9 and s.attrs["unfinished"] for s in trace.spans)
    assert trace.depth == 0


def test_trace_walk_yields_ancestor_paths():
    trace = Trace("t")
    trace.begin("a", t0=0.0)
    trace.begin("b", t0=0.0)
    trace.end("b", t1=0.1)
    trace.end("a", t1=0.2)
    trace.add("c", 0.2, 0.3)
    assert [path for path, _ in trace.walk()] == [("a",), ("a", "b"), ("c",)]


def test_trace_dict_roundtrip_and_empty_duration():
    assert Trace("empty").duration_s == 0.0
    trace = Trace("req-3", request_id=3, tank_id="tank-1")
    trace.add("admit", 1.0, 1.0)
    trace.add("respond", 2.5, 2.5, status="ok")
    clone = Trace.from_dict(trace.to_dict())
    assert clone.trace_id == "req-3" and clone.request_id == 3
    assert clone.tank_id == "tank-1"
    assert clone.structure() == trace.structure()
    assert clone.duration_s == pytest.approx(1.5)


# ------------------------------------------------------------------ sink/tracer


def _finished_trace(trace_id, duration):
    trace = Trace(trace_id)
    trace.add("respond", 0.0, duration)
    return trace


def test_sink_ring_is_bounded():
    sink = TraceSink(capacity=3, exemplars=0)
    for i in range(7):
        sink.offer(_finished_trace(f"t{i}", 0.1))
    kept = [t.trace_id for t in sink.traces()]
    assert kept == ["t4", "t5", "t6"]
    assert sink.finished == 7


def test_sink_keeps_slowest_exemplars():
    sink = TraceSink(capacity=2, exemplars=3)
    for i, duration in enumerate([0.1, 0.9, 0.2, 0.5, 0.05, 0.7]):
        sink.offer(_finished_trace(f"t{i}", duration))
    slowest = [t.trace_id for t in sink.exemplars()]
    assert slowest == ["t1", "t5", "t3"]  # 0.9, 0.7, 0.5 — slowest first


def test_sink_exporter_and_snapshot_counts():
    exported = []
    sink = TraceSink(capacity=4, exemplars=2, exporter=exported.append)
    sink.offer(_finished_trace("a", 0.3))
    sink.offer(_finished_trace("b", 0.1))
    snap = sink.snapshot()
    assert [t.trace_id for t in exported] == ["a", "b"]
    assert snap["finished"] == snap["exported"] == 2
    assert snap["ring"] == 2 and snap["ring_capacity"] == 4
    assert snap["slowest_s"] == pytest.approx(0.3)


def test_sink_validation():
    with pytest.raises(ValueError):
        TraceSink(capacity=0)
    with pytest.raises(ValueError):
        TraceSink(exemplars=-1)


def test_disabled_tracer_is_inert():
    tracer = Tracer(enabled=False)
    assert tracer.start(1, "tank") is None
    assert tracer.segment("batch") is None
    tracer.emit("anything", 0.0, 1.0)
    assert tracer.finish(1) is None
    tracer.close()
    assert tracer.sink.finished == 0
    assert not tracer.runtime.spans
    assert NULL_TRACER.enabled is False


def test_finish_unknown_request_is_noop():
    tracer = Tracer()
    assert tracer.finish(12345, status="ok") is None
    assert tracer.sink.finished == 0


def test_finish_closes_open_spans_and_appends_respond():
    tracer = Tracer()
    trace = tracer.start(7, "tank-9")
    trace.begin("queue", t0=0.0)  # a failure path left it open
    assert tracer.active_count() == 1
    finished = tracer.finish(7, status="failed")
    assert finished is trace
    assert tracer.active(7) is None and tracer.active_count() == 0
    assert finished.spans[0].attrs["unfinished"] is True
    assert finished.spans[-1].name == "respond"
    assert finished.spans[-1].attrs["status"] == "failed"
    assert tracer.sink.traces() == [finished]


def test_emit_targets_ambient_then_runtime():
    tracer = Tracer()
    segment = tracer.segment("batch-1")
    tracer.push(segment)
    try:
        tracer.emit("kernel:filter", 0.0, 0.1, requests=4)
    finally:
        tracer.pop()
    tracer.emit("artifact_build", 0.2, 0.3, kind="bitstream")
    assert [s.name for s in segment.spans] == ["kernel:filter"]
    assert [s.name for s in tracer.runtime.spans] == ["artifact_build"]
    assert tracer.ambient() is None


def test_close_flushes_runtime_and_is_idempotent():
    class Closeable:
        def __init__(self):
            self.calls = 0
            self.traces = []

        def __call__(self, trace):
            self.traces.append(trace)

        def close(self):
            self.calls += 1

    exporter = Closeable()
    tracer = Tracer(sink=TraceSink(exporter=exporter))
    tracer.emit("artifact_build", 0.0, 0.1)
    tracer.close()
    tracer.close()
    assert exporter.calls == 1
    assert [t.trace_id for t in exporter.traces] == ["runtime"]


# --------------------------------------------------------------------- export


def test_jsonl_roundtrip(tmp_path):
    traces = [_finished_trace("a", 0.2), _finished_trace("b", 0.4)]
    traces[0].spans[0].attrs["status"] = "ok"
    path = write_traces(tmp_path / "t.jsonl", traces)
    loaded = read_traces(path)
    assert [t.trace_id for t in loaded] == ["a", "b"]
    assert loaded[0].spans[0].attrs == {"status": "ok"}
    assert loaded[1].duration_s == pytest.approx(0.4)


def test_read_traces_reports_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps(_finished_trace("ok", 0.1).to_dict()) + "\n{not json\n"
    )
    with pytest.raises(ValueError, match=":2:"):
        read_traces(path)
    with pytest.raises(FileNotFoundError):
        read_traces(tmp_path / "absent.jsonl")


def test_exporter_opens_file_lazily(tmp_path):
    path = tmp_path / "out.jsonl"
    with JsonlExporter(path) as exporter:
        assert not path.exists()  # nothing exported, no file
        exporter(_finished_trace("t", 0.1))
        assert exporter.written == 1
    assert len(read_traces(path)) == 1


# --------------------------------------------------------------------- report


def test_percentile_handles_empty_and_single():
    assert _percentile([], 95.0) == 0.0
    assert _percentile([0.4], 0.0) == _percentile([0.4], 95.0) == 0.4
    assert _percentile([1.0, 3.0], 50.0) == pytest.approx(2.0)


def test_fmt_time_adapts_units():
    assert _fmt_time(60e-6).strip() == "60.0us"
    assert _fmt_time(0.118).strip() == "118.0ms"
    assert _fmt_time(2.5).strip() == "2.50s"


def _grafted_pair():
    """Two request traces sharing one batch's grafted segment spans —
    the shape the executor produces for a 2-request batch."""
    shared = [
        Span("execute", 1.0, 1.5, 0, {"batch_id": 1}),
        Span("stage:frontend", 1.0, 1.4, 1,
             {"batch_id": 1, "stage": "frontend", "requests": 2,
              "cycles": 4096, "energy_j": 2e-7}),
        Span("reconfig", 1.0, 1.1, 2,
             {"batch_id": 1, "stage": "frontend", "cached": False,
              "device_time_s": 0.005, "energy_j": 1e-4}),
        Span("compute", 1.1, 1.4, 2,
             {"batch_id": 1, "stage": "frontend", "wall_s": 0.3}),
    ]
    traces = []
    for request_id in (1, 2):
        trace = Trace(f"req-{request_id}", request_id=request_id, tank_id="tank-a")
        trace.add("admit", 0.9, 0.9)
        trace.add("queue", 0.9, 1.0)
        for span in shared:
            trace.spans.append(Span(span.name, span.t0_s, span.t1_s, span.depth, dict(span.attrs)))
        trace.add("respond", 1.5, 1.5, status="ok", latency_s=0.6)
        traces.append(trace)
    return traces


def test_stage_breakdown_dedupes_shared_batch_spans():
    breakdown = stage_breakdown(_grafted_pair())
    frontend = breakdown["stages"]["frontend"]
    # The grafted copies collapse to one batch observation...
    assert breakdown["batches"] == 1
    assert frontend["batches"] == 1
    assert frontend["compute"]["count"] == 1
    assert frontend["compute"]["mean_s"] == pytest.approx(0.3)
    assert frontend["reconfig"]["count"] == 1
    # ...while per-request facts aggregate over both requests.
    assert frontend["requests"] == 2
    assert breakdown["requests"]["statuses"] == {"ok": 2}
    assert breakdown["requests"]["latency"]["count"] == 2


def test_trace_report_renders_and_survives_empty_input():
    report = trace_report(_grafted_pair(), flame=True)
    assert "frontend" in report and "flamegraph" in report
    empty = trace_report([], flame=True)
    assert "no stage spans" in empty
    assert render_flamegraph([]) == "(no spans)"
    assert render_exemplars([]) == "(no traces)"
    assert stage_compute_means([]) == {}


def test_flamegraph_weighs_request_seconds_not_batches():
    flame = render_flamegraph(_grafted_pair())
    # Both grafted copies count: 2 x 0.5 s of execute over 2 x 0.6 s total.
    assert "execute" in flame
    line = next(l for l in flame.splitlines() if l.strip().startswith("execute"))
    assert "1000.00 ms" in line


def test_exemplars_skip_the_runtime_trace():
    runtime = Trace("runtime")
    runtime.add("artifact_build", 0.0, 99.0)  # spans the whole run
    listing = render_exemplars([runtime] + _grafted_pair(), top=2)
    assert "runtime" not in listing
    assert "req-1" in listing


# -------------------------------------------------------- service integration


def _run_traced_service(**kwargs):
    """Serve 8 requests over 2 tanks with tracing on; returns
    (request traces by id, all sink traces, metrics snapshot)."""
    sink = TraceSink(capacity=64, exemplars=4)
    tracer = Tracer(sink=sink)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("batched", True)
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("queue_capacity", 32)
    # The vector golden was recorded under FIFO formation.
    kwargs.setdefault("policy", "fifo")
    service = FleetService(tracer=tracer, **kwargs)
    requests = synthetic_load(8, n_tanks=2)
    accepted, rejected = service.submit_many(requests)
    assert not rejected
    service.start()
    assert service.await_responses(accepted, timeout_s=120)
    assert service.shutdown()
    snapshot = service.metrics_snapshot()
    tracer.close()
    traces = sink.traces()
    by_id = {t.request_id: t for t in traces if t.request_id is not None}
    assert len(by_id) == accepted
    return by_id, traces, snapshot


@pytest.fixture(scope="module")
def traced_service():
    return _run_traced_service()


def _stable_structure(trace):
    return [list(pair) for pair in trace.structure() if pair[1] not in _UNSTABLE_SPANS]


def test_traced_service_structure_matches_golden_vector(traced_service):
    by_id, _, _ = traced_service
    golden = json.loads(GOLDEN_PATH.read_text())
    assert {str(i) for i in by_id} == set(golden["vector"])
    for request_id, trace in by_id.items():
        assert _stable_structure(trace) == golden["vector"][str(request_id)], (
            f"span structure drifted for request {request_id}"
        )


def test_traced_service_structure_matches_golden_energy():
    """The energy policy's span structure — including its
    ``energy_decision`` span — is frozen the same way the FIFO structure
    is: a schedule change that adds, drops or reorders spans
    must be a conscious golden refresh, not an accident."""
    by_id, _, _ = _run_traced_service(policy="energy")
    golden = json.loads(ENERGY_GOLDEN_PATH.read_text())
    assert {str(i) for i in by_id} == set(golden["energy"])
    for request_id, trace in by_id.items():
        assert _stable_structure(trace) == golden["energy"][str(request_id)], (
            f"span structure drifted for request {request_id}"
        )


def test_energy_decision_span_predicts_the_measured_joules():
    """Every request batched by the energy policy carries one
    ``energy_decision`` span whose prediction must match the executor's
    measured per-request energy share exactly — the model mirrors the
    accounting, so any drift between the two is a bug in one of them."""
    by_id, _, snapshot = _run_traced_service(policy="energy")
    assert snapshot["counters"]["energy_decisions"] >= 1
    for request_id, trace in by_id.items():
        decisions = trace.find("energy_decision")
        assert len(decisions) == 1, f"request {request_id}"
        span = decisions[0]
        assert span.attrs["pipeline"] == list(
            ("frontend", "amp_phase", "capacity", "filter")
        )
        assert span.attrs["batch_size"] == 4
        assert span.attrs["target_batch"] == 4
        assert span.attrs["predicted_reconfig_j"] > 0.0
        respond = trace.find("respond")
        assert respond, f"request {request_id} has no respond span"
        assert span.attrs["predicted_j_per_request"] == pytest.approx(
            respond[0].attrs["energy_j"], rel=1e-9
        )


def test_traced_service_stage_spans_carry_cycles_and_energy(traced_service):
    by_id, _, _ = traced_service
    for trace in by_id.values():
        stage_spans = [s for s in trace.spans if s.name.startswith("stage:")]
        assert len(stage_spans) == 4
        for span in stage_spans:
            assert span.attrs["cycles"] > 0
            assert span.attrs["energy_j"] > 0.0
            assert span.attrs["requests"] >= 1
        for span in trace.find("reconfig"):
            assert span.attrs["device_time_s"] > 0.0
            assert isinstance(span.attrs["cached"], bool)
        (execute,) = trace.find("execute")
        assert execute.attrs["energy_j"] > 0.0
        assert execute.attrs["reconfigurations_avoided"] > 0
        (respond,) = trace.find("respond")
        assert respond.attrs["status"] == "ok"
        assert respond.attrs["latency_s"] > 0.0


def test_trace_differential_stage_means_match_metrics(traced_service):
    """The acceptance check: per-stage compute means reconstructed from
    deduplicated trace spans equal the runtime's stage_*_s histograms."""
    _, traces, snapshot = traced_service
    means = stage_compute_means(traces)
    observed = {
        name[len("stage_"):-len("_s")]: summary
        for name, summary in snapshot["histograms"].items()
        if name.startswith("stage_") and name.endswith("_s")
    }
    assert set(means) == set(observed) == {"frontend", "amp_phase", "capacity", "filter"}
    for stage, summary in observed.items():
        assert means[stage] == pytest.approx(summary["mean"], rel=1e-9), stage
        # And the span count agrees with the histogram's observation count.
        assert stage_breakdown(traces)["stages"][stage]["compute"]["count"] == summary["count"]


def test_vector_engine_emits_kernel_spans(traced_service):
    by_id, _, _ = traced_service
    for trace in by_id.values():
        kernels = [s for s in trace.spans if s.name.startswith("kernel:")]
        assert {s.name for s in kernels} == {
            "kernel:frontend", "kernel:amp_phase", "kernel:capacity", "kernel:filter"
        }
        for span in kernels:
            assert span.depth == 3  # execute > stage:* > compute > kernel:*
            assert span.attrs["requests"] >= 1


def test_untraced_service_attaches_no_traces():
    service = FleetService(workers=1, max_batch=4, batched=True, queue_capacity=16)
    requests = synthetic_load(4, n_tanks=2)
    accepted, _ = service.submit_many(requests)
    service.start()
    assert service.await_responses(accepted, timeout_s=120)
    assert service.shutdown()
    assert all(r.trace is None for r in requests)
    assert NULL_TRACER.sink.finished == 0
    assert "trace" not in service.metrics_snapshot()


def test_retry_trace_shows_backoff_and_second_execute():
    """A device fault retries inside the batch: the trace shows the scrub
    within one execute and no broker backoff."""
    by_id, _, _ = _run_traced_service(fault_rate=1.0, seed=7)
    for trace in by_id.values():
        (respond,) = trace.find("respond")
        assert respond.attrs["status"] == "ok"
        assert respond.attrs["attempts"] == 2
        assert trace.find("seu_scrub")
        assert len(trace.find("execute")) == 1
        assert len(trace.find("queue")) == 1
        assert not trace.find("retry_wait")


def test_failed_batch_trace_shows_backoff_and_second_execute():
    """A worker error fails the whole batch: its requests retry through
    the broker, and the trace records the backoff and a second execute."""
    from repro.chaos import ChaosMonkey

    monkey = ChaosMonkey(seed=0, exec_error_rate=1.0, max_exec_errors=1)
    by_id, _, _ = _run_traced_service(chaos=monkey)
    retried = [t for t in by_id.values() if t.find("retry_wait")]
    assert retried  # the first batch failed and went back to the broker
    for trace in retried:
        (respond,) = trace.find("respond")
        assert respond.attrs["status"] == "ok"
        assert respond.attrs["attempts"] == 2
        assert len(trace.find("retry_wait")) == 1
        assert trace.find("retry_wait")[0].attrs["delay_s"] > 0.0
        assert len(trace.find("queue")) == 2
        assert trace.find("queue")[1].attrs["retry"] is True
        assert len(trace.find("execute")) == 1  # the failed one emitted none


def test_expired_request_trace_has_no_device_work():
    sink = TraceSink()
    tracer = Tracer(sink=sink)
    service = FleetService(workers=1, batched=True, queue_capacity=8, tracer=tracer)
    service.submit(
        MeasurementRequest(
            request_id=1, tank_id="tank-x", level=0.5, deadline_s=service.clock() - 1.0
        )
    )
    service.start()
    assert service.await_responses(1, timeout_s=60)
    assert service.shutdown()
    tracer.close()
    (trace,) = [t for t in sink.traces() if t.request_id == 1]
    (respond,) = trace.find("respond")
    assert respond.attrs["status"] == "expired"
    assert not trace.find("execute")  # no batch segment grafted
    assert not trace.find("reconfig")
    assert trace.find("admit") and trace.find("queue")


def test_runtime_trace_captures_construction_artifact_builds(traced_service):
    _, traces, snapshot = traced_service
    (runtime,) = [t for t in traces if t.trace_id == "runtime"]
    builds = runtime.find("artifact_build")
    assert builds, "bitstream builds during construction should be traced"
    assert all(s.attrs["kind"] == "bitstream" for s in builds)
    assert snapshot["trace"]["enabled"] is True
    assert snapshot["trace"]["finished"] >= 8


# ------------------------------------------------------------------------ CLI


def test_cli_serve_bench_trace_then_report(tmp_path, capsys):
    from repro.cli import main

    trace_path = tmp_path / "traces.jsonl"
    rc = main(
        [
            "serve-bench", "--requests", "4", "--tanks", "2", "--workers", "1",
            "--max-batch", "4", "--batched-only", "--trace", str(trace_path),
        ]
    )
    assert rc == 0
    assert trace_path.exists()
    capsys.readouterr()

    rc = main(["trace-report", str(trace_path), "--flame", "--top", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "frontend" in out and "flamegraph" in out and "slow exemplars" in out

    assert main(["trace-report", str(tmp_path / "absent.jsonl")]) == 2

    broken = tmp_path / "broken.jsonl"
    broken.write_text("{nope\n")
    assert main(["trace-report", str(broken)]) == 2
