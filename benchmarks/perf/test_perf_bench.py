"""Tests of the serving-ledger benchmark.

Run from the repository root with::

    PYTHONPATH=src python -m pytest benchmarks/perf -q

The smoke runs use a 1 s window, so the numbers they produce are checked
for shape and consistency only, never for speed.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workload  # noqa: E402
from spans import TARGETS, Span, SpanRecorder, Target, self_times  # noqa: E402

from repro.serve import MeasurementResponse  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PASSES = [(w, trace) for w in workload.WORKLOADS for trace in (0, 1)]


def invoke(args, cwd=ROOT, env=None, timeout=170):
    return subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One pass of every workload with a 1 s window, one invocation per
    workload and pass: (last stdout line, result JSON)."""
    out = {}
    for name, trace in PASSES:
        directory = tmp_path_factory.mktemp(f"{name}-{trace}")
        proc = invoke(
            ["--workload", name, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--out", str(directory)]
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        result = json.loads((directory / "result.json").read_text(encoding="utf-8"))
        out[name, trace] = (json.loads(proc.stdout.strip().splitlines()[-1]), result)
    return out


@pytest.mark.parametrize("name,trace", PASSES)
def test_smoke_pass_is_correct(smoke, name, trace):
    line, result = smoke[name, trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    (record,) = result["runs"]
    assert record["problems"] == []
    assert result["host"]["nproc"] >= 1 and result["host"]["native"]


@pytest.mark.parametrize("name,trace", PASSES)
def test_printed_metrics_are_exactly_the_declared_ones(smoke, name, trace):
    line, _ = smoke[name, trace]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {metric: entry["unit"] for metric, entry in line["metrics"].items()}
    assert printed == declared
    for entry in line["metrics"].values():
        assert isinstance(entry["value"], float)


def test_every_end_to_end_metric_is_nonzero(smoke):
    for name in workload.WORKLOADS:
        line, _ = smoke[name, 0]
        assert all(entry["value"] > 0 for entry in line["metrics"].values()), name


@pytest.mark.parametrize("name", ["closed_hot", "tcp_open"])
def test_kernel_spans_agree_with_stage_histograms(smoke, name):
    line, result = smoke[name, 1]
    pairs = result["runs"][0]["checks"]["kernel_vs_stage_ms"]
    assert set(pairs) == {"frontend", "amp_phase", "capacity", "filter"}
    for stage, pair in pairs.items():
        kernel = line["metrics"][f"kernels.{stage}_ms"]["value"]
        # stage_*_s also times the executor's fault-triage loop around the
        # kernel call: a few tens of microseconds, which only the
        # sub-millisecond stages notice.
        assert abs(kernel - pair["stage"]) <= max(0.05 * pair["stage"], 0.05), (stage, pair)


def test_in_process_passes_account_for_latency(smoke):
    for name in workload.WORKLOADS:
        metrics = smoke[name, 1][0]["metrics"]
        assert 0.5 < metrics["serve.accounted_frac"]["value"] <= 1.05
        assert metrics["serve.execute_self_ms"]["value"] > 0
    tcp = smoke["tcp_open", 1][0]["metrics"]
    assert tcp["net.decode_us_per_req"]["value"] > 0
    assert tcp["net.encode_us_per_resp"]["value"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "parent", 0.0, 10.0, None, "t", None),
        Span(2, "child", 1.0, 3.0, 1, "t", None),
        Span(3, "child", 2.0, 5.0, 1, "t", None),  # overlaps its sibling
        Span(4, "child", 8.0, 12.0, 1, "t", None),  # clipped to the parent
        Span(5, "grandchild", 1.5, 2.0, 2, "t", None),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0 - 0.5)
    assert selfs[5] == pytest.approx(0.5)


def _originals():
    out = {}
    for target in TARGETS:
        owner = importlib.import_module(target.module)
        *outer, attr = target.path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out[target.module, target.path] = vars(owner)[attr]
    return out


def test_traced_pass_restores_the_original_functions():
    before = _originals()
    result = workload.run("closed_hot", 1, 0.6, "traced", None)
    assert result["problems"] == []
    assert result["metrics"]["serve.execute_ms_mean"] > 0
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_recorder_nests_spans_and_restores_own_and_inherited_methods():
    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return 7

    class Derived(Layer):
        pass

    module = types.ModuleType("perf_bench_fake_layer")
    module.Layer, module.Derived = Layer, Derived
    targets = [
        Target(module.__name__, "Layer.outer", "outer"),
        # Inherited, and recorded only inside a recorded root.
        Target(module.__name__, "Derived.inner", "inner", root=False),
    ]
    original = vars(Layer)["outer"]
    recorder = SpanRecorder()
    sys.modules[module.__name__] = module
    try:
        recorder.install(targets)
        with pytest.raises(RuntimeError):
            recorder.install(targets)
        assert Derived().outer() == 7
        assert Derived().inner() == 7  # not under a root: no span
        recorder.stop()
        assert Derived().outer() == 7  # stopped: no new root
        assert recorder.idle
    finally:
        recorder.restore()
        del sys.modules[module.__name__]
    assert vars(Layer)["outer"] is original
    assert "inner" not in vars(Derived)
    inner, outer = recorder.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.span_id and outer.parent is None


def test_gate_flags_lost_requests_and_wrong_capacitance():
    obs = workload.Observed()
    window = workload.Window(0.0, 10.0)
    c = workload.TANK.capacitance_pf
    for rid, level in enumerate((0.2, 0.5, 0.8)):
        obs.sent(rid, 3.0, f"tank-{rid:03d}", level)
    obs.answer(MeasurementResponse(0, "tank-000", "ok", capacitance_pf=c(0.2)), 3.1)
    obs.answer(MeasurementResponse(1, "tank-001", "ok", capacitance_pf=1.2 * c(0.5)), 3.1)
    obs.answer(MeasurementResponse(1, "tank-001", "ok", capacitance_pf=c(0.5)), 3.2)
    problems = workload.gate(obs, window)
    assert any("duplicate" in p for p in problems)
    assert any("never settled" in p for p in problems)
    assert any("capacitances off" in p for p in problems)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.verdict(base, [100.0] * 5, "lower", 0.1)[2] == "ok"
    assert run.verdict(base, [120.0] * 5, "lower", 0.1)[2] == "regressed"
    assert run.verdict(base, [80.0] * 5, "higher", 0.1)[2] == "regressed"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert run.verdict(noisy, [101.0] * 5, "lower", 0.1)[2] == "unresolved"
    assert run.verdict(noisy, [50.0] * 5, "lower", 0.1)[2] == "ok"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = invoke(
        ["--workload", "closed_hot", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
