"""Tests of the correctness harness (repro.verifylab)."""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.verifylab import (
    FAMILIES,
    UNSUPPORTED,
    FaultIntensity,
    ToleranceSpec,
    build_trace,
    campaign_scenario,
    check_golden,
    check_scenario,
    generate_fault_scenario,
    generate_scenario,
    retarget_single_tank,
    run_campaign,
    run_fuzz,
    run_oracle,
    shrink,
    write_golden,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


# ----------------------------------------------------------------- scenarios


class TestScenarios:
    def test_generation_is_deterministic(self):
        assert generate_scenario(7) == generate_scenario(7)
        assert generate_scenario(7) != generate_scenario(8)

    def test_generated_requests_are_valid(self):
        scenario = generate_scenario(3)
        requests = scenario.requests()
        assert [r.request_id for r in requests] == list(range(scenario.n_requests))
        assert all(0.05 <= r.level <= 0.95 for r in requests)
        assert scenario.circuit.tank.c_full_pf > scenario.circuit.tank.c_empty_pf
        assert set(r.tank_id for r in requests) == set(scenario.tank_ids)

    def test_to_dict_is_json_ready(self):
        payload = json.dumps(generate_scenario(1).to_dict())
        assert "entries" in payload and "circuit" in payload

    def test_retarget_single_tank(self):
        scenario = generate_scenario(11)
        assert len(scenario.tank_ids) > 1
        collapsed = retarget_single_tank(scenario)
        assert len(collapsed.tank_ids) == 1
        assert collapsed.n_requests == scenario.n_requests

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(generate_scenario(0), entries=())

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", range(10))
    def test_shrink_candidates_are_strictly_simpler(self, family, seed):
        """Every shrink move builds a valid scenario of the parent's type
        that is smaller on at least one axis and larger on none."""

        def size(s):
            return (
                s.n_requests,
                len(s.tank_ids),
                s.max_batch,
                s.noise_rms,
                len(s.alarm_ids()),
                sum(rate != 0.0 for _t, rate in getattr(s, "drift_rates", ())),
            )

        scenario = FAMILIES[family].generate(seed)
        parent = size(scenario)
        candidates = scenario.shrink_candidates()
        assert candidates
        for candidate in candidates:
            assert type(candidate) is type(scenario)
            child = size(candidate)
            assert any(c < p for c, p in zip(child, parent)), (parent, child)
            assert all(c <= p for c, p in zip(child, parent)), (parent, child)


# -------------------------------------------------------------------- oracle


class TestOracle:
    def test_sweep_has_zero_violations(self):
        report = run_oracle(range(3))
        assert report.ok and not report.violations
        deviations = report.max_deviation()
        # Same arithmetic in the same order: the module path agrees exactly.
        assert deviations["level"] == 0.0
        assert deviations["capacitance_pf"] == 0.0
        # The dsp ground truth differs only by declared quantization.
        assert 0.0 < deviations["dsp_level"] < ToleranceSpec().dsp_level_abs

    def test_report_shape(self):
        report = run_oracle(range(2))
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["seeds_checked"] == 2
        assert payload["requests_checked"] >= 2
        assert set(payload["max_deviation"]) == {"level", "capacitance_pf", "dsp_level"}
        assert len(payload["per_seed"]) == 2

    def test_zero_tolerance_reports_violation(self):
        # The dsp path legitimately deviates by the fixed-point grid; a
        # zero tolerance must surface that as a per-field violation.
        tolerances = ToleranceSpec(dsp_level_abs=0.0)
        check = check_scenario(generate_scenario(0), tolerances=tolerances)
        assert not check.ok
        assert any("dsp_level" in v for v in check.violations)
        assert all("capacitance_pf" not in v for v in check.violations)


# -------------------------------------------------------------------- matrix


class TestMatrix:
    @pytest.mark.parametrize(
        "transport,family", [("shard", "priority"), ("net", "thermal")]
    )
    def test_new_cells_are_exact_with_coverage(self, transport, family):
        report = run_oracle([3], family=family, transport=transport)
        assert report.ok, report.violations
        deviations = report.max_deviation()
        assert deviations["level"] == 0.0
        assert deviations["capacitance_pf"] == 0.0
        coverage = report.checks[0].coverage
        if family == "priority":
            assert coverage["overtakes"] >= 1
            assert coverage["alarm_latencies_recorded"] == coverage["alarms"]
        else:
            knee = report.checks[0].scenario.derating.derate_at_c
            assert coverage["hottest_c"] > knee
            assert coverage["derate_events"] >= 1

    def test_unsupported_cells_raise_with_their_reason(self, capsys):
        for (transport, axis), reason in UNSUPPORTED.items():
            cell = {"family": axis} if axis in FAMILIES else {"policy": axis}
            with pytest.raises(ValueError) as excinfo:
                run_oracle([0], transport=transport, **cell)
            assert reason in str(excinfo.value)
        rc = cli_main(["verifylab", "oracle", "--family", "drift", "--transport", "net"])
        assert rc == 2
        assert UNSUPPORTED[("net", "drift")] in capsys.readouterr().err

    def test_report_names_the_cell_it_ran(self):
        payload = run_oracle(
            [0], family="plain", transport="local", policy="energy"
        ).to_dict()
        assert (payload["family"], payload["transport"], payload["policy"]) == (
            "plain",
            "local",
            "energy",
        )
        assert "engine" not in payload


# -------------------------------------------------------------- fault oracle


class TestFaultOracle:
    def test_fault_scenarios_are_deterministic_one_request_per_tank(self):
        scenario = generate_fault_scenario(4)
        assert scenario == generate_fault_scenario(4)
        tank_ids = [entry.tank_id for entry in scenario.entries]
        assert len(tank_ids) == len(set(tank_ids))
        assert scenario.max_batch >= 2

    def test_mixed_sweep_is_exact(self):
        """A batch mixing faulted and clean requests is served bit-exactly
        by the batch kernels — faulted requests retried in-batch as extra
        lanes, not scrubbed out to a per-request side path."""
        report = run_oracle(range(4), family="faults")
        assert report.ok, report.violations
        # The sweep genuinely mixed outcomes, else it proved nothing.
        assert sum(c.coverage["clean_ok"] for c in report.checks) > 0
        assert sum(c.coverage["faulted_ok"] for c in report.checks) > 0
        deviations = report.max_deviation()
        assert deviations["level"] == 0.0
        assert deviations["capacitance_pf"] == 0.0
        assert 0.0 < deviations["dsp_level"] < ToleranceSpec().dsp_level_abs

    def test_shared_tank_scenario_rejected_for_replay(self):
        from repro.serve.batching import FaultInjector
        from repro.verifylab.oracle import ReferenceExecutor

        scenario = retarget_single_tank(generate_scenario(11))
        with pytest.raises(ValueError, match="one request per tank"):
            ReferenceExecutor(scenario).run(FaultInjector(0.3, seed=11))

    def test_report_shape(self):
        report = run_oracle(range(2), family="faults")
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["seeds_checked"] == 2
        outcomes = [seed["coverage"] for seed in payload["per_seed"]]
        assert sum(
            o["clean_ok"] + o["faulted_ok"] + o["failed"] for o in outcomes
        ) == payload["requests_checked"]


# ---------------------------------------------------------------------- fuzz


class TestFuzz:
    def test_clean_sweep(self):
        report = run_fuzz(range(2), max_requests=6)
        assert report.ok
        assert report.seeds_run == 2
        assert report.to_dict()["failures"] == []

    def test_shrink_finds_minimal_reproducer(self):
        scenario = generate_scenario(11)  # multi-tank, several requests
        assert scenario.n_requests >= 3

        # Synthetic failure: any scenario containing a request above the
        # highest-but-one level.  Minimal reproducer = exactly one request.
        threshold = sorted(entry.level for entry in scenario.entries)[-2]
        fails = lambda s: any(entry.level > threshold for entry in s.entries)

        assert fails(scenario)
        minimal = shrink(scenario, fails)
        assert fails(minimal)
        assert minimal.n_requests == 1
        assert minimal.max_batch == 1
        assert minimal.noise_rms == 0.0

    def test_shrink_requires_a_failing_start(self):
        with pytest.raises(ValueError):
            shrink(generate_scenario(0), lambda s: False)


# ------------------------------------------------------------------ campaign


class TestCampaign:
    def test_certain_single_fault_always_recovers(self):
        intensity = FaultIntensity("all", rate=1.0, burst=2, retry_rate=0.0)
        report = run_campaign(
            intensities=(intensity,), requests=5, seed=1, max_attempts=3
        )
        (result,) = report["intensities"]
        assert result["faulted"] == 5
        assert result["recovered"] == 5
        assert result["failed"] == 0
        assert result["recovery_rate"] == 1.0
        assert result["retries_consumed"] == 5
        assert result["faults_injected"] == 5
        assert result["seu_bits_flipped"] == 10
        integrity = result["integrity"]
        assert integrity["matching"] == integrity["checked"] == 5
        assert integrity["max_level_deviation"] == 0.0
        assert report["ok"]

    def test_persistent_faults_exhaust_attempts(self):
        intensity = FaultIntensity("storm", rate=1.0, burst=1, retry_rate=1.0)
        report = run_campaign(
            intensities=(intensity,), requests=4, seed=2, max_attempts=2
        )
        (result,) = report["intensities"]
        assert result["failed"] == 4
        assert result["recovery_rate"] == 0.0
        # Nothing was served, so integrity has nothing to check — still ok.
        assert result["integrity"]["checked"] == 0
        assert report["ok"]

    def test_campaign_workload_is_noise_free_and_tank_per_request(self):
        scenario = campaign_scenario(6, seed=0)
        assert scenario.noise_rms == 0.0
        assert len(scenario.tank_ids) == scenario.n_requests == 6

    def test_report_is_json_ready(self, tmp_path):
        from repro.verifylab import write_report

        report = run_campaign(
            intensities=(FaultIntensity("low", 0.5, 1, 0.0),), requests=3, seed=0
        )
        out = tmp_path / "campaign.json"
        write_report(report, str(out))
        assert json.loads(out.read_text())["ok"] is True


# -------------------------------------------------------------------- golden


class TestGolden:
    def test_committed_traces_match(self):
        """The regression gate: the committed snapshots must reproduce."""
        drift = check_golden(GOLDEN_DIR)
        assert drift == []

    def test_update_then_check_roundtrip(self, tmp_path):
        write_golden(tmp_path, seeds={"plain": (5,)})
        assert check_golden(tmp_path, seeds={"plain": (5,)}) == []

    def test_drift_is_loud(self, tmp_path):
        (path,) = write_golden(tmp_path, seeds={"plain": (5,)})
        trace = json.loads(path.read_text())
        trace["responses"][0]["level_measured"] += 0.25
        path.write_text(json.dumps(trace))
        drift = check_golden(tmp_path, seeds={"plain": (5,)})
        assert len(drift) == 1
        assert "level_measured" in drift[0] and "tolerance" in drift[0]

    def test_stale_header_is_reported(self, tmp_path):
        """A committed ``scenario`` header that no longer matches the
        scenario's ``to_dict()`` is drift, even when every response
        still matches."""
        shutil.copytree(GOLDEN_DIR, tmp_path / "golden")
        path = tmp_path / "golden" / "verifylab_seed_011.json"
        trace = json.loads(path.read_text())
        trace["scenario"]["max_batch"] += 1
        path.write_text(json.dumps(trace))
        drift = check_golden(tmp_path / "golden", seeds={"plain": (11,)})
        assert len(drift) == 1
        assert "scenario header: max_batch" in drift[0]

    def test_missing_trace_reported(self, tmp_path):
        drift = check_golden(tmp_path, seeds={"plain": (5,)})
        assert len(drift) == 1 and "no golden trace" in drift[0]

    def test_trace_shape(self):
        trace = build_trace("plain", 5)
        assert trace["seed"] == 5
        assert trace["scenario"]["n_requests"] == len(trace["responses"])
        first = trace["responses"][0]
        assert first["status"] == "ok" and first["level_measured"] is not None


# ----------------------------------------------------------------------- CLI


class TestCli:
    def test_oracle_emits_json_and_passes(self, capsys):
        assert cli_main(["verifylab", "oracle", "--seeds", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["seeds_checked"] == 2

    def test_fuzz_emits_json_and_passes(self, capsys):
        assert cli_main(["verifylab", "fuzz", "--seeds", "1", "--max-requests", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["seeds_run"] == 1

    def test_fault_oracle_cli_passes(self, capsys):
        rc = cli_main(["verifylab", "oracle", "--seeds", "2", "--family", "faults"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        outcomes = [seed["coverage"] for seed in payload["per_seed"]]
        assert sum(o["faulted_ok"] for o in outcomes) > 0
        assert sum(o["clean_ok"] for o in outcomes) > 0

    def test_campaign_emits_json_and_writes_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = cli_main(
            ["verifylab", "campaign", "--requests", "4", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and len(payload["intensities"]) == 3
        assert payload["intensities"][0]["recovery_rate"] >= 0.9
        assert json.loads(out.read_text()) == payload

    def test_golden_check_passes_on_committed_traces(self, capsys):
        assert cli_main(["verifylab", "golden", "--dir", str(GOLDEN_DIR)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["drift"] == []

    def test_golden_update_writes_to_dir(self, capsys, tmp_path):
        assert cli_main(["verifylab", "golden", "--update", "--dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["seeds"]["plain"]) == 3
        # One trace per (family, canonical seed).
        assert len(payload["updated"]) == sum(
            len(s) for s in payload["seeds"].values()
        )
        assert cli_main(["verifylab", "golden", "--dir", str(tmp_path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve"],
            ["verifylab", "oracle"],
            ["verifylab", "fuzz"],
            ["shard-chaos"],
        ],
    )
    def test_help_lists_no_engine_option(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv + ["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "usage:" in out and "--engine" not in out
