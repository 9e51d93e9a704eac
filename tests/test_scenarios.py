"""Long-horizon scenario families and the bugs they flushed out.

Covers the PR's three satellites (watchdog wedge, discarded post-recovery
verdict, cal-ROM overflow) plus the scenario machinery itself: priority
broker insertion, wire-codec back-compat, class-aware shedding, the
thermal model/derating, the drift corrector, the per-family differential
oracles with coverage gates, shrinking, and the golden traces.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.app.calibration import CalibrationPoint, CalibrationTable
from repro.app.failsafe import (
    MeasurementWatchdog,
    RecoveryFailedError,
    SelfHealingSystem,
    WatchdogLimits,
)
from repro.scenarios import (
    DriftCorrector,
    DriftScenario,
    Entry,
    generate_drift_scenario,
    generate_priority_scenario,
    generate_thermal_scenario,
)
from repro.serve.batching import STANDARD_PIPELINE
from repro.serve.requests import (
    KIND_CALIBRATE,
    KIND_MEASURE,
    PRIORITY_ALARM,
    PRIORITY_ROUTINE,
    MeasurementRequest,
    RequestBroker,
    priority_class,
)
from repro.serve.supervisor import AdmissionController
from repro.serve.thermal import DeratingPolicy, ThermalModel, ThermalParams
from repro.shard.wire import request_from_wire, request_to_wire
from repro.verifylab import CANONICAL_SEEDS, check_golden, run_oracle, shrink
from repro.verifylab.oracle import drift_reference


def _request(rid, tank="tank-000", level=0.5, **kw):
    return MeasurementRequest(
        request_id=rid, tank_id=tank, level=level, pipeline=STANDARD_PIPELINE, **kw
    )


# ------------------------------------------------------- watchdog / recovery


class TestWatchdog:
    def test_rate_only_violation_adopts_new_level(self):
        """Regression: a genuine fast level step used to leave the stale
        level as the rate reference, so every later healthy cycle violated
        too and the self-healing loop scrubbed a clean slot forever."""
        wd = MeasurementWatchdog()
        assert wd.check(100.0, 0.2).plausible
        stepped = wd.check(100.0, 0.8)
        assert not stepped.plausible and len(stepped.violations) == 1
        # The new level became the reference: the next cycle at the new
        # level is plausible again (pre-fix it violated forever).
        assert wd.check(100.0, 0.8).plausible

    def test_combined_violation_keeps_reference(self):
        """A garbled reading (range AND rate wrong) must not become the
        rate reference — only a rate-only step is a credible process."""
        wd = MeasurementWatchdog()
        assert wd.check(100.0, 0.2).plausible
        garbled = wd.check(900.0, 0.8)
        assert len(garbled.violations) == 2
        assert wd.check(100.0, 0.2).plausible  # old reference survived
        assert not wd.check(100.0, 0.8).plausible

    def test_genuine_step_does_not_scrub_loop(self):
        healing = SelfHealingSystem(seed=3)
        healing.run_cycle(0.2)
        healing.run_cycle(0.8)  # genuine step beyond max_level_step
        recoveries_after_step = len(healing.recoveries)
        assert recoveries_after_step <= 1
        for _ in range(5):
            result = healing.run_cycle(0.8)
            assert 0.0 <= result.level_measured <= 1.0
        # No scrub loop: steady operation at the new level recovers nothing.
        assert len(healing.recoveries) == recoveries_after_step

    def test_recover_without_injected_fault_is_soft(self):
        healing = SelfHealingSystem(seed=3)
        healing.run_cycle(0.2)
        healing.run_cycle(0.8)
        if healing.recoveries:
            event = healing.recoveries[0]
            # The guard: with no resident fault there is nothing to scrub
            # a golden against — soft reload only, no scrub time charged.
            assert event.module == "(reload)"
            assert event.recovery_time_s == 0.0

    def test_post_recovery_still_implausible_raises(self):
        """Regression: the retry's verdict used to be discarded, handing a
        garbage measurement downstream as if recovery had worked."""
        limits = WatchdogLimits(capacitance_max_pf=1.0)  # nothing passes
        healing = SelfHealingSystem(limits=limits, seed=3)
        with pytest.raises(RecoveryFailedError) as exc:
            healing.run_cycle(0.5)
        assert not exc.value.verdict.plausible
        assert exc.value.verdict.violations

    def test_injected_fault_recovers(self):
        healing = SelfHealingSystem(seed=5)
        healing.run_cycle(0.5)
        healing.inject_module_fault()
        assert healing.has_active_fault
        result = healing.run_cycle(0.5)
        assert not healing.has_active_fault
        assert healing.recoveries and healing.recoveries[-1].module == "amp_phase"
        assert result.reconfig_time_s >= healing.recoveries[-1].recovery_time_s


# ----------------------------------------------------------------- cal ROM


class TestRomContents:
    def _steep_table(self):
        return CalibrationTable(
            [CalibrationPoint(10.0, 10.0), CalibrationPoint(20.0, 500.0)]
        )

    def test_strict_raises_on_saturation(self):
        """Regression: words past the ROM word width used to ship as-is
        and silently wrap in the block RAM."""
        with pytest.raises(ValueError, match="saturate"):
            self._steep_table().rom_contents(
                depth=16, raw_min_pf=10.0, raw_max_pf=20.0, word_bits=12
            )

    def test_non_strict_clamps_at_word_width(self):
        words = self._steep_table().rom_contents(
            depth=16, raw_min_pf=10.0, raw_max_pf=20.0, word_bits=12, strict=False
        )
        max_word = (1 << 12) - 1
        assert all(0 <= w <= max_word for w in words)
        assert words[-1] == max_word  # the steep end hit the ceiling

    def test_negative_extrapolation_floors_at_zero(self):
        table = CalibrationTable(
            [CalibrationPoint(10.0, 1.0), CalibrationPoint(20.0, 30.0)]
        )
        with pytest.raises(ValueError, match="saturate"):
            table.rom_contents(depth=8, raw_min_pf=0.0, raw_max_pf=20.0)
        words = table.rom_contents(
            depth=8, raw_min_pf=0.0, raw_max_pf=20.0, strict=False
        )
        assert words[0] == 0

    def test_word_width_must_exceed_frac_bits(self):
        with pytest.raises(ValueError, match="word_bits"):
            self._steep_table().rom_contents(
                depth=8, raw_min_pf=10.0, raw_max_pf=20.0, frac_bits=10, word_bits=10
            )

    def test_in_range_table_unchanged(self):
        table = CalibrationTable(
            [CalibrationPoint(40.0, 42.0), CalibrationPoint(80.0, 81.0)]
        )
        words = table.rom_contents(depth=32, raw_min_pf=40.0, raw_max_pf=80.0)
        assert len(words) == 32
        assert words[0] == round(42.0 * 1024)
        assert words[-1] == round(81.0 * 1024)


# --------------------------------------------------------------- priority


class TestPriorityBroker:
    def test_alarm_overtakes_routine_but_not_own_tank(self):
        broker = RequestBroker(capacity=16)
        for rid, tank in ((0, "t0"), (1, "t1"), (2, "t0"), (3, "t1")):
            broker.submit(_request(rid, tank))
        broker.submit(_request(99, "t9", priority=PRIORITY_ALARM))
        broker.submit(_request(100, "t0", priority=PRIORITY_ALARM))
        order = [r.request_id for r in broker._queue]
        # 99 (no same-tank backlog) jumps to the head; 100 overtakes the
        # routines but never its own tank's rid 2.
        assert order == [99, 0, 1, 2, 100, 3]

    def test_all_routine_is_plain_fifo(self):
        broker = RequestBroker(capacity=16)
        for rid in range(6):
            broker.submit(_request(rid, f"t{rid % 2}"))
        assert [r.request_id for r in broker._queue] == list(range(6))

    def test_depth_ahead_of_sees_tier_subset(self):
        broker = RequestBroker(capacity=16)
        for rid in range(4):
            broker.submit(_request(rid, f"t{rid}"))
        broker.submit(_request(9, "t9", priority=PRIORITY_ALARM))
        assert broker.depth_ahead_of(PRIORITY_ALARM) == 1
        assert broker.depth_ahead_of(PRIORITY_ROUTINE) == 5

    def test_request_validation(self):
        with pytest.raises(ValueError):
            _request(0, priority=-1)
        with pytest.raises(ValueError):
            _request(0, kind="bogus")
        assert priority_class(PRIORITY_ALARM) == "alarm"
        assert priority_class(PRIORITY_ROUTINE) == "routine"

    def test_wire_round_trip_carries_priority_and_kind(self):
        request = _request(7, "t3", priority=PRIORITY_ALARM, kind=KIND_CALIBRATE)
        decoded = request_from_wire(request_to_wire(request))
        assert decoded.priority == PRIORITY_ALARM
        assert decoded.kind == KIND_CALIBRATE

    def test_wire_decode_of_legacy_request_defaults(self):
        """Frames from a pre-tier peer carry neither field; they must
        decode as routine measurements, not explode."""
        data = request_to_wire(_request(7, "t3"))
        data.pop("priority")
        data.pop("kind")
        decoded = request_from_wire(data)
        assert decoded.priority == PRIORITY_ROUTINE
        assert decoded.kind == KIND_MEASURE

    def test_shed_alarm_implies_shed_routine(self):
        """The class-aware invariant: with effective (tier-subset) depths
        an alarm is never shed while an equal-deadline routine request
        would be admitted."""
        admission = AdmissionController(workers=1)
        admission.observe_batch(1, 1.0)  # 1 s per request
        broker = RequestBroker(capacity=16)
        for rid in range(5):
            broker.submit(_request(rid, f"t{rid}"))
        broker.submit(_request(9, "t9", priority=PRIORITY_ALARM))
        now, deadline = 100.0, 103.0
        routine_depth = broker.depth_ahead_of(PRIORITY_ROUTINE)
        alarm_depth = broker.depth_ahead_of(PRIORITY_ALARM)
        assert admission.should_shed(deadline, now, routine_depth, PRIORITY_ROUTINE)
        assert not admission.should_shed(deadline, now, alarm_depth, PRIORITY_ALARM)
        # An already-expired submit still flows through (answered expired).
        assert not admission.should_shed(now - 1.0, now, routine_depth)


# ----------------------------------------------------------------- thermal


class TestThermal:
    def test_step_size_never_changes_trajectory(self):
        params = ThermalParams(ambient_c=25.0, r_theta_c_per_w=40.0, tau_s=0.5)
        one, two = ThermalModel(params), ThermalModel(params)
        one.advance(2.0, 1.0)
        one.advance(2.0, 1.0)
        two.advance(2.0, 2.0)
        assert math.isclose(one.temperature_c, two.temperature_c, rel_tol=1e-12)

    def test_converges_to_thermal_target(self):
        model = ThermalModel(ThermalParams(25.0, 40.0, 0.5))
        for _ in range(100):
            model.advance(2.0, 1.0)
        assert math.isclose(model.temperature_c, 25.0 + 2.0 * 40.0, rel_tol=1e-6)

    def test_runaway_clamps_at_shutdown(self):
        """Leakage doubles per 25 degC, so an undamped loop runs away until
        ``2**((T-25)/25)`` overflows; the junction clamps at the
        over-temperature shutdown point instead."""
        model = ThermalModel(ThermalParams(50.0, 1000.0, 0.01))
        for _ in range(50):
            model.advance(100.0, 1.0)
        assert model.temperature_c <= ThermalParams().shutdown_c
        assert math.isclose(
            model.temperature_c, ThermalParams().shutdown_c, rel_tol=1e-9
        )

    def test_derating_scale(self):
        policy = DeratingPolicy(derate_at_c=60.0, max_at_c=85.0, min_fraction=0.25)
        assert policy.scale(59.0) == 1.0
        assert policy.scale(60.0) == 1.0
        assert policy.scale(90.0) == 0.25
        assert math.isclose(policy.scale(72.5), 0.625, rel_tol=1e-12)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ThermalParams(tau_s=0.0)
        with pytest.raises(ValueError):
            ThermalParams(ambient_c=130.0, shutdown_c=125.0)
        with pytest.raises(ValueError):
            DeratingPolicy(derate_at_c=90.0, max_at_c=85.0)
        with pytest.raises(ValueError):
            DeratingPolicy(min_fraction=0.0)


# ------------------------------------------------------------------- drift


def _handcrafted_drift(recalibrate: bool) -> DriftScenario:
    tank = "tank-000"
    entries = []
    for t in range(21):
        if t == 10 and recalibrate:
            entries.append(Entry(tank, 0.5, kind=KIND_CALIBRATE))
        else:
            entries.append(Entry(tank, 0.3 + 0.02 * (t % 5)))
    return DriftScenario(
        seed=5,
        entries=tuple(entries),
        drift_rates=((tank, 0.004),),
        max_batch=4,
        noise_rms=0.0,
    )


class TestDrift:
    def test_corrector_is_deterministic(self):
        scenario = generate_drift_scenario(3)
        first = drift_reference(scenario)
        second = drift_reference(scenario)
        assert first == second

    def test_recalibration_reduces_residual(self):
        """The family's reason to exist: without recalibration the
        installation-time table mis-maps late drifted readings; a mid-run
        recalibration pulls them back to truth."""
        drifting = _handcrafted_drift(recalibrate=True)
        control = _handcrafted_drift(recalibrate=False)

        def late_error(scenario):
            expected = drift_reference(scenario)
            truth = {i: e.level for i, e in enumerate(scenario.entries)
                     if e.kind == KIND_MEASURE}
            late = [rid for rid in truth if rid > 10]
            return sum(abs(expected[rid].level - truth[rid]) for rid in late) / len(late)

        # The mid-run recalibration roughly halves the accumulated-drift
        # error over the late window (drift keeps accruing after it, so
        # the residual never reaches zero).
        assert late_error(drifting) < 0.75 * late_error(control)

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="drift rate"):
            DriftScenario(
                seed=0,
                entries=(Entry("tank-000", 0.5),),
                drift_rates=(("other", 0.001),),
            )
        with pytest.raises(ValueError, match="kind"):
            DriftScenario(
                seed=0,
                entries=(Entry("tank-000", 0.5, kind="bogus"),),
                drift_rates=(("tank-000", 0.001),),
            )

    def test_generated_scenarios_always_recalibrate(self):
        for seed in range(12):
            assert generate_drift_scenario(seed).calibrate_ids()


# -------------------------------------------------- oracle / shrink / golden


class TestScenarioOracle:
    def test_drift_family_exact_with_coverage(self):
        report = run_oracle([3], family="drift")
        assert report.ok, report.violations
        assert report.checks[0].coverage["recalibrations"] >= 1
        assert report.max_deviation()["level"] == 0.0
        assert report.max_deviation()["capacitance_pf"] == 0.0

    def test_thermal_family_exact_with_coverage(self):
        report = run_oracle([3], family="thermal")
        assert report.ok, report.violations
        coverage = report.checks[0].coverage
        knee = report.checks[0].scenario.derating.derate_at_c
        assert coverage["hottest_c"] > knee
        assert coverage["derate_events"] >= 1

    def test_priority_family_exact_with_coverage(self):
        report = run_oracle([3], family="priority")
        assert report.ok, report.violations
        coverage = report.checks[0].coverage
        assert coverage["overtakes"] >= 1
        assert coverage["alarm_latencies_recorded"] == coverage["alarms"]

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="family"):
            run_oracle([0], family="voltage")

    def test_shrink_minimizes_failing_scenario(self):
        scenario = generate_priority_scenario(3)
        assert scenario.n_requests > 4
        shrunk = shrink(scenario, lambda s: s.n_requests >= 4)
        assert shrunk.n_requests == 4

    def test_shrink_rejects_passing_scenario(self):
        scenario = generate_thermal_scenario(3)
        with pytest.raises(ValueError, match="failing"):
            shrink(scenario, lambda s: False)

    def test_shrink_skips_invalid_candidates(self):
        # A 1-entry scenario offers no drop moves (an empty one is
        # invalid), and the single-tank move keeps the first tank, whose
        # drift rate the scenario carries: no candidate breaks validation.
        scenario = generate_drift_scenario(5)
        shrunk = shrink(scenario, lambda s: s.n_requests >= 1)
        assert shrunk.n_requests == 1

    def test_shrink_reports_a_crash_on_a_candidate(self):
        scenario = generate_priority_scenario(3)

        def fails(candidate):
            if candidate is not scenario:
                raise RuntimeError("checker crashed on a candidate")
            return True

        with pytest.raises(RuntimeError, match="checker crashed"):
            shrink(scenario, fails)


def test_scenario_golden_traces_match():
    families = ("drift", "thermal", "priority")
    assert check_golden(seeds={f: CANONICAL_SEEDS[f] for f in families}) == []
