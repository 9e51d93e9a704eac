"""Tests for measurement calibration and the timing-constrained power
optimizer."""

import dataclasses

import numpy as np
import pytest

from repro.app import calibration
from repro.app.calibration import (
    CalibrationPoint,
    CalibrationTable,
    calibrate,
    calibrated_level,
)
from repro.app.dsp import level_from_capacity, process_measurement
from repro.app.frontend import AnalogFrontEnd
from repro.fabric.device import get_device
from repro.netlist.generate import random_netlist
from repro.par.design import Design
from repro.par.placer import PlacerOptions, place
from repro.par.power_opt import optimize_nets
from repro.par.router import route


class TestCalibrationTable:
    def test_interpolation(self):
        table = CalibrationTable(
            [CalibrationPoint(100.0, 110.0), CalibrationPoint(200.0, 190.0)]
        )
        assert table.apply(100.0) == pytest.approx(110.0)
        assert table.apply(150.0) == pytest.approx(150.0)
        assert table.apply(200.0) == pytest.approx(190.0)

    def test_extrapolation(self):
        table = CalibrationTable(
            [CalibrationPoint(100.0, 100.0), CalibrationPoint(200.0, 210.0)]
        )
        assert table.apply(300.0) == pytest.approx(320.0)
        assert table.apply(0.0) == pytest.approx(-10.0)

    def test_residual_zero_at_points(self):
        table = CalibrationTable(
            [CalibrationPoint(r, r * 1.1) for r in (50.0, 150.0, 400.0)]
        )
        assert table.max_residual_pf() == pytest.approx(0.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="2 calibration points"):
            CalibrationTable([CalibrationPoint(1.0, 1.0)])
        with pytest.raises(ValueError, match="distinct"):
            CalibrationTable([CalibrationPoint(1.0, 1.0), CalibrationPoint(1.0, 2.0)])

    def test_rom_contents(self):
        table = CalibrationTable(
            [CalibrationPoint(100.0, 100.0), CalibrationPoint(200.0, 200.0)]
        )
        words = table.rom_contents(16, 100.0, 200.0, frac_bits=4)
        assert len(words) == 16
        assert words[0] == 100 * 16
        assert words[-1] == 200 * 16
        with pytest.raises(ValueError):
            table.rom_contents(1, 100.0, 200.0)


class TestCalibrationFlow:
    def test_calibration_reduces_error(self, monkeypatch):
        """Calibration cancels a known systematic error of the chain: with
        every raw reading distorted to 1.08 c + 5 pF (a gain error plus a
        stray capacitance), the corrected readings beat the raw ones on
        average over a level sweep.  On the undistorted chain the residual
        bias is below the readings' noise, so there calibration wins on
        only a minority of seeds."""

        def distorted(*args, **kwargs):
            outcome = process_measurement(*args, **kwargs)
            c_pf = 1.08 * outcome.capacitance_pf + 5.0
            return dataclasses.replace(
                outcome, capacitance_pf=c_pf, level=level_from_capacity(c_pf, args[4])
            )

        monkeypatch.setattr(calibration, "process_measurement", distorted)
        frontend = AnalogFrontEnd(seed=21)
        table = calibrate(frontend, levels=(0.1, 0.3, 0.5, 0.7, 0.9), repeats=2)
        raw_errors = []
        cal_errors = []
        for level in (0.2, 0.4, 0.6, 0.8):
            raw, corrected = calibrated_level(frontend, table, level)
            raw_errors.append(abs(raw - level))
            cal_errors.append(abs(corrected - level))
        assert np.mean(cal_errors) < np.mean(raw_errors)
        # Noise on individual readings bounds what calibration can do.
        assert max(cal_errors) < 0.06

    def test_calibrate_validation(self):
        frontend = AnalogFrontEnd(seed=1)
        with pytest.raises(ValueError):
            calibrate(frontend, levels=(0.5,))


class TestTimingConstrainedOptimization:
    @pytest.fixture
    def design(self):
        dev = get_device("XC3S200")
        nl = random_netlist("tc", 100, seed=13)
        placement = place(nl, dev, options=PlacerOptions(steps=12, seed=5))
        routing = route(nl, placement, dev)
        return Design(nl, dev, placement=placement, routed_nets=routing.nets, graph=routing.graph)

    def test_constraint_respected(self, design):
        budget_ns = 2.0
        result = optimize_nets(design, clock_mhz=50.0, top_n=8, max_net_delay_ns=budget_ns)
        # Every net the optimizer touched still meets the bound.
        for record in result.records:
            if record.accepted:
                routed = design.routed_nets[record.net]
                assert routed.delay_ns() <= budget_ns + 1e-9

    def test_tight_constraint_blocks_more_moves(self):
        def run(budget):
            dev = get_device("XC3S200")
            nl = random_netlist("tc", 100, seed=13)
            placement = place(nl, dev, options=PlacerOptions(steps=12, seed=5))
            routing = route(nl, placement, dev)
            design = Design(nl, dev, placement=placement, routed_nets=routing.nets, graph=routing.graph)
            return optimize_nets(design, clock_mhz=50.0, top_n=8, max_net_delay_ns=budget)

        loose = run(None)
        tight = run(0.3)  # barely one direct hop
        assert tight.accepted_count <= loose.accepted_count
        assert tight.routing_power_after_w >= loose.routing_power_after_w - 1e-12
