"""Cross-module integration tests: the flows the paper's evaluation runs,
end to end."""

import io

import pytest

from repro.activity import annotate_netlist, toggle_rates, vcd_from_simulator
from repro.activity.vcd import parse_vcd
from repro.app.system import FpgaReconfigSystem, FpgaSoftwareSystem
from repro.core.par_power import run_power_aware_flow
from repro.fabric.device import get_device
from repro.netlist.blocks import BlockFootprint, block_netlist
from repro.netlist.netlist import Netlist
from repro.par.placer import PlacerOptions
from repro.reconfig.ports import Icap
from repro.sim.events import Simulator


class TestSimulationToPowerFlow:
    """The full §4.3 chain: simulate -> VCD -> communication rates ->
    netlist annotation -> PAR -> power optimization."""

    def test_full_chain(self):
        # 1. Build a design whose activity we know: three counters of very
        #    different toggle rates feeding combinational logic.
        sim = Simulator(trace=True)
        clk = sim.clock("clk", period_ns=20)
        fast = sim.signal("fast", width=4)
        slow = sim.signal("slow", width=12)
        clk.on_rising_edge(lambda: fast.set((fast.value + 1) & 0xF))
        clk.on_rising_edge(lambda: slow.set((slow.value + 1) & 0xFFF))
        sim.run(us=20)

        # 2. Dump and re-parse the VCD, extract communication rates.
        buf = io.StringIO()
        vcd_from_simulator(sim, buf)
        report = toggle_rates(parse_vcd(buf.getvalue()), clock_period_ps=20_000)
        assert report.get("fast") > report.get("slow")

        # 3. Annotate a netlist whose nets carry those signal names.
        from repro.netlist.cells import SLICE_LOGIC, SLICE_REG

        nl = Netlist("chain")
        a = nl.add_cell("a", SLICE_REG)
        b = nl.add_cell("b", SLICE_REG)
        c = nl.add_cell("c", SLICE_LOGIC)
        d = nl.add_cell("d", SLICE_LOGIC)
        nl.add_net("fast", a, [c, d])
        nl.add_net("slow", b, [c])
        nl.add_net("glue", c, [d])
        matched = annotate_netlist(nl, report)
        assert matched == 2
        assert nl.net("fast").activity > nl.net("slow").activity

        # 4. Run the power-aware flow on a realistic block carrying the
        #    same heavy-tailed activity shape.
        block = block_netlist(BlockFootprint("blk", slices=90, mean_activity=0.1), seed=3)
        result = run_power_aware_flow(
            block,
            get_device("XC3S200"),
            clock_mhz=50.0,
            top_n=6,
            placer_options=PlacerOptions(steps=10),
        )
        assert result.power_after.routing_w <= result.power_before.routing_w
        hottest = [r.activity for r in result.optimization.records]
        assert hottest == sorted(hottest, reverse=True)


class TestMeasurementConsistency:
    """Software and reconfigurable-hardware systems must agree on the
    measured level — same algorithms, different substrates."""

    def test_sw_vs_hw_agreement(self):
        level = 0.42
        sw = FpgaSoftwareSystem()
        hw = FpgaReconfigSystem(port=Icap())
        r_sw = sw.run_cycle(level)
        r_hw = hw.run_cycle(level)
        assert r_sw.level_measured == pytest.approx(r_hw.level_measured, abs=0.02)
        # And the hardware is orders of magnitude faster.
        assert r_sw.processing_time_s > 100 * r_hw.processing_time_s

    def test_filter_convergence_over_cycles(self):
        system = FpgaReconfigSystem(port=Icap())
        readings = [system.run_cycle(0.7).level_measured for _ in range(4)]
        assert readings[-1] == pytest.approx(0.7, abs=0.04)

    @staticmethod
    def _spy_loads(system, monkeypatch):
        """Record every load record the system's controller returns."""
        records = []
        load = system.controller.load

        def spy(name, slot_index):
            record = load(name, slot_index)
            records.append(record)
            return record

        monkeypatch.setattr(system.controller, "load", spy)
        return records

    def test_reconfig_loads_follow_processing_flow(self, monkeypatch):
        """Modules are configured 'after each other, following the flow of
        the data processing'."""
        system = FpgaReconfigSystem(port=Icap())
        records = self._spy_loads(system, monkeypatch)
        system.run_cycle(0.5)
        load_order = [l.module for l in records]
        assert load_order == ["frontend", "amp_phase", "capacity", "filter"]

    def test_second_cycle_reloads_everything(self, monkeypatch):
        """With one slot, every module must be reconfigured again each
        cycle (nothing stays resident)."""
        system = FpgaReconfigSystem(port=Icap())
        records = self._spy_loads(system, monkeypatch)
        system.run_cycle(0.5)
        first = len(records)
        system.run_cycle(0.5)
        assert len(records) == 2 * first
        assert all(l.total_time_s > 0 for l in records)
