"""Tests for floorplanning, bus macros, config ports, the controller and
the cycle scheduler."""

import pytest

from repro.fabric.bitstream import BitstreamGenerator
from repro.fabric.device import get_device
from repro.reconfig.busmacro import BUSMACRO_SIGNALS, BusMacro, busmacros_for_signals
from repro.reconfig.controller import BitstreamStore, ReconfigController
from repro.reconfig.ports import ConfigurationEvent, Icap, Jcap
from repro.reconfig.scheduler import CYCLE_PERIOD_S, build_cycle_schedule
from repro.reconfig.slots import (
    FloorplanError,
    columns_for_slices,
    plan_floorplan,
    smallest_device_for_plan,
)


@pytest.fixture
def dev():
    return get_device("XC3S400")


class TestBusMacros:
    def test_macro_straddles_boundary(self):
        macro = BusMacro(boundary_column=8, row=3)
        assert all(c.x == 7 for c in macro.static_slices)
        assert all(c.x == 8 for c in macro.dynamic_slices)

    def test_allocation_count(self):
        macros = busmacros_for_signals(20, boundary_column=8, rows=32)
        assert len(macros) == -(-20 // BUSMACRO_SIGNALS)

    def test_directions_alternate(self):
        macros = busmacros_for_signals(32, boundary_column=8, rows=32)
        assert {m.direction for m in macros} == {"s2d", "d2s"}

    def test_too_many_signals_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            busmacros_for_signals(8 * 40, boundary_column=8, rows=32)

    def test_validation(self):
        with pytest.raises(ValueError):
            BusMacro(boundary_column=0, row=0)
        with pytest.raises(ValueError):
            BusMacro(boundary_column=5, row=0, direction="up")


class TestFloorplan:
    def test_basic_plan(self, dev):
        plan = plan_floorplan(dev, static_slices=800, slot_slices=[2400])
        assert plan.static_region.x_min == 0
        assert len(plan.slots) == 1
        assert plan.slots[0].region.is_column_aligned(dev)
        assert plan.slots[0].slice_capacity(dev) >= 2400
        plan.validate()

    def test_columns_for_slices(self, dev):
        per_col = dev.clb_rows * dev.slices_per_clb
        assert columns_for_slices(dev, per_col) == 1
        assert columns_for_slices(dev, per_col + 1) == 2

    def test_multi_slot(self, dev):
        plan = plan_floorplan(dev, 500, [800, 800])
        assert len(plan.slots) == 2
        assert not plan.slots[0].region.overlaps(plan.slots[1].region)

    def test_overfull_rejected(self, dev):
        with pytest.raises(FloorplanError, match="columns"):
            plan_floorplan(dev, 2000, [3000])

    def test_smallest_device_for_plan(self):
        """The paper's sizing: a ~2400-slice slot plus ~800 static slices
        needs the XC3S400; ~1000-slice slots fit the XC3S200."""
        big = smallest_device_for_plan(800, [2400])
        small = smallest_device_for_plan(800, [1000])
        assert big.device.name == "XC3S400"
        assert small.device.name == "XC3S200"

    def test_nothing_fits(self):
        with pytest.raises(FloorplanError, match="no device"):
            smallest_device_for_plan(40000, [40000])


class TestPorts:
    def test_icap_faster_than_jcap(self):
        """Paper: 'The JCAP core offers a reconfiguration rate which is
        lower than the one provided by the ICAP interface.'"""
        assert Icap().bytes_per_second > 10 * Jcap(improved=True).bytes_per_second

    def test_improved_jcap_faster_than_basic(self):
        assert Jcap(improved=True).bytes_per_second > 2 * Jcap(improved=False).bytes_per_second

    def test_configure_parses_and_times(self, dev):
        gen = BitstreamGenerator(dev)
        from repro.fabric.grid import Grid

        bs = gen.partial_for_region(Grid(dev).column_region(4, 9), "m")
        port = Icap()
        event = port.configure(bs.total_bytes, bs.frame_count)
        assert event.frames == bs.frame_count
        assert event.duration_s == pytest.approx(bs.total_bytes / port.bytes_per_second)
        assert event.energy_j > 0
        assert event.bitstream_bytes == bs.total_bytes

    def test_configure_time_validation(self):
        with pytest.raises(ValueError):
            Icap().configure_time_s(-1)

    def test_port_parameter_validation(self):
        with pytest.raises(ValueError):
            Icap(clock_mhz=0)
        with pytest.raises(ValueError):
            Jcap(tck_mhz=-1)


class TestControllerAndStore:
    def test_store_roundtrip(self, dev):
        gen = BitstreamGenerator(dev)
        from repro.fabric.grid import Grid

        bs = gen.partial_for_region(Grid(dev).column_region(0, 3), "m")
        store = BitstreamStore()
        store.store("m", bs.to_bytes())
        assert store.fetch("m") == bs.to_bytes()
        assert store.total_bytes == len(bs.to_bytes())

    def test_missing_bitstream(self):
        with pytest.raises(KeyError, match="no bitstream"):
            BitstreamStore().fetch("ghost")

    def _controller(self, dev, port=None, config_memory=None):
        plan = plan_floorplan(dev, 800, [2400])
        controller = ReconfigController(plan, port or Jcap(), config_memory=config_memory)
        for name in ("amp_phase", "capacity", "filter"):
            controller.prepare_module(name, 0)
        return controller

    def _image(self, dev):
        from repro.fabric.grid import Grid

        return BitstreamGenerator(dev).partial_for_region(Grid(dev).column_region(0, 3), "m")

    def test_store_checks_an_image_once_on_entry(self, dev):
        raw = self._image(dev).to_bytes()
        store = BitstreamStore()
        checked = store.store("m", raw)
        assert checked.frame_count == self._image(dev).frame_count
        # Every later read hands out the same parsed object.
        assert store.bitstream("m") is checked
        assert store.fetch("m") == raw

    @pytest.mark.parametrize(
        "corrupt,reason",
        [
            # Flip one payload bit: the CRC no longer matches.
            (lambda raw: raw[:100] + bytes([raw[100] ^ 0x01]) + raw[101:], "CRC mismatch"),
            (lambda raw: raw[: 4 * (len(raw) // 8)], "truncated"),
            (lambda raw: raw.replace(bytes.fromhex("aa995566"), b"\x00" * 4), "sync word"),
        ],
        ids=["crc", "truncated", "no-sync"],
    )
    def test_store_refuses_a_corrupted_image(self, dev, corrupt, reason):
        store = BitstreamStore()
        with pytest.raises(ValueError, match=reason):
            store.store("m", corrupt(self._image(dev).to_bytes()))
        assert store.names() == []
        with pytest.raises(KeyError):
            store.bitstream("m")

    def test_scrub_finds_and_repairs_upsets_against_the_shared_golden(self, dev):
        from repro.fabric.faults import ConfigurationMemory
        from repro.reconfig.readback import ReadbackScrubber

        memory = ConfigurationMemory()
        c = self._controller(dev, Icap(), config_memory=memory)
        c.load("amp_phase", 0)
        golden = c.golden_bitstream(0)
        assert c.golden_bitstream(0) is golden  # shared, not re-parsed
        scrubber = ReadbackScrubber(memory, c.port)
        scrubber.register_golden(golden)
        fault = memory.inject_at(golden.frames[5].address, 3, 17)
        assert memory.corrupted_frames(golden) == [fault.frame_address]
        report = scrubber.scrub()
        assert report.corrupted_frames == [fault.frame_address]
        assert report.repaired_frames == [fault.frame_address]
        assert memory.corrupted_frames(golden) == []
        assert scrubber.scrub().clean

    def test_stored_images_stay_byte_identical_under_loads_and_scrubs(self, dev):
        from dataclasses import FrozenInstanceError

        from repro.fabric.faults import ConfigurationMemory

        memory = ConfigurationMemory()
        c = self._controller(dev, Icap(), config_memory=memory)
        names = ("amp_phase", "capacity", "filter")
        region = c.floorplan.slot(0).region
        originals = {n: c.generator.partial_for_region(region, n).to_bytes() for n in names}
        for i in range(100):
            record = c.load(names[i % 3], 0)
            assert record.config.description == f"partial:{names[i % 3]}"
        # Upset the resident module, then repair it from the golden.
        golden = c.golden_bitstream(0)
        memory.inject_burst(8)
        memory.load(golden)
        assert memory.corrupted_frames(golden) == []
        for n in names:
            key = f"{n}@slot0"
            assert c.store.fetch(key) == originals[n]
            assert c.store.bitstream(key).to_bytes() == originals[n]
        with pytest.raises(FrozenInstanceError):
            golden.description = "mutated"
        assert isinstance(golden.frames, tuple)

    def test_load_sequence(self, dev):
        c = self._controller(dev)
        r1 = c.load("amp_phase", 0)
        assert r1.total_time_s > 0
        assert c.resident[0] == "amp_phase"
        r2 = c.load("capacity", 0)
        assert c.resident[0] == "capacity"
        assert c.total_reconfig_time_s == pytest.approx(r1.total_time_s + r2.total_time_s)
        assert c.total_reconfig_energy_j == pytest.approx(r1.energy_j + r2.energy_j)

    def test_cached_load_is_free(self, dev):
        c = self._controller(dev)
        c.load("amp_phase", 0)
        r = c.load("amp_phase", 0)
        assert r.total_time_s == 0.0

    def test_unprepared_module_rejected(self, dev):
        c = self._controller(dev)
        with pytest.raises(KeyError):
            c.load("ethernet", 0)

    def test_icap_loads_faster(self, dev):
        jcap_time = self._controller(dev, Jcap()).load("amp_phase", 0).total_time_s
        icap_time = self._controller(dev, Icap()).load("amp_phase", 0).total_time_s
        assert icap_time < jcap_time


class TestScheduler:
    def test_static_cycle_fits(self):
        s = build_cycle_schedule(128e-6, [("sw", 9e-3)], io_time_s=1e-3)
        assert s.fits
        assert s.idle_time_s == pytest.approx(CYCLE_PERIOD_S - 128e-6 - 9e-3 - 1e-3)

    def test_reconfig_cycle_accounting(self):
        s = build_cycle_schedule(
            128e-6,
            [("a", 10e-6), ("b", 2e-6)],
            reconfig_times_s=[5e-3, 20e-3, 15e-3],  # frontend + 2 modules
        )
        assert s.reconfig_time_s == pytest.approx(40e-3)
        assert s.compute_time_s == pytest.approx(12e-6)
        assert s.fits

    def test_overrun_detected(self):
        s = build_cycle_schedule(128e-6, [("a", 10e-6)], reconfig_times_s=[80e-3, 70e-3])
        assert not s.fits
        assert s.utilization == 1.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            build_cycle_schedule(-1.0, [])

    def test_timeline_text(self):
        s = build_cycle_schedule(128e-6, [("amp", 7e-6)], io_time_s=1e-3)
        text = s.timeline()
        assert "sample" in text and "amp" in text and "idle" in text
