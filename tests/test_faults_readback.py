"""Tests for fault injection, readback scrubbing, and the self-healing
measurement system (the paper's 'failure detection and recovery'
requirement)."""

import random

import pytest

from repro.app.failsafe import (
    MeasurementWatchdog,
    RecoveryEvent,
    SelfHealingSystem,
    WatchdogLimits,
)
from repro.fabric.bitstream import BitstreamGenerator
from repro.fabric.device import get_device
from repro.fabric.faults import ConfigurationMemory
from repro.fabric.grid import Grid
from repro.reconfig.controller import ReconfigController
from repro.reconfig.ports import Icap, Jcap
from repro.reconfig.readback import ReadbackScrubber, frame_crc
from repro.reconfig.slots import plan_floorplan


@pytest.fixture
def loaded_memory():
    dev = get_device("XC3S400")
    gen = BitstreamGenerator(dev)
    bitstream = gen.partial_for_region(Grid(dev).column_region(8, 12), "amp_phase")
    memory = ConfigurationMemory()
    memory.load(bitstream)
    return memory, bitstream


class TestFaultInjection:
    def test_seu_changes_exactly_one_bit(self, loaded_memory):
        memory, bitstream = loaded_memory
        before = {f.address: f.words for f in memory.readback()}
        fault = memory.inject_seu(random.Random(1))
        after = {f.address: f.words for f in memory.readback()}
        diffs = [
            (addr, i)
            for addr in before
            for i in range(len(before[addr]))
            if before[addr][i] != after[addr][i]
        ]
        assert len(diffs) == 1
        addr, word = diffs[0]
        assert addr == fault.frame_address and word == fault.word_index
        assert bin(before[addr][word] ^ after[addr][word]).count("1") == 1

    def test_inject_into_empty_memory_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ConfigurationMemory().inject_seu()

    def test_corrupted_frames_detection(self, loaded_memory):
        memory, bitstream = loaded_memory
        assert memory.corrupted_frames(bitstream) == []
        fault = memory.inject_seu(random.Random(2))
        assert memory.corrupted_frames(bitstream) == [fault.frame_address]

    def test_deterministic_injection(self, loaded_memory):
        memory, _bs = loaded_memory
        addr = sorted(memory._frames)[0]
        memory.inject_at(addr, 0, 5)
        memory.inject_at(addr, 0, 5)  # flipping twice restores
        assert memory.corrupted_frames(_bs) == []

    def test_bad_bit_index_rejected(self, loaded_memory):
        memory, _bs = loaded_memory
        addr = sorted(memory._frames)[0]
        with pytest.raises(ValueError):
            memory.inject_at(addr, 0, 32)

    def test_readback_unconfigured_frame(self):
        with pytest.raises(KeyError):
            ConfigurationMemory().frame(0x1234)


class TestZeroCopyLoads:
    """A load shares the stored image's frames; an upset copies only the
    frame it flips, so the stored golden never changes."""

    @pytest.fixture
    def loaded(self):
        dev = get_device("XC3S400")
        memory = ConfigurationMemory()
        controller = ReconfigController(
            plan_floorplan(dev, 800, [2400]), Icap(), config_memory=memory
        )
        controller.prepare_module("amp_phase", 0)
        controller.load("amp_phase", 0)
        return memory, controller

    def test_load_stores_the_stored_frames_by_reference(self, loaded):
        memory, controller = loaded
        golden = controller.golden_bitstream(0)
        assert memory.frame_count == golden.frame_count
        for frame in golden.frames:
            assert memory.frame(frame.address) is frame.words

    def test_upset_copies_only_its_frame_and_spares_the_store(self, loaded):
        memory, controller = loaded
        store, key = controller.store, "amp_phase@slot0"
        raw_before = store.fetch(key)
        golden = store.bitstream(key)
        golden_bytes = golden.to_bytes()
        addr = golden.frames[7].address
        before = memory.frame(addr)

        memory.inject_at(addr, 4, 13)

        after = memory.frame(addr)
        assert after is not before
        assert [i for i in range(len(after)) if after[i] != before[i]] == [4]
        assert after[4] ^ before[4] == 1 << 13
        for frame in golden.frames:
            if frame.address != addr:
                assert memory.frame(frame.address) is frame.words
        assert store.fetch(key) == raw_before
        assert store.bitstream(key).to_bytes() == golden_bytes
        assert golden.frames[7].words is before

        assert memory.corrupted_frames(golden) == [addr]
        memory.load(golden)
        assert memory.corrupted_frames(golden) == []
        assert memory.frame(addr) is golden.frames[7].words

    def test_seeded_upsets_replay_the_same_bits(self, loaded):
        memory, controller = loaded
        golden = controller.golden_bitstream(0)
        faults = memory.inject_burst(5, random.Random(11))
        # Pinned draws: frame (sorted choice), then word, then bit.
        assert [(f.frame_address, f.word_index, f.bit_index) for f in faults] == [
            (4867, 71, 29), (4867, 65, 12), (2834, 65, 30), (5906, 78, 11), (2314, 57, 19),
        ]
        replay = ConfigurationMemory()
        replay.load(golden)
        assert replay.inject_burst(5, random.Random(11)) == faults
        assert replay.readback() == memory.readback()


class TestScrubber:
    def test_clean_scrub(self, loaded_memory):
        memory, bitstream = loaded_memory
        scrubber = ReadbackScrubber(memory, Icap())
        scrubber.register_golden(bitstream)
        report = scrubber.scrub()
        assert report.clean
        assert report.frames_checked == bitstream.frame_count
        assert report.repair_time_s == 0.0
        assert report.readback_time_s > 0

    def test_detects_and_repairs(self, loaded_memory):
        memory, bitstream = loaded_memory
        scrubber = ReadbackScrubber(memory, Icap())
        scrubber.register_golden(bitstream)
        fault = memory.inject_seu(random.Random(3))
        report = scrubber.scrub(repair=True)
        assert report.corrupted_frames == [fault.frame_address]
        assert report.repaired_frames == [fault.frame_address]
        # After repair the memory is clean again.
        assert scrubber.scrub().clean
        assert memory.corrupted_frames(bitstream) == []

    def test_detect_without_repair(self, loaded_memory):
        memory, bitstream = loaded_memory
        scrubber = ReadbackScrubber(memory, Icap())
        scrubber.register_golden(bitstream)
        memory.inject_seu(random.Random(4))
        report = scrubber.scrub(repair=False)
        assert not report.clean
        assert report.repaired_frames == []
        assert not scrubber.scrub(repair=False).clean  # still corrupted

    def test_repair_much_cheaper_than_readback_pass(self, loaded_memory):
        """Scrubbing repairs one frame; a full load rewrites them all."""
        memory, bitstream = loaded_memory
        scrubber = ReadbackScrubber(memory, Icap())
        scrubber.register_golden(bitstream)
        memory.inject_seu(random.Random(5))
        report = scrubber.scrub()
        assert report.repair_time_s < report.readback_time_s / 10

    def test_no_golden_rejected(self, loaded_memory):
        memory, _bs = loaded_memory
        with pytest.raises(ValueError, match="golden"):
            ReadbackScrubber(memory, Icap()).scrub()

    def test_detection_latency(self, loaded_memory):
        memory, bitstream = loaded_memory
        scrubber = ReadbackScrubber(memory, Jcap())
        scrubber.register_golden(bitstream)
        latency = scrubber.mean_detection_latency_s(scrub_period_s=1.0)
        assert latency > 0.5  # half the period at least
        with pytest.raises(ValueError):
            scrubber.mean_detection_latency_s(0.0)

    def test_frame_crc_sensitive(self, loaded_memory):
        memory, bitstream = loaded_memory
        frame = bitstream.frames[0]
        from repro.fabric.bitstream import Frame

        flipped = Frame(frame.address, (frame.words[0] ^ 1,) + frame.words[1:])
        assert frame_crc(frame) != frame_crc(flipped)


class TestWatchdog:
    def test_plausible_cycle_passes(self):
        wd = MeasurementWatchdog()
        verdict = wd.check(capacitance_pf=300.0, level=0.55)
        assert verdict.plausible

    def test_capacitance_range(self):
        wd = MeasurementWatchdog()
        assert not wd.check(5000.0, 0.5).plausible
        assert not wd.check(1.0, 0.5).plausible

    def test_level_range(self):
        wd = MeasurementWatchdog()
        assert not wd.check(300.0, 1.8).plausible

    def test_rate_of_change(self):
        wd = MeasurementWatchdog(WatchdogLimits(max_level_step=0.1))
        assert wd.check(200.0, 0.30).plausible
        assert not wd.check(350.0, 0.80).plausible  # 0.5 jump
        # A rate-only step is a credible process change (fast pump): the
        # new level becomes the reference, so the loop re-converges
        # instead of wedging on the stale one (see tests/test_scenarios).
        assert wd.check(350.0, 0.80).plausible
        # A *garbled* reading (range AND rate wrong) must not poison the
        # state: the reference stays at the last adopted level.
        assert not wd.check(5000.0, 0.30).plausible
        assert wd.check(350.0, 0.75).plausible

    def test_reference_health(self):
        wd = MeasurementWatchdog()
        assert not wd.check(300.0, 0.5, ref_amplitude=0.001).plausible

    def test_reset(self):
        wd = MeasurementWatchdog(WatchdogLimits(max_level_step=0.1))
        wd.check(200.0, 0.2)
        wd.reset()
        assert wd.check(400.0, 0.9).plausible


class TestSelfHealingSystem:
    @pytest.fixture(scope="class")
    def healing(self):
        return SelfHealingSystem(seed=7)

    def test_normal_operation_untouched(self, healing):
        result = healing.run_cycle(0.5)
        assert abs(result.level_measured - 0.5) < 0.05
        assert not healing.recoveries

    def test_fault_detected_and_recovered(self):
        healing = SelfHealingSystem(seed=8)
        healing.run_cycle(0.5)  # establish watchdog state
        fault = healing.inject_module_fault("amp_phase")
        assert healing.has_active_fault
        result = healing.run_cycle(0.5)
        # Recovery happened and the re-measurement is correct.
        assert len(healing.recoveries) == 1
        event = healing.recoveries[0]
        assert event.module == "amp_phase"
        assert event.recovery_time_s > 0
        assert not healing.has_active_fault
        assert abs(result.level_measured - 0.5) < 0.05
        assert result.reconfig_time_s > event.recovery_time_s

    def test_unknown_module_rejected(self):
        healing = SelfHealingSystem(seed=9)
        with pytest.raises(KeyError):
            healing.inject_module_fault("ghost")

    def test_operation_continues_after_recovery(self):
        healing = SelfHealingSystem(seed=10)
        healing.run_cycle(0.4)
        healing.inject_module_fault()
        healing.run_cycle(0.4)
        follow_up = healing.run_cycle(0.45)
        assert abs(follow_up.level_measured - 0.45) < 0.06
        assert len(healing.recoveries) == 1
