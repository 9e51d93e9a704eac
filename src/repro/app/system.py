"""System variants of the level measurement application.

The paper's narrative walks through four implementations; each is a class
here, exposing the same ``run_cycle`` interface so the benchmarks can
tabulate cost, power and timing across them:

* :class:`MicrocontrollerSystem` — "the original system": a low-power MCU
  with external converter chips.
* :class:`FpgaSoftwareSystem` — "the original realization was simply
  ported and a soft-core microcontroller (MicroBlaze) was used to execute
  the same software algorithms"; image in external SRAM; external
  converter chips.
* :class:`FpgaFullHardwareSystem` — all System-Generator modules resident
  simultaneously: fastest, but ">6000 slices and at least a Spartan-3
  1000".
* :class:`FpgaReconfigSystem` — static side + one reconfigurable slot,
  modules loaded "after each other, following the flow of the data
  processing" through the JCAP; fits a smaller, lower-static-power device
  and tolerates a reduced clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.app.dsp import LevelFilter, MeasurementOutcome, process_measurement
from repro.app.frontend import AnalogFrontEnd
from repro.app.modules import FRAME_SAMPLES, HardwareModule, standard_modules
from repro.app.software import MeasurementSoftware
from repro.app.tank import MeasurementCircuit
from repro.fabric.device import DeviceSpec, get_device, smallest_fitting_device
from repro.ip.delta_sigma import ADC_FOOTPRINT, DAC_FOOTPRINT, EXTERNAL_ADC_CHIP, EXTERNAL_DAC_CHIP
from repro.ip.fsl import FSL_FOOTPRINT
from repro.ip.sinus import SINUS_FOOTPRINT
from repro.ip.uart import UART_FOOTPRINT, Uart
from repro.power.model import PowerParams, block_dynamic_power_w, clock_tree_power_w, static_power_w
from repro.reconfig.controller import ReconfigController
from repro.reconfig.ports import ConfigPort, Jcap
from repro.reconfig.scheduler import CYCLE_PERIOD_S, CycleSchedule, build_cycle_schedule
from repro.reconfig.slots import Floorplan, plan_floorplan, smallest_device_for_plan
from repro.softcore.footprint import MICROBLAZE_FOOTPRINT

#: MicroBlaze core clock in every FPGA variant (DCM CLKDV of the 50 MHz
#: oscillator).
MICROBLAZE_CLOCK_MHZ = 25.0
#: Hardware-module clock (bounded by the slowest module's fmax, 75 MHz).
HW_CLOCK_MHZ = 75.0
#: Sequential cells on the reconfigurable system's hardware clock tree,
#: charged by ``FpgaReconfigSystem.run_cycle`` and by the serving fleet's
#: :class:`repro.serve.energy.EnergyModel`.
CLOCK_TREE_CELLS = 1400
#: Glue logic on the static side (reset, bridge, decode).
GLUE_SLICES = 50
#: External SRAM chip for the software variant.
SRAM_PRICE_USD = 2.50
SRAM_ACTIVE_POWER_W = 0.045
SRAM_STANDBY_POWER_W = 0.003
#: Configuration flash holding the partial bitstreams.
FLASH_PRICE_USD = 1.20
#: Words exchanged over the FSL per module invocation (samples + results).
FSL_WORDS_PER_FRAME = 2 * FRAME_SAMPLES + 16


def static_side_slices(with_jcap: bool = True) -> int:
    """Slice demand of the static side: MicroBlaze, two FSLs, RS232 and
    (for reconfigurable systems) the JCAP core plus glue."""
    from repro.reconfig.ports import Jcap as _Jcap

    total = (
        MICROBLAZE_FOOTPRINT.slices
        + 2 * FSL_FOOTPRINT.slices
        + UART_FOOTPRINT.slices
        + GLUE_SLICES
    )
    if with_jcap:
        total += _Jcap.FOOTPRINT.slices
    return total


def frontend_slices() -> int:
    """Sinus generator plus both on-chip delta-sigma converters."""
    return SINUS_FOOTPRINT.slices + DAC_FOOTPRINT.slices + ADC_FOOTPRINT.slices


@dataclass(frozen=True)
class SystemConfig:
    """Shared configuration of every variant."""

    circuit: MeasurementCircuit = MeasurementCircuit()
    frame_samples: int = FRAME_SAMPLES
    cycle_period_s: float = CYCLE_PERIOD_S
    seed: int = 0


@dataclass(frozen=True)
class CycleResult:
    """Outcome of one measurement cycle on one system variant."""

    system: str
    device: str
    level_true: float
    level_measured: float
    capacitance_pf: float
    processing_time_s: float
    reconfig_time_s: float
    sample_time_s: float
    cycle_busy_s: float
    fits_period: bool
    energy_j: float
    schedule: CycleSchedule

    @property
    def avg_power_w(self) -> float:
        # When the busy time exceeds the nominal period (e.g. JCAP
        # reconfiguration overrunning the 100 ms cycle), average over the
        # real cycle length.
        return self.energy_j / max(self.schedule.period_s, self.cycle_busy_s)

    @property
    def level_error(self) -> float:
        return abs(self.level_measured - self.level_true)


class _BaseSystem:
    """Shared plumbing of all variants."""

    name = "base"

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()
        self.frontend = AnalogFrontEnd(self.config.circuit, seed=self.config.seed)
        self.uart = Uart()
        self._filter_state: Optional[float] = None

    @property
    def sample_time_s(self) -> float:
        return self.config.frame_samples / self.frontend.output_rate_hz

    def _io_time_s(self) -> float:
        # One status line per cycle over RS232.
        return self.uart.char_time_s * 16

    def reset(self) -> None:
        """Clear measurement state (the level filter) — e.g. between test
        points, so smoothing of previous readings does not bleed over."""
        self._filter_state = None

    def resources(self) -> Dict[str, int]:
        raise NotImplementedError

    def bom_cost_usd(self) -> float:
        raise NotImplementedError

    def run_cycle(self, level: float) -> CycleResult:
        raise NotImplementedError


class MicrocontrollerSystem(_BaseSystem):
    """The original low-power microcontroller implementation."""

    name = "mcu"
    clock_mhz = 20.0
    active_power_w = 0.012
    sleep_power_w = 0.0006
    mcu_price_usd = 4.10

    def __init__(self, config: Optional[SystemConfig] = None):
        super().__init__(config)
        self.software = MeasurementSoftware(
            self.config.circuit,
            self.config.frame_samples,
            self.frontend.output_rate_hz,
            self.frontend.tone_hz,
        )

    def resources(self) -> Dict[str, int]:
        return {"mcu": 1, "external_dac": 1, "external_adc": 1}

    def bom_cost_usd(self) -> float:
        return self.mcu_price_usd + EXTERNAL_DAC_CHIP.price_usd + EXTERNAL_ADC_CHIP.price_usd

    def run_cycle(self, level: float) -> CycleResult:
        cycle = self.frontend.sample_cycle(level, self.config.frame_samples)
        state = (self._filter_state, True) if self._filter_state is not None else None
        # On-chip flash, zero wait states, but a slower core clock.
        result = self.software.run(cycle.meas, cycle.ref, state, external_code=False)
        self._filter_state = result.level
        processing = result.time_s(self.clock_mhz)
        schedule = build_cycle_schedule(
            self.sample_time_s,
            [("process (software)", processing)],
            io_time_s=self._io_time_s(),
            period_s=self.config.cycle_period_s,
        )
        active = self.sample_time_s + processing + self._io_time_s()
        converters = (EXTERNAL_DAC_CHIP.power_mw + EXTERNAL_ADC_CHIP.power_mw) * 1e-3
        energy = (
            self.active_power_w * active
            + self.sleep_power_w * schedule.idle_time_s
            + converters * self.sample_time_s
        )
        return CycleResult(
            system=self.name,
            device="low-power MCU",
            level_true=level,
            level_measured=result.level,
            capacitance_pf=result.capacitance_pf,
            processing_time_s=processing,
            reconfig_time_s=0.0,
            sample_time_s=self.sample_time_s,
            cycle_busy_s=schedule.busy_time_s,
            fits_period=schedule.fits,
            energy_j=energy,
            schedule=schedule,
        )


class FpgaSoftwareSystem(_BaseSystem):
    """First FPGA prototype: MicroBlaze executes the ported software."""

    name = "fpga-software"
    clock_mhz = MICROBLAZE_CLOCK_MHZ

    def __init__(self, config: Optional[SystemConfig] = None, device: Optional[DeviceSpec] = None):
        super().__init__(config)
        self.device = device or get_device("XC3S400")
        self.software = MeasurementSoftware(
            self.config.circuit,
            self.config.frame_samples,
            self.frontend.output_rate_hz,
            self.frontend.tone_hz,
        )
        self.params = PowerParams()

    @property
    def needs_external_sram(self) -> bool:
        """The paper's observation: the >60 KB image exceeds on-chip BRAM."""
        return not self.software.fits_in_bram(self.device.bram_bytes)

    def resources(self) -> Dict[str, int]:
        return {
            "slices": static_side_slices(with_jcap=False),
            "brams": 4,
            "external_sram": 1 if self.needs_external_sram else 0,
            "external_dac": 1,
            "external_adc": 1,
        }

    def bom_cost_usd(self) -> float:
        cost = self.device.price_usd + EXTERNAL_DAC_CHIP.price_usd + EXTERNAL_ADC_CHIP.price_usd
        if self.needs_external_sram:
            cost += SRAM_PRICE_USD
        return cost

    def run_cycle(self, level: float) -> CycleResult:
        cycle = self.frontend.sample_cycle(level, self.config.frame_samples)
        state = (self._filter_state, True) if self._filter_state is not None else None
        result = self.software.run(cycle.meas, cycle.ref, state, external_code=self.needs_external_sram)
        self._filter_state = result.level
        processing = result.time_s(self.clock_mhz)
        schedule = build_cycle_schedule(
            self.sample_time_s,
            [("process (MicroBlaze sw)", processing)],
            io_time_s=self._io_time_s(),
            period_s=self.config.cycle_period_s,
        )
        mb_dynamic = block_dynamic_power_w(
            MICROBLAZE_FOOTPRINT.slices, MICROBLAZE_FOOTPRINT.mean_activity, self.clock_mhz
        )
        converters = (EXTERNAL_DAC_CHIP.power_mw + EXTERNAL_ADC_CHIP.power_mw) * 1e-3
        base = static_power_w(self.device, self.params) + clock_tree_power_w(
            self.device, 900, self.clock_mhz, self.params
        )
        energy = base * schedule.period_s
        energy += mb_dynamic * (processing + self.sample_time_s)
        energy += converters * self.sample_time_s
        if self.needs_external_sram:
            energy += SRAM_ACTIVE_POWER_W * processing
            energy += SRAM_STANDBY_POWER_W * (schedule.period_s - processing)
        return CycleResult(
            system=self.name,
            device=self.device.name,
            level_true=level,
            level_measured=result.level,
            capacitance_pf=result.capacitance_pf,
            processing_time_s=processing,
            reconfig_time_s=0.0,
            sample_time_s=self.sample_time_s,
            cycle_busy_s=schedule.busy_time_s,
            fits_period=schedule.fits,
            energy_j=energy,
            schedule=schedule,
        )


class _HardwareProcessingMixin:
    """Shared hardware-module pipeline execution."""

    def _init_modules(self) -> None:
        self.modules = standard_modules(
            self.config.circuit, self.frontend.tone_hz, self.config.frame_samples
        )
        self.hw_clock_mhz = min(
            HW_CLOCK_MHZ,
            min(m.compiled.fmax_mhz for m in self.modules.values()),
        )

    @property
    def fsl_transfer_s(self) -> float:
        """Moving the sample frames and results over the FSL (one word per
        MicroBlaze clock)."""
        return FSL_WORDS_PER_FRAME / (MICROBLAZE_CLOCK_MHZ * 1e6)

    def _processing_steps(self) -> List[Tuple[str, float]]:
        """(name, duration) of each hardware *compute* step.  The paper's
        7 us headline is this compute time; data movement over the FSL is
        scheduled separately as an io task."""
        ap = self.modules["amp_phase"].compiled
        cap = self.modules["capacity"].compiled
        filt = self.modules["filter"].compiled
        return [
            (
                "amp/phase (hw)",
                ap.processing_time_us(self.config.frame_samples, self.hw_clock_mhz) * 1e-6,
            ),
            ("capacity (hw)", cap.latency_cycles / (self.hw_clock_mhz * 1e6)),
            ("filter/level (hw)", filt.latency_cycles / (self.hw_clock_mhz * 1e6)),
        ]

    def _hw_schedule(
        self,
        steps: List[Tuple[str, float]],
        reconfig_times: Optional[List[float]] = None,
    ) -> CycleSchedule:
        """Lay out one hardware-pipeline cycle: [load frontend,] sample,
        FSL transfer, then per module [load,] compute, then reporting."""
        schedule = CycleSchedule(period_s=self.config.cycle_period_s)
        reconfigs = list(reconfig_times) if reconfig_times else []
        if reconfigs:
            schedule.append("load frontend", reconfigs.pop(0), "reconfig")
        schedule.append("sample signals", self.sample_time_s, "sample")
        if reconfigs:
            schedule.append(f"load {steps[0][0]}", reconfigs.pop(0), "reconfig")
        schedule.append("FSL sample transfer", self.fsl_transfer_s, "io")
        for i, (name, duration) in enumerate(steps):
            if i > 0 and reconfigs:
                schedule.append(f"load {name}", reconfigs.pop(0), "reconfig")
            schedule.append(name, duration, "compute")
        schedule.append("report level", self._io_time_s(), "io")
        return schedule

    def _run_hw_pipeline(self, cycle) -> MeasurementOutcome:
        m_amp, m_ph, r_amp, r_ph = self.modules["amp_phase"].behavior(
            cycle.meas, cycle.ref, cycle.sample_rate_hz, cycle.tone_hz
        )
        c_pf = self.modules["capacity"].behavior(m_amp, m_ph, r_amp, r_ph)
        level, self._filter_state = self.modules["filter"].behavior(c_pf, self._filter_state)
        return MeasurementOutcome(m_amp, m_ph, r_amp, r_ph, c_pf, level)

    def _module_energy(self, steps: List[Tuple[str, float]]) -> float:
        energy = 0.0
        order = ["amp_phase", "capacity", "filter"]
        for (name, duration), key in zip(steps, order):
            module = self.modules[key].compiled
            power = block_dynamic_power_w(module.slices, 0.15, self.hw_clock_mhz)
            energy += power * duration
        return energy


class FpgaFullHardwareSystem(_BaseSystem, _HardwareProcessingMixin):
    """All hardware modules resident at once — needs the big device."""

    name = "fpga-full-hw"

    def __init__(self, config: Optional[SystemConfig] = None):
        _BaseSystem.__init__(self, config)
        self._init_modules()
        self.params = PowerParams()
        self.device = smallest_fitting_device(
            self.total_slices(), self.total_brams(), self.total_mults(), utilization_cap=0.95
        )

    def total_slices(self) -> int:
        from repro.ip.ethernet import ETHERNET_FOOTPRINT
        from repro.ip.profibus import PROFIBUS_FOOTPRINT

        return (
            static_side_slices(with_jcap=False)
            + frontend_slices()
            + sum(m.compiled.slices for m in self.modules.values() if m.name != "frontend")
            + ETHERNET_FOOTPRINT.slices
            + PROFIBUS_FOOTPRINT.slices
        )

    def total_brams(self) -> int:
        from repro.ip.ethernet import ETHERNET_FOOTPRINT
        from repro.ip.profibus import PROFIBUS_FOOTPRINT

        return (
            MICROBLAZE_FOOTPRINT.brams
            + sum(m.compiled.brams for m in self.modules.values())
            + ETHERNET_FOOTPRINT.brams
            + PROFIBUS_FOOTPRINT.brams
            + 4  # code/data BRAM for the control software
        )

    def total_mults(self) -> int:
        return MICROBLAZE_FOOTPRINT.multipliers + sum(
            m.compiled.multipliers for m in self.modules.values()
        )

    def resources(self) -> Dict[str, int]:
        return {
            "slices": self.total_slices(),
            "brams": self.total_brams(),
            "multipliers": self.total_mults(),
        }

    def bom_cost_usd(self) -> float:
        return self.device.price_usd

    def run_cycle(self, level: float) -> CycleResult:
        cycle = self.frontend.sample_cycle(level, self.config.frame_samples)
        outcome = self._run_hw_pipeline(cycle)
        steps = self._processing_steps()
        schedule = self._hw_schedule(steps)
        processing = sum(d for _n, d in steps)
        base = static_power_w(self.device, self.params) + clock_tree_power_w(
            self.device, 3200, self.hw_clock_mhz, self.params
        )
        energy = base * max(schedule.period_s, schedule.busy_time_s)
        energy += self._module_energy(steps)
        energy += block_dynamic_power_w(frontend_slices(), 0.45, 16.0) * self.sample_time_s
        energy += block_dynamic_power_w(
            MICROBLAZE_FOOTPRINT.slices, MICROBLAZE_FOOTPRINT.mean_activity, MICROBLAZE_CLOCK_MHZ
        ) * schedule.busy_time_s
        return CycleResult(
            system=self.name,
            device=self.device.name,
            level_true=level,
            level_measured=outcome.level,
            capacitance_pf=outcome.capacitance_pf,
            processing_time_s=processing,
            reconfig_time_s=0.0,
            sample_time_s=self.sample_time_s,
            cycle_busy_s=schedule.busy_time_s,
            fits_period=schedule.fits,
            energy_j=energy,
            schedule=schedule,
        )


class FpgaReconfigSystem(_BaseSystem, _HardwareProcessingMixin):
    """The paper's system: static side + one slot, modules time-multiplexed
    through the configuration port."""

    name = "fpga-reconfig"

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        device: Optional[DeviceSpec] = None,
        port: Optional[ConfigPort] = None,
        hw_clock_mhz: Optional[float] = None,
        clock_gating: bool = False,
        controller_factory: Optional[Callable[[Floorplan, ConfigPort], ReconfigController]] = None,
    ):
        _BaseSystem.__init__(self, config)
        self._init_modules()
        #: Gate the module clock tree outside active phases (BUFGCE-style);
        #: the DCM and static side keep their clock.
        self.clock_gating = clock_gating
        if hw_clock_mhz is not None:
            if hw_clock_mhz > self.hw_clock_mhz:
                raise ValueError(
                    f"{hw_clock_mhz} MHz exceeds the module fmax ({self.hw_clock_mhz:.0f} MHz)"
                )
            self.hw_clock_mhz = hw_clock_mhz
        self.params = PowerParams()

        slot_slices = max(m.compiled.slices for m in self.modules.values())
        slot_signals = max(m.compiled.interface_nets for m in self.modules.values())
        if device is None:
            self.floorplan = smallest_device_for_plan(
                static_side_slices(), [slot_slices], [slot_signals]
            )
            self.device = self.floorplan.device
        else:
            self.device = device
            self.floorplan = plan_floorplan(
                device, static_side_slices(), [slot_slices], [slot_signals]
            )
        # ``controller_factory`` is the seam the fleet-serving layer uses
        # to inject a controller with a shared bitstream cache and a live
        # configuration-memory mirror (see ``repro.serve``).
        resolved_port = port or Jcap()
        if controller_factory is None:
            self.controller = ReconfigController(self.floorplan, resolved_port)
        else:
            self.controller = controller_factory(self.floorplan, resolved_port)
        for name in self.modules:
            self.controller.prepare_module(name, 0)

    def resources(self) -> Dict[str, int]:
        return {
            "slices_static": static_side_slices(),
            "slices_slot": self.floorplan.slots[0].slice_capacity(self.device),
            "slot_columns": self.floorplan.slots[0].columns,
            "busmacros": len(self.floorplan.slots[0].busmacros),
        }

    def bom_cost_usd(self) -> float:
        return self.device.price_usd + FLASH_PRICE_USD

    def run_cycle(self, level: float) -> CycleResult:
        # Module loads, following the data-processing flow.
        load_frontend = self.controller.load("frontend", 0)
        cycle = self.frontend.sample_cycle(level, self.config.frame_samples)
        loads = [self.controller.load(name, 0) for name in ("amp_phase", "capacity", "filter")]
        outcome = self._run_hw_pipeline(cycle)
        steps = self._processing_steps()
        reconfig_times = [load_frontend.total_time_s] + [l.total_time_s for l in loads]
        schedule = self._hw_schedule(steps, reconfig_times)
        processing = sum(d for _n, d in steps)
        reconfig = sum(reconfig_times)
        cycle_span = max(schedule.period_s, schedule.busy_time_s)
        clock_power = clock_tree_power_w(
            self.device, CLOCK_TREE_CELLS, self.hw_clock_mhz, self.params
        )
        # With clock gating the module clock tree only toggles while the
        # hardware pipeline is active (plus the FSL transfer).
        clock_span = (
            processing + self.fsl_transfer_s if self.clock_gating else cycle_span
        )
        energy = static_power_w(self.device, self.params) * cycle_span
        energy += clock_power * clock_span
        energy += self._module_energy(steps)
        energy += block_dynamic_power_w(frontend_slices(), 0.45, 16.0) * self.sample_time_s
        energy += block_dynamic_power_w(
            MICROBLAZE_FOOTPRINT.slices, MICROBLAZE_FOOTPRINT.mean_activity, MICROBLAZE_CLOCK_MHZ
        ) * schedule.busy_time_s
        energy += sum(l.energy_j for l in [load_frontend] + loads)
        return CycleResult(
            system=self.name,
            device=self.device.name,
            level_true=level,
            level_measured=outcome.level,
            capacitance_pf=outcome.capacitance_pf,
            processing_time_s=processing,
            reconfig_time_s=reconfig,
            sample_time_s=self.sample_time_s,
            cycle_busy_s=schedule.busy_time_s,
            fits_period=schedule.fits,
            energy_j=energy,
            schedule=schedule,
        )
