"""Energy-aware scheduling: price batches in joules, plan the device mix.

The seed carries the paper's full power model — ``0.5 * alpha * f * C *
V^2`` dynamic power, static power growing with die size
(:data:`repro.fabric.device.SPARTAN3`), and per-stage reconfiguration
energy whose shape follows the DPR-overhead measurements of Bonamy et
al. (PAPERS.md: configuration-port activity for the duration of the
transfer, plus the bitstream fetch from external flash) — but the
``BatchScheduler`` historically ignored all of it.  This module closes
that loop with three pieces:

* :class:`EnergyModel` — the one cost function of a stage-major batch.
  :meth:`EnergyModel.charge` is what
  :class:`~repro.serve.batching.BatchExecutor` bills every executed
  batch with, and :meth:`EnergyModel.estimate` predicts a candidate
  batch (size × stage order × device) by calling the same function
  *before* dispatch, so prediction and charge agree by construction.
  ``from_system`` reads every cost off a live
  :class:`~repro.app.system.FpgaReconfigSystem`; ``for_device`` prices a
  catalog device analytically for planning.
* :class:`EnergyPolicy` — the ``policy="energy"`` seam of
  :class:`~repro.serve.batching.BatchScheduler`: picks the pipeline
  group and target batch size that minimize predicted joules/request,
  and a fill-wait deadline bounded by the queued requests' SLO slack, so
  reconfiguration energy is amortized over fuller batches without
  blowing deadlines.
* :class:`DeviceMixPlanner` — the paper's static-power-vs-die-size
  trade-off as an autoscaler: given an offered load (e.g. from the
  :class:`~repro.serve.supervisor.AdmissionController` EWMA), compare
  "few big dies with many slots" against "many small dies" across the
  Spartan-3 catalog and report watts, joules/request and BOM cost per
  option.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.app.frontend import AnalogFrontEnd
from repro.app.modules import standard_modules
from repro.app.system import (
    CLOCK_TREE_CELLS,
    FSL_WORDS_PER_FRAME,
    HW_CLOCK_MHZ,
    MICROBLAZE_CLOCK_MHZ,
    SystemConfig,
    frontend_slices,
    static_side_slices,
)
from repro.fabric.device import FRAMES_PER_CLB_COLUMN, SPARTAN3, DeviceSpec
from repro.ip.uart import Uart
from repro.power.model import (
    PowerParams,
    block_dynamic_power_w,
    clock_tree_power_w,
    reconfiguration_energy_j,
    static_power_w,
)
from repro.reconfig.controller import FLASH_READ_POWER_W, BitstreamStore
from repro.reconfig.ports import ConfigPort, Jcap
from repro.reconfig.slots import FloorplanError, plan_floorplan
from repro.softcore.footprint import MICROBLAZE_FOOTPRINT

#: Clock domain of the analog front end's delta-sigma sampling, MHz
#: (the 16 MHz ``FpgaReconfigSystem.run_cycle`` charges frontend activity at).
FRONTEND_CLOCK_MHZ = 16.0

#: Default fill window the energy policy waits for a fuller batch when a
#: request carries no deadline to bound the wait (seconds).
DEFAULT_FILL_WINDOW_S = 0.05

#: Safety margin subtracted from a deadline before it bounds the fill
#: wait: the dispatch + execution must still fit after the wait.
DEFAULT_SLO_MARGIN_S = 0.02


@dataclass(frozen=True)
class StageCost:
    """Per-stage costs of one pipeline stage on one device."""

    #: Simulated device time of one request's share of the stage, s.
    time_s: float
    #: Modelled dynamic energy of one request's share of the stage, J.
    dynamic_j: float
    #: Time to reconfigure the slot with this stage's module, s.
    reconfig_time_s: float
    #: Energy of that reconfiguration (port + flash fetch), J.
    reconfig_energy_j: float


@dataclass(frozen=True)
class BatchEnergyEstimate:
    """Predicted cost of executing one batch."""

    pipeline: Tuple[str, ...]
    batch_size: int
    device_time_s: float
    energy_j: float
    reconfig_time_s: float
    reconfig_energy_j: float

    @property
    def joules_per_request(self) -> float:
        return self.energy_j / self.batch_size


def _stage_power_w(stage: str, modules, hw_clock_mhz: float) -> float:
    """Block dynamic power of one pipeline stage's hardware while it runs."""
    if stage == "frontend":
        return block_dynamic_power_w(frontend_slices(), 0.45, FRONTEND_CLOCK_MHZ)
    return block_dynamic_power_w(modules[stage].compiled.slices, 0.15, hw_clock_mhz)


#: Dynamic power of the MicroBlaze running the reconfiguration controller.
_CONTROLLER_POWER_W = block_dynamic_power_w(
    MICROBLAZE_FOOTPRINT.slices, MICROBLAZE_FOOTPRINT.mean_activity, MICROBLAZE_CLOCK_MHZ
)


class EnergyModel:
    """The device cost of a stage-major batch, charged and predicted.

    :meth:`charge` is the one cost function: static power over the whole
    device-busy span, clock-tree power over the (possibly gated) clock
    span, per-stage block dynamic energy, the MicroBlaze controller's
    dynamic power, and the batch's reconfiguration energy.  The executor
    bills every batch it runs with it; :meth:`estimate` predicts a batch
    by calling it with one modelled reconfiguration per stage switch, so
    a prediction is the charge of the batch it predicts.
    """

    def __init__(
        self,
        device: DeviceSpec,
        stage_costs: Dict[str, StageCost],
        static_power_w: float,
        clock_power_w: float,
        controller_power_w: float,
        io_time_s: float,
        fsl_time_s: float,
        clock_gating: bool = False,
    ):
        if not stage_costs:
            raise ValueError("energy model needs at least one stage cost")
        self.device = device
        self.stage_costs = dict(stage_costs)
        self.static_power_w = static_power_w
        self.clock_power_w = clock_power_w
        self.controller_power_w = controller_power_w
        self.io_time_s = io_time_s
        self.fsl_time_s = fsl_time_s
        self.clock_gating = clock_gating

    def reprice(self, system) -> None:
        """Refresh every term that reads a live system's operating point:
        static and clock-tree power (``system.params``, whose junction
        temperature a thermal governor moves) and each stage's dynamic
        energy (``system.hw_clock_mhz``, which it derates).  Stage times
        stay as built."""
        self.static_power_w = static_power_w(system.device, system.params)
        self.clock_power_w = clock_tree_power_w(
            system.device, CLOCK_TREE_CELLS, system.hw_clock_mhz, system.params
        )
        self.stage_costs = {
            stage: dataclasses.replace(
                cost,
                dynamic_j=_stage_power_w(stage, system.modules, system.hw_clock_mhz)
                * cost.time_s,
            )
            for stage, cost in self.stage_costs.items()
        }

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_system(cls, system, slot_index: int = 0) -> "EnergyModel":
        """Read every cost off a live :class:`FpgaReconfigSystem`.

        Stage times come from the compiled modules at the system's clock
        when the model is built, reconfiguration costs from the
        controller's bitstream store and configuration port (the same
        numbers a :class:`~repro.reconfig.controller.LoadRecord` reports),
        and the operating-point terms from :meth:`reprice`.
        """
        steps = system._processing_steps()
        stage_times = {
            "frontend": system.sample_time_s,
            "amp_phase": steps[0][1],
            "capacity": steps[1][1],
            "filter": steps[2][1],
        }
        store = system.controller.store
        port = system.controller.port
        costs: Dict[str, StageCost] = {}
        for stage, stage_time in stage_times.items():
            image_bytes = len(store.fetch(f"{stage}@slot{slot_index}"))
            fetch_s = image_bytes / store.read_bytes_per_second
            config_s = port.configure_time_s(image_bytes)
            costs[stage] = StageCost(
                time_s=stage_time,
                dynamic_j=0.0,  # priced by reprice() below
                # Flash fetch and port transfer overlap only trivially
                # (``LoadRecord.total_time_s``): the slower path dominates.
                reconfig_time_s=max(fetch_s, config_s),
                reconfig_energy_j=reconfiguration_energy_j(
                    config_s, port.active_power_w, fetch_s, FLASH_READ_POWER_W
                ),
            )
        model = cls(
            device=system.device,
            stage_costs=costs,
            static_power_w=0.0,
            clock_power_w=0.0,
            controller_power_w=_CONTROLLER_POWER_W,
            io_time_s=system.fsl_transfer_s + system._io_time_s(),
            fsl_time_s=system.fsl_transfer_s,
            clock_gating=system.clock_gating,
        )
        model.reprice(system)
        return model

    @classmethod
    def for_device(
        cls,
        device: DeviceSpec,
        port: Optional[ConfigPort] = None,
        params: Optional[PowerParams] = None,
        clock_gating: bool = False,
    ) -> "EnergyModel":
        """Analytic model for a catalog device (no system construction).

        Used by the :class:`DeviceMixPlanner` to price devices that no
        live system runs on.  Partial-bitstream sizes are derived from
        the slot's column count and the device's frame geometry (within
        a few percent of the serialized image the runtime ships).

        Raises
        ------
        FloorplanError
            When the device cannot hold the static side plus one slot.
        """
        params = params or PowerParams()
        port = port or Jcap()
        config = SystemConfig()
        modules = standard_modules(
            config.circuit, frame_samples=config.frame_samples
        )
        hw_clock = min(HW_CLOCK_MHZ, min(m.compiled.fmax_mhz for m in modules.values()))
        frontend = AnalogFrontEnd(config.circuit)
        sample_s = config.frame_samples / frontend.output_rate_hz
        ap = modules["amp_phase"].compiled
        stage_times = {
            "frontend": sample_s,
            "amp_phase": ap.processing_time_us(config.frame_samples, hw_clock) * 1e-6,
            "capacity": modules["capacity"].compiled.latency_cycles / (hw_clock * 1e6),
            "filter": modules["filter"].compiled.latency_cycles / (hw_clock * 1e6),
        }
        slot_slices = max(m.compiled.slices for m in modules.values())
        slot_signals = max(m.compiled.interface_nets for m in modules.values())
        plan = plan_floorplan(
            device, static_side_slices(), [slot_slices], [slot_signals]
        )
        image_bytes = (
            plan.slots[0].columns * FRAMES_PER_CLB_COLUMN * device.frame_bits // 8
        )
        fetch_s = image_bytes / BitstreamStore.read_bytes_per_second
        config_s = port.configure_time_s(image_bytes)
        costs: Dict[str, StageCost] = {}
        for stage, stage_time in stage_times.items():
            costs[stage] = StageCost(
                time_s=stage_time,
                dynamic_j=_stage_power_w(stage, modules, hw_clock) * stage_time,
                reconfig_time_s=max(fetch_s, config_s),
                reconfig_energy_j=reconfiguration_energy_j(
                    config_s, port.active_power_w, fetch_s, FLASH_READ_POWER_W
                ),
            )
        return cls(
            device=device,
            stage_costs=costs,
            static_power_w=static_power_w(device, params),
            clock_power_w=clock_tree_power_w(device, CLOCK_TREE_CELLS, hw_clock, params),
            controller_power_w=_CONTROLLER_POWER_W,
            io_time_s=FSL_WORDS_PER_FRAME / (MICROBLAZE_CLOCK_MHZ * 1e6)
            + Uart().char_time_s * 16,
            fsl_time_s=FSL_WORDS_PER_FRAME / (MICROBLAZE_CLOCK_MHZ * 1e6),
            clock_gating=clock_gating,
        )

    # ------------------------------------------------------------------ costs

    def charge(
        self,
        pipeline: Sequence[str],
        stage_requests: Dict[str, int],
        participants: int,
        reconfig_time_s: float,
        reconfig_energy_j: float,
    ) -> Tuple[float, float]:
        """Simulated ``(device_time_s, energy_j)`` of one stage-major batch.

        ``stage_requests[stage]`` counts the request-runs of each stage (an
        attempt that faulted at stage *k* ran only stages ``0..k``);
        ``participants`` counts attempts, the unit the per-request I/O and
        FSL transfer scale with; the reconfiguration terms are the batch's
        slot loads.
        """
        costs = self.stage_costs
        compute_time = sum(
            costs[s].time_s * stage_requests[s] for s in pipeline if s != "frontend"
        )
        sample_total = (
            costs["frontend"].time_s * stage_requests["frontend"]
            if "frontend" in pipeline
            else 0.0
        )
        device_time = (
            reconfig_time_s + sample_total + compute_time + self.io_time_s * participants
        )
        clock_span = (
            compute_time + self.fsl_time_s * participants
            if self.clock_gating
            else device_time
        )
        energy = self.static_power_w * device_time
        energy += self.clock_power_w * clock_span
        for stage in pipeline:
            energy += costs[stage].dynamic_j * stage_requests[stage]
        energy += self.controller_power_w * device_time
        energy += reconfig_energy_j
        return device_time, energy

    def estimate(
        self,
        pipeline: Sequence[str],
        batch_size: int,
        resident: Optional[str] = None,
    ) -> BatchEnergyEstimate:
        """Predicted cost of one ``batch_size``-request stage-major batch:
        :meth:`charge` of a batch in which every request runs every stage.

        ``resident`` names the module currently configured in the slot:
        the first stage is free when it is already resident (the
        controller's load is a no-op), every later stage always
        reconfigures (stage-major execution swaps the slot per stage).

        Raises
        ------
        ValueError
            On an unknown stage or a non-positive batch size.
        """
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        unknown = [s for s in pipeline if s not in self.stage_costs]
        if unknown:
            raise ValueError(f"unknown pipeline stage(s) {unknown}")
        n = batch_size
        reconfig_time = 0.0
        reconfig_energy = 0.0
        previous = resident
        for stage in pipeline:
            if stage != previous:
                cost = self.stage_costs[stage]
                reconfig_time += cost.reconfig_time_s
                reconfig_energy += cost.reconfig_energy_j
            previous = stage
        device_time, energy = self.charge(
            pipeline, {s: n for s in pipeline}, n, reconfig_time, reconfig_energy
        )
        return BatchEnergyEstimate(
            pipeline=tuple(pipeline),
            batch_size=n,
            device_time_s=device_time,
            energy_j=energy,
            reconfig_time_s=reconfig_time,
            reconfig_energy_j=reconfig_energy,
        )

    def optimal_batch_size(
        self,
        pipeline: Sequence[str],
        max_batch: int,
        resident: Optional[str] = None,
    ) -> Tuple[int, BatchEnergyEstimate]:
        """The batch size in ``[1, max_batch]`` minimizing joules/request.

        Reconfiguration cost is per batch, everything else per request,
        so joules/request decreases monotonically in the batch size —
        but the argmin is computed, not assumed, so a different cost
        structure (e.g. zero reconfiguration overhead) stays correct.
        """
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        best: Optional[BatchEnergyEstimate] = None
        for size in range(1, max_batch + 1):
            estimate = self.estimate(pipeline, size, resident=resident)
            if best is None or estimate.joules_per_request < best.joules_per_request:
                best = estimate
        assert best is not None
        return best.batch_size, best


@dataclass(frozen=True)
class EnergyDecision:
    """One batch-formation decision: which group, how many, how long to wait."""

    pipeline: Tuple[str, ...]
    #: Batch size the policy wants to fill up to.
    target_batch: int
    #: Broker-clock deadline until which the scheduler may wait for the
    #: batch to fill (<= now means dispatch immediately).
    wait_until_s: float
    #: Prediction at the target batch size; None from a policy that
    #: predicts no energy (FIFO).
    estimate: Optional[BatchEnergyEstimate]
    #: Queued requests of the chosen group at decision time.
    queued: int


class EnergyPolicy:
    """Joules/request-driven batch formation under deadline SLOs.

    Given the broker's per-pipeline queue summary, the policy chooses

    * the **pipeline group** to serve next — the most urgent group when
      any queued deadline is at risk, otherwise the group with the
      lowest predicted joules/request at its achievable batch size, and
    * the **target batch size** (the energy-optimal size, capped at
      ``max_batch``) plus a **fill-wait deadline**: the scheduler may
      wait for more same-pipeline arrivals, but only within the queued
      requests' deadline slack (earliest deadline minus the EWMA-estimated
      execution time minus a safety margin) and the configured window.
    """

    name = "energy"

    def __init__(
        self,
        model: EnergyModel,
        max_batch: int = 16,
        fill_window_s: float = DEFAULT_FILL_WINDOW_S,
        slo_margin_s: float = DEFAULT_SLO_MARGIN_S,
        admission=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if fill_window_s < 0 or slo_margin_s < 0:
            raise ValueError("fill window and SLO margin must be non-negative")
        self.model = model
        self.max_batch = max_batch
        self.fill_window_s = fill_window_s
        self.slo_margin_s = slo_margin_s
        #: Optional :class:`AdmissionController`; its per-request wall-time
        #: EWMA converts deadline slack into an affordable wait.
        self.admission = admission

    def _execution_estimate_s(self, batch_size: int) -> float:
        """Expected wall time of executing a batch of ``batch_size``."""
        if self.admission is None:
            return 0.0
        return self.admission.per_request_s() * batch_size

    def decide(
        self,
        groups: Dict[Tuple[str, ...], dict],
        now: float,
        resident: Optional[str] = None,
    ) -> EnergyDecision:
        """Choose pipeline group, target batch size and fill deadline.

        Raises
        ------
        ValueError
            When ``groups`` is empty (nothing queued to decide about).
        """
        if not groups:
            raise ValueError("energy policy cannot decide over an empty queue")
        candidates = []
        for pipeline, info in groups.items():
            achievable = min(max(1, info["count"]), self.max_batch)
            estimate = self.model.estimate(pipeline, achievable, resident=resident)
            deadline = info.get("earliest_deadline_s")
            slack = math.inf if deadline is None else deadline - now - self.slo_margin_s
            candidates.append((pipeline, info, estimate, slack))
        at_risk = [
            c
            for c in candidates
            if c[3] - self._execution_estimate_s(c[2].batch_size) <= 0.0
        ]
        if at_risk:
            # A queued deadline is already at risk: serve the most urgent
            # group now, no fill wait.
            pipeline, info, estimate, _slack = min(at_risk, key=lambda c: c[3])
            return EnergyDecision(
                pipeline=pipeline,
                target_batch=estimate.batch_size,
                wait_until_s=now,
                estimate=estimate,
                queued=info["count"],
            )
        pipeline, info, estimate, slack = min(
            candidates,
            key=lambda c: (c[2].joules_per_request, c[1]["head_position"]),
        )
        target, target_estimate = self.model.optimal_batch_size(
            pipeline, self.max_batch, resident=resident
        )
        if target <= info["count"]:
            # The optimal batch is already queued: dispatch now.
            return EnergyDecision(
                pipeline=pipeline,
                target_batch=target,
                wait_until_s=now,
                estimate=target_estimate,
                queued=info["count"],
            )
        wait = min(
            self.fill_window_s,
            max(0.0, slack - self._execution_estimate_s(target)),
        )
        return EnergyDecision(
            pipeline=pipeline,
            target_batch=target,
            wait_until_s=now + wait,
            estimate=target_estimate,
            queued=info["count"],
        )


# ---------------------------------------------------------------- device mix


@dataclass(frozen=True)
class DevicePlan:
    """One device option of the mix planner."""

    device: str
    #: Reconfigurable slots one die can hold next to the static side.
    slots_per_die: int
    #: Dies needed to carry the offered load.
    dies: int
    #: Aggregate serving capacity of the fleet, requests/second.
    capacity_rps: float
    #: Offered load / capacity (busy fraction of the fleet's slots).
    utilization: float
    #: Fleet power at the offered load: active energy per request plus
    #: the static burn of idle die time, watts.
    total_power_w: float
    joules_per_request: float
    unit_price_usd: float
    fleet_price_usd: float

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "slots_per_die": self.slots_per_die,
            "dies": self.dies,
            "capacity_rps": self.capacity_rps,
            "utilization": self.utilization,
            "total_power_w": self.total_power_w,
            "joules_per_request": self.joules_per_request,
            "unit_price_usd": self.unit_price_usd,
            "fleet_price_usd": self.fleet_price_usd,
        }


def offered_load_from_admission(admission) -> float:
    """Offered-load estimate (requests/second) from the admission
    controller's per-request service-time EWMA: the rate the fleet's
    workers are currently sustaining.  0.0 before any observation."""
    per_request = admission.per_request_s()
    if per_request <= 0.0:
        return 0.0
    return admission.workers / per_request


class DeviceMixPlanner:
    """Pick a device mix from the catalog for an offered load.

    The paper's approach 2 argument at fleet scale: a big die amortizes
    its static power over many reconfigurable slots *when utilized*,
    while a small die wastes less static power on idle capacity.  For
    each catalog device the planner computes how many slots fit next to
    the static side (every slot is an independent stage-major serving
    lane), how many dies carry the load, and the resulting fleet watts,
    joules/request and BOM cost — small dies win at low load, big dies
    at high load, with the crossover set by the catalog's
    static-power-vs-die-size curve.

    Idle dies are assumed clock-gated (static power only); active time
    is priced by the same :class:`EnergyModel` the scheduler uses.
    """

    def __init__(
        self,
        pipeline: Sequence[str] = ("frontend", "amp_phase", "capacity", "filter"),
        max_batch: int = 16,
        catalog: Sequence[DeviceSpec] = SPARTAN3,
        port_factory: Callable[[], ConfigPort] = Jcap,
        params: Optional[PowerParams] = None,
        clock_gating: bool = False,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.pipeline = tuple(pipeline)
        self.max_batch = max_batch
        self.catalog = tuple(catalog)
        self.port_factory = port_factory
        self.params = params or PowerParams()
        self.clock_gating = clock_gating

    def slots_for(self, device: DeviceSpec) -> int:
        """Reconfigurable slots the device holds next to the static side
        (0 when not even one fits)."""
        modules = standard_modules()
        slot_slices = max(m.compiled.slices for m in modules.values())
        slot_signals = max(m.compiled.interface_nets for m in modules.values())
        slots = 0
        while True:
            try:
                plan_floorplan(
                    device,
                    static_side_slices(),
                    [slot_slices] * (slots + 1),
                    [slot_signals] * (slots + 1),
                )
            except FloorplanError:
                return slots
            slots += 1

    def plan_device(self, device: DeviceSpec, offered_rps: float) -> Optional[DevicePlan]:
        """Price one device at the offered load; None when infeasible."""
        slots = self.slots_for(device)
        if slots < 1:
            return None
        model = EnergyModel.for_device(
            device,
            port=self.port_factory(),
            params=self.params,
            clock_gating=self.clock_gating,
        )
        # Steady state: the previous batch left the last stage resident.
        estimate = model.estimate(
            self.pipeline, self.max_batch, resident=self.pipeline[-1]
        )
        slot_rps = estimate.batch_size / estimate.device_time_s
        dies = max(1, math.ceil(offered_rps / (slots * slot_rps)))
        capacity = dies * slots * slot_rps
        utilization = min(1.0, offered_rps / capacity) if capacity > 0 else 0.0
        static_w = static_power_w(device, self.params)
        # Static power burns once per die, shared by however many of its
        # slots are busy — that sharing IS the big-die advantage at high
        # load (and its penalty at low load).  The batch estimate charges
        # the full die's static power to the one slot it models, so strip
        # it out and re-add it per die.
        dynamic_j_per_request = (
            estimate.energy_j - static_w * estimate.device_time_s
        ) / estimate.batch_size
        total_power = dies * static_w + offered_rps * dynamic_j_per_request
        return DevicePlan(
            device=device.name,
            slots_per_die=slots,
            dies=dies,
            capacity_rps=capacity,
            utilization=utilization,
            total_power_w=total_power,
            joules_per_request=(
                total_power / offered_rps if offered_rps > 0 else math.inf
            ),
            unit_price_usd=device.price_usd,
            fleet_price_usd=dies * device.price_usd,
        )

    def plan(self, offered_rps: float) -> List[DevicePlan]:
        """Every feasible device option, best (lowest fleet watts, then
        cheapest BOM) first.

        Raises
        ------
        ValueError
            On a non-positive offered load.
        """
        if offered_rps <= 0:
            raise ValueError(f"offered load must be positive, got {offered_rps}")
        plans = [
            plan
            for plan in (self.plan_device(d, offered_rps) for d in self.catalog)
            if plan is not None
        ]
        plans.sort(key=lambda p: (p.total_power_w, p.fleet_price_usd))
        return plans

    def best(self, offered_rps: float) -> DevicePlan:
        """The recommended device mix for the offered load.

        Raises
        ------
        ValueError
            When no catalog device can hold the static side plus a slot.
        """
        plans = self.plan(offered_rps)
        if not plans:
            raise ValueError("no catalog device fits the application floorplan")
        return plans[0]
