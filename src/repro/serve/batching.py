"""Same-module batching: amortize slot reconfiguration across requests.

Nafkha & Louet measure that the power/time overhead of dynamic partial
reconfiguration dominates when slots are swapped per request.  On the
paper's single-slot system a naive server pays ``len(pipeline)`` JCAP
loads *per request*; the :class:`BatchScheduler` therefore groups
requests that need the same module pipeline, and the
:class:`BatchExecutor` walks that pipeline **stage-major**: reconfigure
the slot with ``amp_phase`` once, run every request's amp/phase step,
reconfigure with ``capacity`` once, and so on.  A batch of N requests
costs ``len(pipeline)`` reconfigurations instead of ``N *
len(pipeline)``.

Per-tank measurement state (the analog front end's noise process and the
level filter) lives in :class:`TankStateStore` sessions, so interleaving
many tanks through one device does not bleed filter state between tanks
— the bug the single-tank ``FpgaReconfigSystem`` cannot have.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.app.frontend import AnalogFrontEnd
from repro.app.modules import FRAME_SAMPLES
from repro.app.system import FpgaReconfigSystem
from repro.serve.energy import FRONTEND_CLOCK_MHZ, EnergyDecision, EnergyModel
from repro.serve.faultrng import CounterRng
from repro.serve.metrics import Metrics
from repro.serve.respbuf import LaneBuffers
from repro.serve.requests import (
    STATUS_EXPIRED,
    STATUS_FAILED,
    STATUS_OK,
    MeasurementRequest,
    MeasurementResponse,
    RequestBroker,
)
from repro.trace.tracer import NULL_TRACER, Tracer

#: The full measurement pipeline, in data-flow order (paper Figure 4).
STANDARD_PIPELINE: Tuple[str, ...] = ("frontend", "amp_phase", "capacity", "filter")


@dataclass
class Batch:
    """A group of same-pipeline requests scheduled onto one device."""

    batch_id: int
    pipeline: Tuple[str, ...]
    requests: List[MeasurementRequest]

    @property
    def size(self) -> int:
        return len(self.requests)


class FifoPolicy:
    """Head-of-queue batch formation: serve the pipeline group of the
    oldest queued request, up to ``max_batch``, after waiting up to
    ``window_s`` for the batch to fill.  Predicts no energy."""

    def __init__(self, max_batch: int = 16, window_s: float = 0.0):
        self.max_batch = max_batch
        self.window_s = window_s

    def decide(
        self, groups: Dict[Tuple[str, ...], dict], now: float, resident=None
    ) -> EnergyDecision:
        pipeline, info = min(groups.items(), key=lambda g: g[1]["head_position"])
        return EnergyDecision(
            pipeline=pipeline,
            target_batch=self.max_batch,
            wait_until_s=now + self.window_s,
            estimate=None,
            queued=info["count"],
        )


class BatchScheduler:
    """Forms batches from the broker by grouping same-pipeline requests.

    Which group, how large a batch and how long to wait for it to fill
    is the ``policy``'s decision (its ``decide`` method over the
    broker's per-pipeline queue summary): :class:`FifoPolicy` (the
    default) serves the head request's group, an
    :class:`repro.serve.energy.EnergyPolicy` the group and size that
    minimize predicted joules/request within the queued requests'
    deadline slack.  Either way the broker takes the chosen group in
    per-tank submit order, and ``max_batch`` caps the policy's target
    (the thermal governor lowers it).

    ``window_s`` trades latency for batch size under FIFO: when the
    queue holds fewer than ``max_batch`` requests the scheduler waits up
    to the window for more to arrive before dispatching a partial batch.

    One caller forms a batch at a time.  Without that, two workers' fill
    windows would each take part of the same arrivals, and a fast
    executor would find the queue split into batches of one.
    """

    def __init__(
        self,
        broker: RequestBroker,
        max_batch: int = 16,
        window_s: float = 0.0,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Tracer] = None,
        on_expired: Optional[Callable[[List[MeasurementResponse]], None]] = None,
        policy=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if window_s < 0:
            raise ValueError(f"window must be non-negative, got {window_s}")
        self.broker = broker
        self.max_batch = max_batch
        self.window_s = window_s
        self.metrics = metrics or Metrics()
        self.tracer = tracer or NULL_TRACER
        #: Load shedding: with a delivery callback set, requests that are
        #: already expired when a batch is assembled are answered here —
        #: they never reach a device or count against a batch.
        self.on_expired = on_expired
        self.policy = policy or FifoPolicy(max_batch, window_s)
        #: Module the executor left resident in the slot after the last
        #: batch this scheduler formed — the energy model's starting
        #: point for reconfiguration charges.  Best-effort under multiple
        #: workers (each worker has its own slot; a shared scheduler sees
        #: the union), exact with one worker.
        self._resident: Optional[str] = None
        self._next_id = 0
        self._id_lock = threading.Lock()
        #: Held for the whole of one batch formation (park, fill wait,
        #: take); the next caller waits its turn and takes nothing.
        self._form_lock = threading.Lock()

    def _allocate_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def next_batch(self, timeout_s: Optional[float] = None) -> Optional[Batch]:
        """Take the next batch, blocking up to ``timeout_s`` for the first
        request; None when nothing arrived (timeout or broker closed).

        A caller first waits (up to ``timeout_s``) for any other caller's
        formation to finish, then forms its own batch."""
        if not self._form_lock.acquire(timeout=-1 if timeout_s is None else timeout_s):
            return None
        try:
            return self._form_batch(timeout_s)
        finally:
            self._form_lock.release()

    def _form_batch(self, timeout_s: Optional[float]) -> Optional[Batch]:
        """Park until work exists, let the policy choose group / target
        size / fill wait, then take exactly that group."""
        window_start = self.broker.clock()
        deadline = None if timeout_s is None else window_start + timeout_s
        # Park until work exists (or timeout / close) without taking, so
        # the policy chooses the group.
        while True:
            slice_end = self.broker.clock() + 1.0
            if deadline is not None:
                slice_end = min(slice_end, deadline)
            depth = self.broker.wait_for_depth(1, slice_end)
            if depth > 0:
                break
            if self.broker.closed:
                return None
            if deadline is not None and self.broker.clock() >= deadline:
                return None
        groups = self.broker.group_summary()
        now = self.broker.clock()
        decision = (
            self.policy.decide(groups, now, resident=self._resident) if groups else None
        )
        if decision is None:
            # Everything queued is sitting out a retry backoff: the take
            # knows how to sleep until the earliest release (and how to
            # drain on close), then serves the head request's group.
            remaining = None if deadline is None else max(0.0, deadline - now)
            taken = self.broker.take(self.max_batch, timeout_s=remaining)
        else:
            target = min(decision.target_batch, self.max_batch)
            if decision.wait_until_s > now and target > decision.queued:
                # Fill wait, bounded by the policy: wake early when the
                # queue reaches a full batch.
                self.broker.wait_for_depth(self.max_batch, decision.wait_until_s)
            taken = self.broker.take(target, timeout_s=0.0, select=decision.pipeline)
        if not taken:
            return None
        if self.on_expired is not None:
            taken = self._shed_expired(taken)
            if not taken:
                return None  # every taken request had already expired
        taken_at = self.broker.clock()
        batch = Batch(self._allocate_id(), taken[0].pipeline, taken)
        estimate = (
            self.policy.model.estimate(batch.pipeline, batch.size, resident=self._resident)
            if decision is not None and decision.estimate is not None
            else None
        )
        if self.tracer.enabled:
            assembled_at = self.broker.clock()
            for request in taken:
                if request.trace is not None:
                    request.trace.add(
                        "schedule",
                        window_start,
                        taken_at,
                        window_s=self.window_s,
                        batch_id=batch.batch_id,
                        batch_size=batch.size,
                    )
                    if estimate is not None:
                        request.trace.add(
                            "energy_decision",
                            taken_at,
                            taken_at,
                            batch_id=batch.batch_id,
                            batch_size=batch.size,
                            target_batch=decision.target_batch,
                            pipeline=list(batch.pipeline),
                            predicted_j_per_request=estimate.joules_per_request,
                            predicted_reconfig_j=estimate.reconfig_energy_j,
                        )
                    request.trace.add(
                        "batch_assembly", taken_at, assembled_at, batch_id=batch.batch_id
                    )
        # Stage-major execution leaves the last stage's module resident.
        self._resident = batch.pipeline[-1]
        self.metrics.inc("batches_formed")
        self.metrics.observe("batch_size", batch.size)
        if estimate is not None:
            self.metrics.inc("energy_decisions")
            self.metrics.observe("energy_target_batch", decision.target_batch)
            self.metrics.observe("predicted_j_per_request", estimate.joules_per_request)
        return batch

    def _shed_expired(
        self, taken: List[MeasurementRequest]
    ) -> List[MeasurementRequest]:
        """Answer already-expired requests now, return the live rest."""
        now = self.broker.clock()
        live = [r for r in taken if not r.expired(now)]
        if len(live) == len(taken):
            return taken
        expired = [r for r in taken if r.expired(now)]
        self.metrics.inc("requests_expired", len(expired))
        self.metrics.inc("requests_shed_expired", len(expired))
        self.on_expired(
            [
                MeasurementResponse(
                    request_id=r.request_id,
                    tank_id=r.tank_id,
                    status=STATUS_EXPIRED,
                    latency_s=max(0.0, now - r.submitted_at),
                    attempts=r.attempts,
                    error="deadline exceeded at batch assembly (shed)",
                )
                for r in expired
            ]
        )
        return live


class TankSession:
    """Per-tank measurement state: one analog front end (its own noise
    process) and the smoothed-level filter state."""

    def __init__(self, tank_id: str, circuit, seed: int, noise_rms: float = 0.002):
        self.tank_id = tank_id
        self.frontend = AnalogFrontEnd(circuit, seed=seed, noise_rms=noise_rms)
        self.filter_state: Optional[float] = None
        self.lock = threading.Lock()


class TankStateStore:
    """Sessions for every tank of the fleet, created on first use.

    Seeds derive deterministically from (base seed, tank id), so two
    services configured identically — e.g. a batched and an unbatched
    run being compared — observe identical noise per tank.
    """

    def __init__(self, circuit=None, seed: int = 0, noise_rms: float = 0.002):
        self.circuit = circuit
        self.seed = seed
        self.noise_rms = noise_rms
        self._sessions: Dict[str, TankSession] = {}
        self._lock = threading.Lock()

    def session(self, tank_id: str) -> TankSession:
        with self._lock:
            if tank_id not in self._sessions:
                tank_seed = (self.seed << 16) ^ zlib.crc32(tank_id.encode())
                self._sessions[tank_id] = TankSession(
                    tank_id, self.circuit, tank_seed, noise_rms=self.noise_rms
                )
            return self._sessions[tank_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)


class FaultInjector:
    """Deterministic schedule of transient configuration upsets.

    Each request's *first* attempt faults with probability ``rate``; a
    retry attempt faults again with probability ``retry_rate`` (the upset
    is scrubbed between attempts, but a harsh environment keeps striking).
    The stage hit is drawn uniformly from the request's pipeline, and each
    fault event flips ``burst`` configuration bits — the two axes the
    verifylab campaigns sweep as fault intensity.

    Every draw is a pure function of ``(seed, request_id, attempt)`` via
    :class:`repro.serve.faultrng.CounterRng`: order- and
    composition-independent, and *predictable* (see
    :meth:`predict_stage`), which lets the executor retry faulted
    requests inside their batch and lets the verifylab oracle replay
    mixed faulty/clean batches exactly.
    """

    def __init__(
        self,
        rate: float = 0.0,
        seed: int = 0,
        burst: int = 1,
        retry_rate: float = 0.0,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        if not 0.0 <= retry_rate <= 1.0:
            raise ValueError(f"retry fault rate must be in [0, 1], got {retry_rate}")
        if burst < 1:
            raise ValueError(f"burst size must be >= 1, got {burst}")
        self.rate = rate
        self.retry_rate = retry_rate
        self.burst = burst
        self.seed = seed
        self._counter = CounterRng(seed)
        self._lock = threading.Lock()
        self.fired = 0

    def predict_stage(
        self, request_id: int, attempt: int, n_stages: int
    ) -> Optional[int]:
        """Schedule lookup: the pipeline index at which the given attempt
        faults, or None.  Pure — consumes no state — so a reference
        executor can replay the schedule exactly.

        Raises
        ------
        ValueError
            On a non-positive stage count.
        """
        if n_stages < 1:
            raise ValueError(f"need at least one stage, got {n_stages}")
        rate = self.rate if attempt <= 1 else self.retry_rate
        if rate == 0.0:
            return None
        if self._counter.uniform("strike", request_id, attempt) >= rate:
            return None
        return self._counter.randbelow(n_stages, "stage", request_id, attempt)

    def fault_stage(self, request: MeasurementRequest) -> Optional[int]:
        """Pipeline index at which this attempt faults, or None; counts
        the fault in ``fired``."""
        stage = self.predict_stage(
            request.request_id, request.attempts, len(request.pipeline)
        )
        if stage is not None:
            with self._lock:
                self.fired += 1
        return stage

    def scrub_rng(self, request: MeasurementRequest) -> random.Random:
        """Generator for one scrub event's burst bit positions: each fault
        event gets its own stream keyed on (request, attempt), so the
        draws are identical wherever the event lands in the batch."""
        return self._counter.stream("burst", request.request_id, request.attempts)


@dataclass
class BatchOutcome:
    """Everything one executed batch produced."""

    batch: Batch
    responses: List[MeasurementResponse]
    device_time_s: float = 0.0
    energy_j: float = 0.0
    reconfigurations: int = 0
    reconfigurations_avoided: int = 0
    faults: int = 0
    #: Pipeline sweeps executed (>1 when faulted requests retried in-batch).
    sweeps: int = 1


class _AttemptSlot:
    """One planned ``(request, attempt)`` execution lane of a batch.

    The executor expands every live request into the attempt
    chain its fault schedule predicts; each chain entry becomes one slot
    — one lane of the stage kernels, one context, one row of the batch's
    :class:`LaneBuffers`.  The ``request_id`` property deliberately
    returns the *slot* id: it is the key the vector engine uses to look
    up a lane's context, and two attempts of the same request must not
    share one.  The real request stays reachable via ``request``.
    """

    __slots__ = ("request", "attempt", "fault_stage", "slot_id", "error")

    def __init__(
        self,
        request: MeasurementRequest,
        attempt: int,
        fault_stage: Optional[int],
        slot_id: int,
    ):
        self.request = request
        self.attempt = attempt
        self.fault_stage = fault_stage
        self.slot_id = slot_id
        self.error: Optional[str] = None

    @property
    def request_id(self) -> int:
        return self.slot_id

    @property
    def level(self) -> float:
        return self.request.level

    @property
    def tank_id(self) -> str:
        return self.request.tank_id

    def runs(self, stage_index: int) -> bool:
        """Whether this attempt reaches (and completes) ``stage_index``."""
        return self.fault_stage is None or self.fault_stage > stage_index


class BatchExecutor:
    """Runs batches on one :class:`repro.app.system.FpgaReconfigSystem`.

    Every batch runs **stage-major**: one slot load per pipeline stage
    per batch.  The per-request baseline the benchmarks compare against
    is simply a batch of one (``FleetService(batched=False)``).

    Each stage runs every runnable lane of the batch through one call of
    the batched kernels (:class:`repro.kernels.engine.VectorEngine`).  The
    ground truth they are held to is the per-request replay of the
    module behaviours, :class:`repro.verifylab.ReferenceExecutor`.

    Faulted requests retry *inside the batch*: the fault schedule is a
    pure function of ``(seed, request_id, attempt)``, so the executor
    expands each request's predicted attempt chain up front and keeps
    stage-major execution across retries — every attempt vectorized like
    any other lane, no backoff paid and no straggler batches — see
    :meth:`execute`.
    """

    def __init__(
        self,
        system: FpgaReconfigSystem,
        tanks: TankStateStore,
        fault_injector: Optional[FaultInjector] = None,
        metrics: Optional[Metrics] = None,
        slot_index: int = 0,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
    ):
        self.system = system
        self.tanks = tanks
        self.fault_injector = fault_injector
        self.metrics = metrics or Metrics()
        self.slot_index = slot_index
        self.clock = clock
        self.tracer = tracer or NULL_TRACER
        #: The batch segment currently being executed (tracing only);
        #: the executor is single-threaded per worker, so one slot is
        #: enough for the scrub path to emit into.
        self._seg = None
        # Imported here: the kernels package builds its cache on
        # ``repro.serve.cache``, so a module-level import would be a cycle.
        from repro.kernels.engine import VectorEngine

        self._vector = VectorEngine(system, tracer=self.tracer)
        #: The device cost model every batch is charged through — the same
        #: one the energy policy predicts with.  Stage times are frozen at
        #: build time; a thermal governor reprices the rest.
        self.costs = EnergyModel.from_system(system, slot_index)

    # ------------------------------------------------------------ attribution

    def stage_clock_mhz(self, stage: str) -> float:
        """Clock domain a stage's device work runs in."""
        return FRONTEND_CLOCK_MHZ if stage == "frontend" else self.system.hw_clock_mhz

    def stage_cycles(self, stage: str, n_requests: int = 1) -> int:
        """Simulated device cycles a stage occupies for ``n_requests``."""
        return int(round(
            self.costs.stage_costs[stage].time_s
            * self.stage_clock_mhz(stage) * 1e6 * n_requests
        ))

    # ---------------------------------------------------------------- stages

    def _inject_and_scrub(self, request: MeasurementRequest) -> str:
        """Flip configuration bits, detect them by readback compare, scrub
        the slot, and report the fault description (fabric.faults reuse)."""
        seg = self._seg
        scrub_t0 = self.clock() if seg is not None else 0.0
        controller = self.system.controller
        memory = controller.config_memory
        description = "transient device fault"
        if memory is not None and memory.frame_count:
            burst = self.fault_injector.burst
            faults = memory.inject_burst(burst, self.fault_injector.scrub_rng(request))
            self.metrics.inc("seu_bits_flipped", len(faults))
            golden = controller.golden_bitstream(self.slot_index)
            corrupted = memory.corrupted_frames(golden) if golden else []
            if corrupted:
                # Scrub: restore the golden frames and force the next load
                # of this slot to reconfigure through the port.
                memory.load(golden)
                controller.evict(self.slot_index)
                self.metrics.inc("faults_scrubbed")
            if burst == 1:
                description = f"{faults[0]} in slot {self.slot_index} (scrubbed)"
            else:
                description = (
                    f"burst of {len(faults)} SEUs in slot {self.slot_index} (scrubbed)"
                )
        self.metrics.inc("faults_injected")
        if seg is not None:
            seg.add(
                "seu_scrub",
                scrub_t0,
                self.clock(),
                request_id=request.request_id,
                description=description,
            )
        return description

    # ---------------------------------------------------------------- execute

    def execute(self, batch: Batch, worker: Optional[int] = None) -> BatchOutcome:
        """Run a batch stage-major; returns responses and device accounting.

        Requests already expired at batch entry are answered without
        device work.  Every live request then expands into the attempt
        chain its fault schedule predicts — attempt 1, plus one retry per
        predicted fault while budget lasts — and each ``(request,
        attempt)`` gets its own :class:`_AttemptSlot` lane; a batch
        without faults is the one-attempt case.  Execution stays strictly
        stage-major: each module is loaded **once per batch** and runs
        every attempt that reaches its stage, so a retry costs one extra
        kernel lane instead of a broker requeue (backoff delay, straggler
        batch) or a full pipeline reload.

        Raises
        ------
        ValueError
            If the batch pipeline names an unknown stage.
        """
        unknown = [s for s in batch.pipeline if s not in self.costs.stage_costs]
        if unknown:
            raise ValueError(f"unknown pipeline stage(s) {unknown} in batch {batch.batch_id}")
        now = self.clock()
        responses: List[MeasurementResponse] = []
        live: List[MeasurementRequest] = []
        for request in batch.requests:
            if request.expired(now):
                self.metrics.inc("requests_expired")
                responses.append(
                    MeasurementResponse(
                        request_id=request.request_id,
                        tank_id=request.tank_id,
                        status=STATUS_EXPIRED,
                        latency_s=now - request.submitted_at,
                        attempts=request.attempts,
                        worker=worker,
                        batch_id=batch.batch_id,
                        batch_size=batch.size,
                        error="deadline exceeded before execution",
                    )
                )
            else:
                request.attempts += 1
                live.append(request)

        if not live:  # every request expired — skip all device work
            return BatchOutcome(batch=batch, responses=responses)

        injector = self.fault_injector
        controller = self.system.controller

        # Plan: expand each request's predicted attempt chain.  The
        # injector's draws are pure functions of (request, attempt), so
        # planning consumes nothing and cannot shift any other draw.
        slots: List[_AttemptSlot] = []
        final_slot: Dict[int, _AttemptSlot] = {}
        exhausted: Dict[int, str] = {}
        expired_at: Dict[int, float] = {}
        sweeps = 0
        for request in live:
            rid = request.request_id
            chain = 0
            while True:
                stage_index = (
                    injector.fault_stage(request) if injector is not None else None
                )
                slot = _AttemptSlot(
                    request, request.attempts, stage_index, len(slots)
                )
                slots.append(slot)
                final_slot[rid] = slot
                chain += 1
                if stage_index is None:
                    break  # this attempt completes the pipeline
                if request.attempts >= request.max_attempts:
                    exhausted[rid] = "transient device fault"
                    break
                now = self.clock()
                if request.expired(now):
                    expired_at[rid] = now
                    break
                request.attempts += 1
                self.metrics.inc("requests_retried")
                self.metrics.inc("retries_in_batch")
            sweeps = max(sweeps, chain)
        participants = len(slots)

        lanes = LaneBuffers(participants)
        contexts: Dict[int, dict] = {
            slot.slot_id: {
                "session": self.tanks.session(slot.tank_id),
                "row": slot.slot_id,
            }
            for slot in slots
        }

        # One span segment covers the whole batch; it is grafted into
        # every live request's trace afterwards.  While the segment is
        # the thread's ambient trace, the cache and the kernel engine
        # attach their own spans to it.
        seg = self.tracer.segment(f"batch-{batch.batch_id}") if self.tracer.enabled else None
        if seg is not None:
            seg.begin(
                "execute",
                batch_id=batch.batch_id,
                size=batch.size,
                live=len(live),
                attempts=participants,
                worker=worker,
            )
            self.tracer.push(seg)
        self._seg = seg

        stage_requests: Dict[str, int] = {stage: 0 for stage in batch.pipeline}
        loads = []
        faults = 0
        try:
            for stage_index, stage in enumerate(batch.pipeline):
                if seg is not None:
                    seg.begin(
                        f"stage:{stage}",
                        batch_id=batch.batch_id,
                        stage=stage,
                    )
                    reconfig_t0 = self.clock()
                record = controller.load(stage, self.slot_index)
                loads.append(record)
                if seg is not None:
                    seg.add(
                        "reconfig",
                        reconfig_t0,
                        self.clock(),
                        batch_id=batch.batch_id,
                        stage=stage,
                        module=record.module,
                        cached=record.config.bitstream_bytes == 0,
                        device_time_s=record.total_time_s,
                        energy_j=record.energy_j,
                    )
                    compute_t0 = self.clock()
                    seg.begin(
                        "compute",
                        t0=compute_t0,
                        batch_id=batch.batch_id,
                        stage=stage,
                    )
                started = time.perf_counter()
                occupied = 0
                runnable: List[_AttemptSlot] = []
                for slot in slots:
                    if slot.fault_stage == stage_index:
                        # The strike lands while this module is loaded;
                        # scrub draws are keyed on (request, attempt), so
                        # the attempt number is restored around the call.
                        occupied += 1
                        faults += 1
                        request = slot.request
                        attempts_now = request.attempts
                        request.attempts = slot.attempt
                        slot.error = self._inject_and_scrub(request)
                        request.attempts = attempts_now
                        continue
                    if slot.runs(stage_index):
                        occupied += 1
                        runnable.append(slot)
                self._vector.run_stage(stage, runnable, contexts, lanes)
                elapsed = time.perf_counter() - started
                self.metrics.observe(f"stage_{stage}_s", elapsed)
                stage_requests[stage] += occupied
                if seg is not None:
                    seg.end("compute", t1=compute_t0 + elapsed, wall_s=elapsed)
                    seg.end(
                        f"stage:{stage}",
                        requests=occupied,
                        cycles=self.stage_cycles(stage, occupied),
                        # Per-stage attribution, as Table 2 attributes
                        # per-net power.
                        energy_j=self.costs.stage_costs[stage].dynamic_j * occupied,
                    )
        finally:
            self._seg = None
            if seg is not None:
                self.tracer.pop()
        for rid, slot in final_slot.items():
            if rid in exhausted and slot.error is not None:
                exhausted[rid] = slot.error

        reconfigs = sum(1 for r in loads if r.config.bitstream_bytes > 0)
        # The naive baseline would pay the full pipeline per *attempt*.
        would_be = len(batch.pipeline) * participants
        avoided = max(0, would_be - reconfigs)
        reconfig_energy = sum(r.energy_j for r in loads)
        device_time, energy = self.costs.charge(
            batch.pipeline,
            stage_requests,
            participants,
            sum(r.total_time_s for r in loads),
            reconfig_energy,
        )
        share = energy / len(live)
        if seg is not None:
            seg.end(
                "execute",
                device_time_s=device_time,
                energy_j=energy,
                reconfigurations=reconfigs,
                reconfigurations_avoided=avoided,
                sweeps=sweeps,
            )
            for request in live:
                if request.trace is not None:
                    request.trace.extend(seg)

        end = self.clock()
        for request in live:
            rid = request.request_id
            if rid in exhausted:
                self.metrics.inc("requests_failed")
                response = MeasurementResponse(
                    request_id=rid,
                    tank_id=request.tank_id,
                    status=STATUS_FAILED,
                    energy_j=share,
                    device_time_s=device_time,
                    latency_s=end - request.submitted_at,
                    attempts=request.attempts,
                    worker=worker,
                    batch_id=batch.batch_id,
                    batch_size=batch.size,
                    error=exhausted[rid],
                )
            elif rid in expired_at:
                self.metrics.inc("requests_expired")
                response = MeasurementResponse(
                    request_id=rid,
                    tank_id=request.tank_id,
                    status=STATUS_EXPIRED,
                    latency_s=expired_at[rid] - request.submitted_at,
                    attempts=request.attempts,
                    worker=worker,
                    batch_id=batch.batch_id,
                    batch_size=batch.size,
                    error="deadline exceeded between in-batch retry sweeps",
                )
            else:
                row = final_slot[rid].slot_id
                lv = lanes.level[row]
                c = lanes.c_pf[row]
                level = float(lv) if lv == lv else None
                c_pf = float(c) if c == c else None
                self.metrics.inc("requests_served")
                response = MeasurementResponse(
                    request_id=rid,
                    tank_id=request.tank_id,
                    status=STATUS_OK,
                    level_measured=level,
                    capacitance_pf=c_pf,
                    energy_j=share,
                    device_time_s=device_time,
                    latency_s=end - request.submitted_at,
                    attempts=request.attempts,
                    worker=worker,
                    batch_id=batch.batch_id,
                    batch_size=batch.size,
                )
            responses.append(response)

        self.metrics.inc("reconfigurations", reconfigs)
        self.metrics.inc("reconfigurations_avoided", avoided)
        self.metrics.add("device_time_s", device_time)
        self.metrics.add("energy_j", energy)
        self.metrics.observe("joules_per_request", share)
        if injector is not None:
            self.metrics.observe("fault_sweeps", sweeps)
        self.metrics.add("reconfig_energy_j", reconfig_energy)
        return BatchOutcome(
            batch=batch,
            responses=responses,
            device_time_s=device_time,
            energy_j=energy,
            reconfigurations=reconfigs,
            reconfigurations_avoided=avoided,
            faults=faults,
            sweeps=sweeps,
        )
