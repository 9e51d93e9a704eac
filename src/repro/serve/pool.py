"""Thread-based worker pool of reconfigurable measurement systems.

Each :class:`FleetWorker` owns one simulated
:class:`repro.app.system.FpgaReconfigSystem` (its own configuration port,
controller and configuration-memory mirror) and pulls batches from the
shared :class:`repro.serve.batching.BatchScheduler`.  The pool shares one
:class:`repro.serve.cache.ArtifactCache`, so partial bitstreams are
generated once for the whole fleet, and one
:class:`repro.serve.batching.TankStateStore`, so a tank's filter state
follows it whichever worker serves it.

:class:`FleetService` is the facade: submit requests (bounded, with
backpressure and overload shedding), await responses, read a metrics
snapshot, shut down gracefully (drain) or immediately.  With supervision
enabled (the default) a :class:`repro.serve.supervisor.WorkerSupervisor`
heartbeat-checks the pool, restarts workers whose thread died mid-batch
(re-delivering their in-flight requests) and circuit-breaks workers whose
executor keeps faulting.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.app.system import FpgaReconfigSystem, SystemConfig
from repro.fabric.faults import ConfigurationMemory
from repro.reconfig.controller import ReconfigController
from repro.reconfig.ports import ConfigPort, Icap
from repro.serve.batching import (
    Batch,
    BatchExecutor,
    BatchScheduler,
    FaultInjector,
    FifoPolicy,
    TankStateStore,
)
from repro.serve.cache import ArtifactCache, CachingBitstreamGenerator
from repro.serve.energy import DEFAULT_FILL_WINDOW_S, EnergyModel, EnergyPolicy
from repro.serve.metrics import Metrics
from repro.serve.requests import (
    STATUS_FAILED,
    BrokerFullError,
    MeasurementRequest,
    MeasurementResponse,
    OverloadShedError,
    RequestBroker,
    RetryPolicy,
    priority_class,
)
from repro.serve.supervisor import (
    AdmissionController,
    CircuitBreaker,
    SupervisorConfig,
    WorkerSupervisor,
)
from repro.trace.tracer import NULL_TRACER, Tracer

#: The batch-formation policy a :class:`FleetService` uses unless told
#: otherwise: the energy policy's fill wait keeps batches together when
#: the executor is fast.
DEFAULT_POLICY = "energy"
#: Every batch-formation policy a :class:`FleetService` accepts.
POLICIES = (DEFAULT_POLICY, "fifo")


class FleetWorker(threading.Thread):
    """One serving thread around one simulated FPGA system.

    An idle worker blocks inside the broker's condition variable and
    wakes only when a request arrives or the broker closes — no spinning;
    every wakeup without a batch is counted in ``worker_idle_wakeups``.
    """

    def __init__(
        self,
        worker_id: int,
        scheduler: BatchScheduler,
        broker: RequestBroker,
        executor: BatchExecutor,
        deliver: Callable[[List[MeasurementResponse]], None],
        metrics: Metrics,
        breaker: Optional[CircuitBreaker] = None,
        admission: Optional[AdmissionController] = None,
        chaos=None,
        thermal=None,
    ):
        super().__init__(name=f"fleet-worker-{worker_id}", daemon=True)
        self.worker_id = worker_id
        self.scheduler = scheduler
        self.broker = broker
        self.executor = executor
        self.deliver = deliver
        self.metrics = metrics
        self.breaker = breaker
        self.admission = admission
        self.chaos = chaos
        self.thermal = thermal
        self.energy_j = 0.0
        self.device_time_s = 0.0
        self.requests_served = 0
        self.batches_executed = 0
        self._halt = threading.Event()
        #: Supervision state: last loop heartbeat (on the broker clock),
        #: the batch taken but not yet fully delivered, and the exception
        #: that killed the serving loop (None on a normal exit).
        self.last_heartbeat = broker.clock()
        #: True while the worker is inside the scheduler, waiting for work
        #: or for its turn to form a batch: waiting is not a stall.
        self.waiting_for_batch = False
        self.current_batch: Optional[Batch] = None
        self.failure: Optional[BaseException] = None

    @property
    def system(self) -> FpgaReconfigSystem:
        return self.executor.system

    def stop(self) -> None:
        """Ask the worker to exit after its current batch."""
        self._halt.set()

    def run(self) -> None:  # pragma: no cover - exercised via FleetService
        try:
            self._serve_loop()
        except BaseException as exc:  # crash: recorded for the supervisor
            self.failure = exc
            self.metrics.inc("worker_crashes")

    def _serve_loop(self) -> None:
        clock = self.broker.clock
        while not self._halt.is_set():
            self.last_heartbeat = clock()
            if self.breaker is not None and not self.breaker.allow():
                # Quarantined: sit out the cooldown without taking batches
                # (short waits keep shutdown responsive).
                self.metrics.inc("worker_quarantine_waits")
                if self.broker.closed and self.broker.depth == 0:
                    break
                self._halt.wait(
                    min(0.05, max(0.001, self.breaker.cooldown_remaining_s()))
                )
                continue
            self.waiting_for_batch = True
            batch = self.scheduler.next_batch(timeout_s=None)
            self.last_heartbeat = clock()
            self.waiting_for_batch = False
            if batch is None:
                self.metrics.inc("worker_idle_wakeups")
                if self.broker.closed and self.broker.depth == 0:
                    break
                continue
            self.current_batch = batch
            if self.chaos is not None:
                # May raise WorkerCrash (a BaseException): the thread dies
                # with the batch in flight and the supervisor takes over.
                self.chaos.on_batch(self.worker_id, batch)
            started = time.perf_counter()
            try:
                if self.chaos is not None:
                    self.chaos.on_execute(self.worker_id, batch)
                outcome = self.executor.execute(batch, worker=self.worker_id)
            except Exception as exc:  # defensive: never strand a batch
                self._handle_failed_batch(batch, exc)
                self.current_batch = None
                continue
            wall_s = time.perf_counter() - started
            if self.breaker is not None:
                self.breaker.record_success()
            if self.admission is not None:
                self.admission.observe_batch(batch.size, wall_s)
            self.metrics.observe("batch_exec_s", wall_s)
            self.energy_j += outcome.energy_j
            self.device_time_s += outcome.device_time_s
            self.requests_served += sum(1 for r in outcome.responses if r.ok)
            self.batches_executed += 1
            if self.thermal is not None:
                # Simulated dissipation only: the junction trajectory (and
                # any derating it triggers) is host-independent.
                self.thermal.on_batch(
                    self.worker_id, outcome.energy_j, outcome.device_time_s
                )
            self.deliver(outcome.responses)
            self.current_batch = None

    def _handle_failed_batch(self, batch: Batch, exc: Exception) -> None:
        """A batch whose execution raised: count it against the breaker,
        retry requests with attempt budget left, fail the rest with their
        real submit→respond latency."""
        self.metrics.inc("worker_errors")
        if self.breaker is not None:
            self.breaker.record_failure()
        now = self.broker.clock()
        failed: List[MeasurementResponse] = []
        for request in batch.requests:
            # The failed batch consumed (at least) one attempt.  Executor
            # exceptions can strike before or after ``execute`` increments
            # the counter, so this may overcount by one — the safe
            # direction: budgets shrink, retry loops always terminate.
            request.attempts += 1
            if request.attempts < request.max_attempts:
                delay = self.broker.requeue(request)
                self.metrics.inc("requests_retried")
                self.metrics.observe("retry_backoff_s", delay)
                continue
            failed.append(
                MeasurementResponse(
                    request_id=request.request_id,
                    tank_id=request.tank_id,
                    status=STATUS_FAILED,
                    latency_s=max(0.0, now - request.submitted_at),
                    attempts=request.attempts,
                    worker=self.worker_id,
                    batch_id=batch.batch_id,
                    batch_size=batch.size,
                    error=f"worker error: {exc}",
                )
            )
        if failed:
            self.metrics.inc("requests_failed", len(failed))
            self.deliver(failed)

    def accounting(self) -> Dict[str, float]:
        """Per-worker power/energy bookkeeping."""
        avg_power = self.energy_j / self.device_time_s if self.device_time_s else 0.0
        return {
            "device": self.system.device.name,
            "batches": self.batches_executed,
            "requests_served": self.requests_served,
            "energy_j": self.energy_j,
            "device_time_s": self.device_time_s,
            "avg_power_w": avg_power,
        }


class FleetService:
    """Measurement-as-a-service: broker + scheduler + worker pool.

    ``max_batch=1`` turns the service into the naive per-request
    baseline (one slot load per stage per request) that the throughput
    gate in ``tests/test_serve.py`` compares against.

    ``policy`` picks batch formation from :data:`POLICIES`: ``"energy"``
    (the default; joules/request-driven, with a bounded fill wait) or
    ``"fifo"`` (the head request's pipeline group).  At ``max_batch=1``
    the energy policy targets batches of one and never waits to fill.

    Every batch runs on the vector kernels (:mod:`repro.kernels`).
    ``engine`` accepts only ``"vector"`` and any other value raises
    ``ValueError``; the keyword stays only because the performance
    benchmark (``benchmarks/perf/workload.py``) passes it.
    """

    def __init__(
        self,
        workers: int = 2,
        max_batch: int = 16,
        queue_capacity: int = 256,
        window_s: float = 0.0,
        fault_rate: float = 0.0,
        seed: int = 0,
        config: Optional[SystemConfig] = None,
        port_factory: Callable[[], ConfigPort] = Icap,
        cache: Optional[ArtifactCache] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        noise_rms: float = 0.002,
        fault_injector: Optional[FaultInjector] = None,
        engine: str = "vector",
        tracer: Optional[Tracer] = None,
        supervise: bool = True,
        supervisor_config: Optional[SupervisorConfig] = None,
        chaos=None,
        on_deliver: Optional[Callable[[List[MeasurementResponse]], None]] = None,
        policy: str = DEFAULT_POLICY,
        corrector: Optional[
            Callable[[MeasurementResponse], MeasurementResponse]
        ] = None,
        thermal=None,
    ):
        if engine != "vector":
            raise ValueError(f"engine must be 'vector', got {engine!r}")
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.policy = policy
        #: Optional push seam: called with every batch of terminal
        #: responses after they are recorded (a shard worker uses this to
        #: pump responses over its wire transport).  Exceptions are
        #: counted, never propagated — a broken downstream must not look
        #: like a crashed worker.
        self.on_deliver = on_deliver
        #: Optional response rewrite applied at delivery, before recording
        #: and the push seam above.  The drift scenarios use it to map
        #: each raw reading through the tank's live
        #: :class:`CalibrationTable`.
        self.corrector = corrector
        #: Optional :class:`repro.serve.thermal.ThermalGovernor`; bound
        #: after the workers are built, fed by every executed batch.
        self.thermal = thermal
        self.clock = clock
        self.metrics = Metrics()
        self.tracer = tracer or NULL_TRACER
        self.supervisor_config = supervisor_config or SupervisorConfig()
        self.chaos = chaos
        self.cache = cache or ArtifactCache()
        if self.tracer.enabled and self.cache.tracer is None:
            # Attach before the workers are built: bitstream generation
            # during construction is exactly the cold-start cost worth
            # seeing in the runtime trace.
            self.cache.tracer = self.tracer
        self.broker = RequestBroker(
            queue_capacity, retry=retry, clock=clock, tracer=self.tracer
        )
        self.scheduler = BatchScheduler(
            self.broker,
            max_batch=max_batch,
            window_s=window_s,
            metrics=self.metrics,
            tracer=self.tracer,
            # Graceful degradation under overload: requests that expired
            # while queued are answered at batch-assembly time instead of
            # occupying a device slot.
            on_expired=self._deliver if self.supervisor_config.shed_expired else None,
        )
        self.config = config or SystemConfig()
        self.tanks = TankStateStore(
            circuit=self.config.circuit, seed=seed, noise_rms=noise_rms
        )
        # An explicit injector (burst sizes, retry-attempt strikes — see the
        # verifylab fault campaigns) wins over the simple ``fault_rate`` knob.
        if fault_injector is not None:
            self.fault_injector: Optional[FaultInjector] = fault_injector
        else:
            self.fault_injector = (
                FaultInjector(fault_rate, seed=seed) if fault_rate > 0 else None
            )
        self._port_factory = port_factory
        self.admission = (
            AdmissionController(workers, alpha=self.supervisor_config.admission_alpha)
            if self.supervisor_config.shed_early
            else None
        )
        self.workers: List[FleetWorker] = []
        for worker_id in range(workers):
            self.workers.append(self.build_worker(worker_id))
        # Built after the workers: the energy policy predicts with the
        # cost model the executors charge through, read off a live system
        # (identical across workers — same config, port and cache).
        if policy == "energy":
            self.scheduler.policy = EnergyPolicy(
                EnergyModel.from_system(self.workers[0].executor.system),
                max_batch=self.scheduler.max_batch,
                fill_window_s=window_s if window_s > 0 else DEFAULT_FILL_WINDOW_S,
                admission=self.admission,
            )
        else:
            self.scheduler.policy = FifoPolicy(self.scheduler.max_batch, window_s)
        if self.thermal is not None:
            self.thermal.bind(self)
        self.supervisor: Optional[WorkerSupervisor] = (
            WorkerSupervisor(self, self.supervisor_config) if supervise else None
        )
        self._responses: List[MeasurementResponse] = []
        self._done = threading.Condition()
        self._state_lock = threading.Lock()
        #: request_id -> priority tier, set at submit and popped at
        #: delivery: responses stay priority-free (their wire encoding is
        #: frozen — see ``repro.shard.wire.response_to_wire``), so the
        #: per-class latency split lives on the service side.
        self._priorities: Dict[int, int] = {}
        self._priority_lock = threading.Lock()
        self._started = False
        self._start_time: Optional[float] = None
        self._stop_time: Optional[float] = None

    def build_worker(self, worker_id: int) -> FleetWorker:
        """Build one worker around a fresh simulated system.

        Also the supervisor's restart path: the replacement's
        ``FpgaReconfigSystem`` rebuilds its bitstreams and slot
        implementations through the shared :class:`ArtifactCache`, so a
        restart costs cache rehydration, not regeneration.
        """
        config_memory = ConfigurationMemory()
        system = FpgaReconfigSystem(
            config=self.config,
            port=self._port_factory(),
            controller_factory=lambda floorplan, port, mem=config_memory: ReconfigController(
                floorplan,
                port,
                generator=CachingBitstreamGenerator(floorplan.device, self.cache),
                config_memory=mem,
            ),
        )
        executor = BatchExecutor(
            system,
            self.tanks,
            fault_injector=self.fault_injector,
            metrics=self.metrics,
            clock=self.clock,
            tracer=self.tracer,
        )
        return FleetWorker(
            worker_id,
            self.scheduler,
            self.broker,
            executor,
            self._deliver,
            self.metrics,
            breaker=CircuitBreaker(
                threshold=self.supervisor_config.breaker_threshold,
                cooldown_s=self.supervisor_config.breaker_cooldown_s,
                clock=self.clock,
                metrics=self.metrics,
                tracer=self.tracer,
                name=f"worker-{worker_id}",
            ),
            admission=self.admission,
            chaos=self.chaos,
            thermal=self.thermal,
        )

    # ----------------------------------------------------------- lifecycle

    def start(self) -> "FleetService":
        """Start the worker threads and the supervisor (idempotent);
        returns self."""
        if not self._started:
            self._started = True
            with self._state_lock:
                if self._start_time is None:
                    self._start_time = self.clock()
            for worker in self.workers:
                # A supervisor restart may already have started a
                # replacement worker before the service itself started.
                if worker.ident is None:
                    worker.start()
            if self.supervisor is not None:
                self.supervisor.start()
        return self

    def shutdown(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Stop the pool; with ``drain`` the queue is served to empty
        first, otherwise queued requests are abandoned.  Returns True when
        every worker exited within the timeout.  All timing runs on the
        injected service clock so fake-clock tests control the timeout."""
        if self.supervisor is not None:
            # Stop supervision first: workers exiting on the closed broker
            # below must not be mistaken for crashes and restarted.
            self.supervisor.stop()
        self.broker.close()
        if not drain:
            for worker in self.workers:
                worker.stop()
        deadline = self.clock() + timeout_s
        clean = True
        for worker in self.workers:
            if not worker.is_alive():
                continue
            worker.join(max(0.0, deadline - self.clock()))
            clean = clean and not worker.is_alive()
        self._stop_time = self.clock()
        return clean

    # ------------------------------------------------------------- requests

    def submit(self, request: MeasurementRequest) -> None:
        """Submit one request.

        Raises
        ------
        OverloadShedError
            Early shed: the estimated queue delay already exceeds the
            request's deadline budget (only for not-yet-expired deadlines,
            and only once the admission controller has observed service
            times — a cold service never sheds).
        BrokerFullError
            Backpressure: the queue is full; retry after the hinted delay.
        """
        with self._state_lock:
            # Guarded check-then-set: two racing first submits must not
            # both write the epoch (the later one would shrink ``elapsed``
            # and inflate every derived rate).
            if self._start_time is None:
                self._start_time = self.clock()
        if self.admission is not None and request.deadline_s is not None:
            now = self.clock()
            # Effective depth for the request's tier: an alarm request
            # overtakes the routine backlog, so only the alarm-or-higher
            # queue counts against its deadline.  shed(alarm) therefore
            # implies shed(routine) for equal deadlines — alarms are never
            # shed first.
            depth = self.broker.depth_ahead_of(request.priority)
            if self.admission.should_shed(
                request.deadline_s, now, depth, priority=request.priority
            ):
                self.metrics.inc("requests_shed_early")
                self.metrics.inc(
                    f"requests_shed_early_{priority_class(request.priority)}"
                )
                raise OverloadShedError(
                    self.admission.estimated_delay_s(depth),
                    request.deadline_s - now,
                )
        if request.priority > 0:
            # Registered before submit: a worker may deliver the response
            # before submit() returns.  Rolled back on rejection below.
            # Routine (tier 0) requests skip the registry — the pop below
            # defaults to 0 — so the dict only ever holds in-flight
            # elevated requests.
            with self._priority_lock:
                self._priorities[request.request_id] = request.priority
        try:
            self.broker.submit(request)
        except BrokerFullError:
            with self._priority_lock:
                self._priorities.pop(request.request_id, None)
            raise

    def submit_many(
        self, requests: Iterable[MeasurementRequest]
    ) -> Tuple[int, List[MeasurementRequest]]:
        """Submit a stream; returns (accepted count, rejected requests)."""
        accepted = 0
        rejected: List[MeasurementRequest] = []
        for request in requests:
            try:
                self.submit(request)
                accepted += 1
            except BrokerFullError:
                rejected.append(request)
        return accepted, rejected

    def _deliver(self, responses: List[MeasurementResponse]) -> None:
        if self.corrector is not None:
            corrected = []
            for response in responses:
                try:
                    corrected.append(self.corrector(response))
                except Exception:
                    # A broken corrector must not eat the response: deliver
                    # the raw reading and count the failure.
                    self.metrics.inc("corrector_errors")
                    corrected.append(response)
            responses = corrected
        if self.tracer.enabled:
            # Terminate traces before taking the delivery lock: finishing
            # may export (file IO) and must not serialize against callers
            # of responses()/await_responses().
            for response in responses:
                self.tracer.finish(
                    response.request_id,
                    status=response.status,
                    latency_s=response.latency_s,
                    energy_j=response.energy_j,
                    device_time_s=response.device_time_s,
                    attempts=response.attempts,
                    worker=response.worker,
                    batch_id=response.batch_id,
                    batch_size=response.batch_size,
                )
        with self._done:
            for response in responses:
                self._responses.append(response)
                self.metrics.observe("latency_s", response.latency_s)
                with self._priority_lock:
                    priority = self._priorities.pop(response.request_id, 0)
                self.metrics.observe(
                    f"latency_{priority_class(priority)}_s", response.latency_s
                )
            self._done.notify_all()
        if self.on_deliver is not None:
            try:
                self.on_deliver(responses)
            except Exception:
                self.metrics.inc("deliver_callback_errors")

    def responses(self) -> List[MeasurementResponse]:
        with self._done:
            return list(self._responses)

    def await_responses(self, count: int, timeout_s: float = 30.0) -> bool:
        """Block until ``count`` terminal responses exist (True) or the
        timeout elapses (False).  The timeout runs on the injected service
        clock, so fake-clock tests control it."""
        deadline = self.clock() + timeout_s
        with self._done:
            while len(self._responses) < count:
                remaining = deadline - self.clock()
                if remaining <= 0:
                    return False
                self._done.wait(remaining)
            return True

    # -------------------------------------------------------------- metrics

    def metrics_snapshot(self) -> dict:
        """One dict with everything: service counters, latency/batch-size
        histograms, broker stats, cache stats, per-worker accounting and
        the headline derived rates."""
        snap = self.metrics.snapshot()
        served = snap["counters"].get("requests_served", 0)
        energy = snap["gauges"].get("energy_j", 0.0)
        end = self._stop_time if self._stop_time is not None else self.clock()
        with self._state_lock:
            start = self._start_time
        # No time base yet (nothing submitted or started): report zero
        # throughput instead of dividing by an epsilon epoch.
        elapsed = max(1e-9, end - start) if start is not None else 0.0
        reconfigs = snap["counters"].get("reconfigurations", 0)
        avoided = snap["counters"].get("reconfigurations_avoided", 0)
        snap["service"] = {
            "policy": self.policy,
            "workers": len(self.workers),
            "elapsed_s": elapsed,
            "requests_per_s": served / elapsed if elapsed > 0 else 0.0,
            "joules_per_request": energy / served if served else 0.0,
            "reconfigurations": reconfigs,
            "reconfigurations_avoided": avoided,
            "tanks": len(self.tanks),
        }
        snap["broker"] = {
            "depth": self.broker.depth,
            "capacity": self.broker.capacity,
            "submitted": self.broker.submitted,
            "rejected": self.broker.rejected,
            "requeued": self.broker.requeued,
            "redelivered": self.broker.redelivered,
        }
        snap["supervisor"] = (
            self.supervisor.snapshot()
            if self.supervisor is not None
            else {"enabled": False}
        )
        snap["supervisor"]["breakers"] = {
            w.worker_id: w.breaker.snapshot()
            for w in self.workers
            if w.breaker is not None
        }
        if self.admission is not None:
            snap["supervisor"]["admission"] = self.admission.snapshot()
        if self.chaos is not None:
            snap["chaos"] = self.chaos.snapshot()
        if self.thermal is not None:
            snap["thermal"] = self.thermal.snapshot()
        snap["cache"] = self.cache.snapshot()
        from repro.kernels.cache import KERNEL_CACHE

        snap["kernel_cache"] = KERNEL_CACHE.snapshot()
        snap["workers"] = {w.worker_id: w.accounting() for w in self.workers}
        if self.tracer.enabled:
            snap["trace"] = self.tracer.snapshot()
        return snap
