"""Fleet supervision: heartbeats, worker restart, circuit breaking, shedding.

The paper's device survives configuration upsets because scrub-and-retry
is built into the serving loop; this module gives the *runtime itself*
the same property.  Three mechanisms, one supervisor thread:

* **Worker supervision** — every :class:`repro.serve.pool.FleetWorker`
  stamps a heartbeat each loop iteration; the :class:`WorkerSupervisor`
  periodically sweeps the pool and, when a worker thread died mid-batch,
  re-delivers its in-flight requests to the head of the broker queue
  (:meth:`repro.serve.requests.RequestBroker.restore`) and rebuilds the
  worker — a fresh ``FpgaReconfigSystem`` whose bitstreams and slot
  implementations rehydrate from the shared ``ArtifactCache`` instead of
  being regenerated.
* **Circuit breaking** — a per-worker :class:`CircuitBreaker` quarantines
  a worker whose executor keeps faulting: after ``threshold`` consecutive
  failed batches the breaker opens (the worker stops taking batches),
  after ``cooldown_s`` it half-opens for a single probe batch, and the
  probe's outcome either closes it again or re-opens it.  Trips, probes
  and resets are counted in :class:`repro.serve.metrics.Metrics` and
  marked in the runtime trace (:meth:`repro.trace.tracer.Tracer.event`).
* **Load shedding** — :class:`AdmissionController` keeps an EWMA of the
  observed per-request service time and rejects a new submit early
  (:class:`repro.serve.requests.OverloadShedError`) when the estimated
  queue delay already exceeds the request's deadline budget; the batch
  scheduler additionally answers already-expired requests at batch
  assembly time so they never occupy a device.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.serve.metrics import Metrics
from repro.trace.tracer import NULL_TRACER, Tracer

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the supervision layer (all durations on the service clock,
    except ``interval_s`` which paces the supervisor's real-time sweep)."""

    #: Supervisor sweep period (real time between pool health checks).
    interval_s: float = 0.05
    #: A live worker whose heartbeat is older than this is counted stalled,
    #: unless it is waiting in the scheduler for a batch.
    heartbeat_timeout_s: float = 5.0
    #: Restart budget per worker id; beyond it the worker is abandoned
    #: (a crash loop must not become a restart loop).
    max_restarts_per_worker: int = 5
    #: Consecutive failed batches before a worker's breaker opens.
    breaker_threshold: int = 3
    #: Quarantine duration before the half-open probe.
    breaker_cooldown_s: float = 0.25
    #: EWMA weight of the newest batch observation in the admission estimator.
    admission_alpha: float = 0.25
    #: Answer already-expired requests at batch-assembly time.
    shed_expired: bool = True
    #: Reject submits whose deadline the estimated queue delay already exceeds.
    shed_early: bool = True

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError(f"interval must be positive, got {self.interval_s}")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat timeout must be positive, got {self.heartbeat_timeout_s}"
            )
        if self.max_restarts_per_worker < 0:
            raise ValueError(
                f"restart budget must be >= 0, got {self.max_restarts_per_worker}"
            )
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_s < 0:
            raise ValueError(
                f"breaker cooldown must be >= 0, got {self.breaker_cooldown_s}"
            )
        if not 0.0 < self.admission_alpha <= 1.0:
            raise ValueError(
                f"admission alpha must be in (0, 1], got {self.admission_alpha}"
            )


class CircuitBreaker:
    """Per-worker quarantine for a persistently faulting executor.

    State machine: ``closed`` (serving) → ``open`` after ``threshold``
    consecutive failures (quarantined for ``cooldown_s``) → ``half-open``
    (one probe batch) → ``closed`` on probe success / ``open`` again on
    probe failure.  Thread-safe; each worker drives its own breaker from
    its serving loop, the supervisor and snapshots only read it.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Tracer] = None,
        name: str = "",
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_s < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown_s}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.metrics = metrics or Metrics()
        self.tracer = tracer or NULL_TRACER
        self.name = name
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.trips = 0
        self.resets = 0
        self.probes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May the worker take another batch right now?  An open breaker
        whose cooldown has elapsed transitions to half-open and allows
        exactly the probe batch through."""
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                if self.clock() - self._opened_at < self.cooldown_s:
                    return False
                self._state = BREAKER_HALF_OPEN
                self.probes += 1
                self.metrics.inc("breaker_probes")
                self.tracer.event("breaker_probe", breaker=self.name)
            # Half-open: the single probe batch is in flight.
            return True

    def cooldown_remaining_s(self) -> float:
        """Seconds of quarantine left (0 when not open)."""
        with self._lock:
            if self._state != BREAKER_OPEN:
                return 0.0
            return max(0.0, self.cooldown_s - (self.clock() - self._opened_at))

    def record_success(self) -> None:
        with self._lock:
            if self._state != BREAKER_CLOSED:
                self.resets += 1
                self.metrics.inc("breaker_resets")
                self.tracer.event("breaker_reset", breaker=self.name)
            self._state = BREAKER_CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == BREAKER_HALF_OPEN:
                # The probe failed: straight back to quarantine.
                self._trip_locked()
            elif (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.threshold
            ):
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = BREAKER_OPEN
        self._opened_at = self.clock()
        self.trips += 1
        self.metrics.inc("breaker_trips")
        self.tracer.event(
            "breaker_trip",
            breaker=self.name,
            consecutive_failures=self._consecutive_failures,
        )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self.trips,
                "resets": self.resets,
                "probes": self.probes,
            }


class AdmissionController:
    """Early-shed decision from an EWMA of observed batch service time.

    Workers report ``(batch size, wall seconds)`` after every successful
    batch; the controller keeps a per-request service-time EWMA and
    estimates the delay a newly submitted request would see as
    ``depth * per_request_s / workers``.  With no observations yet the
    estimate is 0 and nothing is shed (never reject on a cold start).
    """

    def __init__(self, workers: int, alpha: float = 0.25):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.workers = workers
        self.alpha = alpha
        self._lock = threading.Lock()
        self._per_request_s: Optional[float] = None
        self.observed_batches = 0

    def observe_batch(self, n_requests: int, wall_s: float) -> None:
        if n_requests < 1 or wall_s < 0:
            return
        per_request = wall_s / n_requests
        with self._lock:
            self.observed_batches += 1
            if self._per_request_s is None:
                self._per_request_s = per_request
            else:
                self._per_request_s += self.alpha * (per_request - self._per_request_s)

    def per_request_s(self) -> float:
        with self._lock:
            return self._per_request_s or 0.0

    def estimated_delay_s(self, depth: int) -> float:
        """Expected queueing delay for a request arriving behind ``depth``
        already-queued requests."""
        if depth <= 0:
            return 0.0
        return depth * self.per_request_s() / self.workers

    def should_shed(
        self,
        deadline_s: Optional[float],
        now: float,
        depth: int,
        priority: int = 0,
    ) -> bool:
        """Shed only requests that are *not yet* expired but cannot make
        their deadline through the current queue — an already-expired
        submit still flows through and is answered ``expired``.

        ``depth`` must already be the *effective* depth for the request's
        tier (the broker's :meth:`depth_ahead_of` — an alarm request sees
        only the alarm-or-higher backlog, since it overtakes everything
        below).  ``priority`` is accepted so policies can weight tiers
        further; the base controller sheds purely on effective delay,
        which already guarantees an alarm request is never shed while a
        routine request with the same deadline would be admitted: the
        alarm's effective depth is a subset of the routine's, so
        shed(alarm) implies shed(routine)."""
        del priority  # tier already folded into the effective depth
        if deadline_s is None or deadline_s <= now:
            return False
        return now + self.estimated_delay_s(depth) > deadline_s

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "observed_batches": self.observed_batches,
                "per_request_s": self._per_request_s or 0.0,
            }


class WorkerSupervisor(threading.Thread):
    """Health-checks the pool and restarts workers whose thread died.

    The supervisor holds the service loosely: it needs the broker (to
    restore in-flight requests), the mutable worker list, and a factory
    that rebuilds one worker by id — exactly what
    :class:`repro.serve.pool.FleetService` provides.  A worker counts as
    *crashed* when its thread is no longer alive and it recorded a
    failure (normal exits — halt or drained close — never do).
    """

    def __init__(
        self,
        service: "object",
        config: Optional[SupervisorConfig] = None,
    ):
        super().__init__(name="fleet-supervisor", daemon=True)
        self.service = service
        self.config = config or SupervisorConfig()
        self.metrics: Metrics = service.metrics
        self.tracer: Tracer = getattr(service, "tracer", None) or NULL_TRACER
        self._stop_event = threading.Event()
        self._lock = threading.Lock()
        self.restarts: Dict[int, int] = {}
        self.abandoned: Dict[int, int] = {}
        self._stalled: Dict[int, bool] = {}

    # -------------------------------------------------------------- lifecycle

    def stop(self, timeout_s: float = 5.0) -> None:
        """Stop sweeping; joins the thread when it was started."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=timeout_s)

    def run(self) -> None:  # pragma: no cover - exercised via FleetService
        while not self._stop_event.is_set():
            try:
                self.check_once()
            except Exception:
                # A supervision sweep must never kill the supervisor.
                self.metrics.inc("supervisor_errors")
            self._stop_event.wait(self.config.interval_s)

    # ------------------------------------------------------------ health check

    def check_once(self) -> int:
        """One sweep over the pool; returns the number of restarts performed.
        Public so tests (and the chaos harness) can drive supervision
        deterministically without the background thread."""
        service = self.service
        restarted = 0
        now = service.clock()
        for index, worker in enumerate(list(service.workers)):
            if worker.is_alive():
                age = now - worker.last_heartbeat
                if age > self.config.heartbeat_timeout_s and not worker.waiting_for_batch:
                    if not self._stalled.get(worker.worker_id):
                        self._stalled[worker.worker_id] = True
                        self.metrics.inc("worker_stalls")
                        self.tracer.event(
                            "worker_stall", worker=worker.worker_id, heartbeat_age_s=age
                        )
                else:
                    self._stalled[worker.worker_id] = False
                continue
            if worker.failure is None:
                continue  # normal exit (halt or drained close)
            if self._restart(index, worker):
                restarted += 1
        return restarted

    def _restart(self, index: int, worker) -> bool:
        service = self.service
        with self._lock:
            # Re-check under the lock: another sweep (tests may call
            # check_once concurrently with the thread) must not restart
            # the same dead worker twice.
            if service.workers[index] is not worker:
                return False
            batch = worker.current_batch
            if batch is not None:
                service.broker.restore(batch.requests)
                self.metrics.inc("requests_redelivered", len(batch.requests))
                worker.current_batch = None
            count = self.restarts.get(worker.worker_id, 0)
            if count >= self.config.max_restarts_per_worker:
                if worker.worker_id not in self.abandoned:
                    self.abandoned[worker.worker_id] = count
                    self.metrics.inc("workers_abandoned")
                    self.tracer.event(
                        "worker_abandoned", worker=worker.worker_id, restarts=count
                    )
                return False
            self.restarts[worker.worker_id] = count + 1
            replacement = service.build_worker(worker.worker_id)
            service.workers[index] = replacement
        replacement.start()
        self.metrics.inc("worker_restarts")
        self.tracer.event(
            "worker_restart",
            worker=worker.worker_id,
            restarts=count + 1,
            error=repr(worker.failure),
        )
        return True

    # --------------------------------------------------------------- reporting

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "enabled": True,
                "restarts": dict(self.restarts),
                "abandoned": dict(self.abandoned),
                "total_restarts": sum(self.restarts.values()),
            }
