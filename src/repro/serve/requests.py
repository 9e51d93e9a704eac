"""Request/response model and the bounded FIFO broker.

Device sessions on an intermittently powered, dynamically reconfigured
FPGA are interruptible jobs (Zhang et al.), so every request carries a
deadline and a bounded retry budget, and the broker implements the three
service-protection behaviours a fleet front door needs:

* **Backpressure** — the queue is bounded; a submit against a full queue
  is rejected immediately with a ``retry_after_s`` hint instead of
  building unbounded latency.
* **Deadlines** — per-request absolute deadlines; expired requests are
  answered with status ``"expired"`` without occupying a device.
* **Retry with exponential backoff** — transient device faults (SEUs in
  configuration memory, see :mod:`repro.fabric.faults`) re-enqueue the
  request with a ``base * 2**attempt`` delay until its attempt budget is
  exhausted.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

from repro.trace.tracer import NULL_TRACER, Tracer

#: Response statuses.
STATUS_OK = "ok"
STATUS_EXPIRED = "expired"
STATUS_FAILED = "failed"

#: Priority tiers.  Higher values enqueue ahead of lower ones; equal
#: priorities keep FIFO order, so the default tier preserves the broker's
#: historical all-FIFO behaviour exactly.
PRIORITY_ROUTINE = 0
PRIORITY_ALARM = 10

#: Request kinds.  ``measure`` is the ordinary level measurement;
#: ``calibrate`` asks the fleet to re-run the multi-point calibration
#: procedure for the tank (see :mod:`repro.scenarios.drift`) — it rides
#: the same pipeline (the device cost of recalibration IS the point) and
#: is distinguished only at delivery time.
KIND_MEASURE = "measure"
KIND_CALIBRATE = "calibrate"


def priority_class(priority: int) -> str:
    """Metric-label name of a priority tier (per-class histograms and
    shed counters are keyed on this, not on raw tier integers)."""
    return "alarm" if priority >= PRIORITY_ALARM else "routine"


class TransientDeviceFault(RuntimeError):
    """A device-side fault (configuration upset) that a retry on a clean
    or scrubbed device is expected to clear."""


class BrokerFullError(RuntimeError):
    """Submit rejected because the broker queue is at capacity."""

    def __init__(self, capacity: int, retry_after_s: float):
        super().__init__(
            f"broker queue full ({capacity} requests); retry after {retry_after_s:.3f} s"
        )
        self.capacity = capacity
        self.retry_after_s = retry_after_s


class OverloadShedError(BrokerFullError):
    """Submit shed early: the estimated queue delay already exceeds the
    request's deadline budget, so admitting it would only burn a queue
    slot on a response that must expire.  Subclasses
    :class:`BrokerFullError` so callers that treat backpressure as
    "reject + retry later" (``submit_many``) handle shedding the same way.
    """

    def __init__(self, estimated_delay_s: float, deadline_budget_s: float):
        RuntimeError.__init__(
            self,
            f"submit shed: estimated queue delay {estimated_delay_s:.3f} s exceeds "
            f"the request's remaining deadline budget {deadline_budget_s:.3f} s",
        )
        self.capacity = 0
        self.retry_after_s = max(0.0, estimated_delay_s)
        self.estimated_delay_s = estimated_delay_s
        self.deadline_budget_s = deadline_budget_s


@dataclass
class MeasurementRequest:
    """One level-measurement job for one tank of the fleet."""

    request_id: int
    tank_id: str
    level: float
    #: Module pipeline this request needs, in data-flow order.  Requests
    #: sharing a pipeline are batchable onto the same slot schedule.
    pipeline: Tuple[str, ...] = ("frontend", "amp_phase", "capacity", "filter")
    #: Absolute deadline on the broker clock; None = no deadline.
    deadline_s: Optional[float] = None
    #: Total attempts allowed (first try + retries).
    max_attempts: int = 3
    attempts: int = 0
    #: Set by the broker at submit time.
    submitted_at: float = 0.0
    #: Earliest time the broker may hand the request out (retry backoff).
    not_before_s: float = 0.0
    #: Priority tier: higher values enqueue ahead of lower ones (see
    #: ``PRIORITY_ALARM``).  The default tier is strict FIFO.
    priority: int = PRIORITY_ROUTINE
    #: Request kind: ``"measure"`` (default) or ``"calibrate"``.
    kind: str = KIND_MEASURE
    #: The request's span trace, attached by the broker when tracing is
    #: enabled (see :mod:`repro.trace`); None otherwise.
    trace: Optional[object] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= 1.0:
            raise ValueError(f"level must be in [0, 1], got {self.level}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not self.pipeline:
            raise ValueError("request needs a non-empty module pipeline")
        if self.priority < 0:
            raise ValueError(f"priority must be >= 0, got {self.priority}")
        if self.kind not in (KIND_MEASURE, KIND_CALIBRATE):
            raise ValueError(f"unknown request kind {self.kind!r}")

    def expired(self, now: float) -> bool:
        return self.deadline_s is not None and now > self.deadline_s


@dataclass(frozen=True)
class MeasurementResponse:
    """The terminal answer to one request."""

    request_id: int
    tank_id: str
    status: str
    level_measured: Optional[float] = None
    capacitance_pf: Optional[float] = None
    #: Device energy attributed to this request (its share of the batch).
    energy_j: float = 0.0
    #: Simulated device time the serving batch occupied.
    device_time_s: float = 0.0
    #: Wall-clock submit -> response latency.
    latency_s: float = 0.0
    attempts: int = 0
    worker: Optional[int] = None
    batch_id: Optional[int] = None
    batch_size: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient-fault retries."""

    base_delay_s: float = 0.005
    factor: float = 2.0
    max_delay_s: float = 0.25

    def __post_init__(self) -> None:
        if self.base_delay_s < 0 or self.max_delay_s < 0 or self.factor < 1.0:
            raise ValueError(f"invalid retry policy {self}")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(self.max_delay_s, self.base_delay_s * self.factor ** (attempt - 1))


class RequestBroker:
    """Bounded FIFO request queue with backpressure and retry holds.

    Thread-safe: producers call :meth:`submit`, the scheduler calls
    :meth:`take`, workers call :meth:`requeue` on failed batches.
    """

    def __init__(
        self,
        capacity: int = 256,
        retry: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        retry_after_hint_s: float = 0.05,
        tracer: Optional[Tracer] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.retry = retry or RetryPolicy()
        self.clock = clock
        self.retry_after_hint_s = retry_after_hint_s
        self.tracer = tracer or NULL_TRACER
        self._queue: Deque[MeasurementRequest] = deque()
        #: Requests sitting out a retry backoff, released by ``not_before_s``.
        self._delayed: List[MeasurementRequest] = []
        self._cond = threading.Condition()
        self._closed = False
        self.submitted = 0
        self.rejected = 0
        self.requeued = 0
        self.redelivered = 0

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._queue) + len(self._delayed)

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, request: MeasurementRequest) -> None:
        """Enqueue a new request.

        Raises
        ------
        BrokerFullError
            When the queue is at capacity (backpressure).
        RuntimeError
            When the broker is closed.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("broker is closed")
            if len(self._queue) + len(self._delayed) >= self.capacity:
                self.rejected += 1
                raise BrokerFullError(self.capacity, self.retry_after_hint_s)
            request.submitted_at = self.clock()
            if self.tracer.enabled:
                # Trace ops stay inside the broker lock: the admit/queue
                # spans must exist before any consumer can take (and
                # close) them.  A request may arrive with a trace already
                # attached — the TCP front door starts it at accept so
                # its accept/decode spans precede admit — in which case
                # the broker appends to it instead of starting over.
                trace = request.trace
                if trace is None:
                    trace = self.tracer.start(request.request_id, request.tank_id)
                    request.trace = trace
                trace.add(
                    "admit",
                    request.submitted_at,
                    request.submitted_at,
                    queue_depth=len(self._queue) + len(self._delayed),
                )
                trace.begin("queue", t0=request.submitted_at)
            self._enqueue(request)
            self.submitted += 1
            self._cond.notify()

    def _enqueue(self, request: MeasurementRequest) -> None:
        """Insert by priority tier (caller holds the lock).

        Equal tiers keep FIFO order, and the default tier short-circuits
        to a plain append — an all-routine workload is byte-identical to
        the historical FIFO broker.  A higher-tier request never jumps an
        earlier request of the *same tank*, whatever that request's tier:
        per-tank submit order is the invariant the per-tank IIR filter
        state (and the differential oracle) depends on.
        """
        if request.priority <= 0 or not self._queue:
            self._queue.append(request)
            return
        insert_at = len(self._queue)
        for index, queued in enumerate(self._queue):
            if queued.priority < request.priority:
                insert_at = index
                break
        if insert_at < len(self._queue):
            for index in range(len(self._queue) - 1, insert_at - 1, -1):
                if self._queue[index].tank_id == request.tank_id:
                    insert_at = index + 1
                    break
        if insert_at >= len(self._queue):
            self._queue.append(request)
        else:
            self._queue.insert(insert_at, request)

    def depth_ahead_of(self, priority: int) -> int:
        """The effective queue depth seen by a new request of the given
        tier: queued/delayed requests that would be served at or before
        it (equal tiers keep FIFO order, so they count; strictly lower
        tiers would be overtaken and do not).  This is the depth a
        class-aware admission estimate should use — an alarm request
        sees only the alarm-or-higher backlog."""
        with self._cond:
            ahead = sum(1 for r in self._queue if r.priority >= priority)
            ahead += sum(1 for r in self._delayed if r.priority >= priority)
            return ahead

    def requeue(self, request: MeasurementRequest) -> float:
        """Re-enqueue a request after a failed batch, with backoff.

        Retries bypass the capacity bound — rejecting already-admitted
        work would turn one bit flip into a dropped request.  Returns the
        applied backoff delay.
        """
        delay = self.retry.delay_s(max(1, request.attempts))
        with self._cond:
            now = self.clock()
            request.not_before_s = now + delay
            if self.tracer.enabled and request.trace is not None:
                request.trace.add(
                    "retry_wait",
                    now,
                    request.not_before_s,
                    delay_s=delay,
                    attempt=request.attempts,
                )
                request.trace.begin("queue", t0=request.not_before_s, retry=True)
            self._delayed.append(request)
            self.requeued += 1
            self._cond.notify()
        return delay

    def restore(self, requests: List[MeasurementRequest]) -> None:
        """Return undelivered in-flight requests to the head of the queue.

        This is the supervisor's crash re-delivery path: a worker died
        mid-batch, so its taken-but-unanswered requests re-enter at the
        front (they already waited their FIFO turn once).  Bypasses both
        the capacity bound and the closed flag — already-admitted work is
        never dropped, and a drain shutdown must still serve it.
        """
        if not requests:
            return
        with self._cond:
            now = self.clock()
            for request in requests:
                if self.tracer.enabled and request.trace is not None:
                    request.trace.begin("queue", t0=now, redelivered=True)
            self._queue.extendleft(reversed(list(requests)))
            self.redelivered += len(requests)
            self._cond.notify_all()

    def _release_delayed(self, now: float) -> None:
        ready = [r for r in self._delayed if r.not_before_s <= now]
        if ready:
            self._delayed = [r for r in self._delayed if r.not_before_s > now]
            # Backoff releases jump the FIFO so a retried request is not
            # penalised twice (once by the fault, once by requeue position).
            self._queue.extendleft(reversed(ready))

    def group_summary(self) -> dict:
        """Per-pipeline summary of the ready queue (retry-backoff holds
        excluded): ``{pipeline: {"count", "earliest_deadline_s",
        "head_position"}}``.

        ``head_position`` is the queue index of the group's first
        request (0 = the FIFO head), ``earliest_deadline_s`` the
        soonest deadline among the group's requests (None when none of
        them carries one).  This is the energy policy's decision input:
        which pipeline groups are waiting, how full a batch each could
        form right now, and how much deadline slack bounds a fill wait.
        """
        with self._cond:
            self._release_delayed(self.clock())
            groups: dict = {}
            for position, request in enumerate(self._queue):
                info = groups.get(request.pipeline)
                if info is None:
                    groups[request.pipeline] = {
                        "count": 1,
                        "earliest_deadline_s": request.deadline_s,
                        "head_position": position,
                    }
                    continue
                info["count"] += 1
                deadline = request.deadline_s
                earliest = info["earliest_deadline_s"]
                if deadline is not None and (earliest is None or deadline < earliest):
                    info["earliest_deadline_s"] = deadline
            return groups

    def wait_for_depth(self, n: int, deadline_s: float) -> int:
        """Block until the broker holds at least ``n`` requests, the
        broker closes, or the deadline (on the broker clock) passes.
        Returns the depth observed on wake-up.

        This is the batching window's wait primitive: submits and
        requeues notify the same condition, so a scheduler waiting for a
        fuller batch wakes exactly when work arrives instead of polling.
        """
        with self._cond:
            while True:
                depth = len(self._queue) + len(self._delayed)
                if depth >= n or self._closed:
                    return depth
                wait = deadline_s - self.clock()
                if wait <= 0:
                    return depth
                self._cond.wait(wait)

    def take(
        self,
        max_n: int,
        timeout_s: Optional[float] = None,
        select: Optional[Tuple[str, ...]] = None,
    ) -> List[MeasurementRequest]:
        """Pop up to ``max_n`` requests of one pipeline, blocking up to
        ``timeout_s``.

        The queue is scanned for requests of the ``select`` pipeline —
        the head is *not* forced into the batch, which is how a
        batch-formation policy serves the group it chose rather than
        whatever sits at the head.  Two rules keep this benign:

        * **Per-tank FIFO** — once a request of some tank is skipped
          (left queued), no later request of the same tank is taken in
          front of it, so each tank's measurements (and its IIR filter
          state) are always processed in submit order.
        * **Head group** — with ``select=None``, or when no request of
          the selected pipeline is takeable (the policy's view may be
          stale by the time the take runs), the head request's pipeline
          is taken, so a non-empty queue never yields an empty batch.

        Timing contract
        ---------------
        * ``timeout_s=None`` — **drain semantics**: block until a request
          is available.  Requests sitting out a retry backoff count as
          available-later: the call sleeps until the earliest backoff
          release rather than returning empty, so a drain shutdown still
          serves delayed retries before giving up.
        * ``timeout_s >= 0`` — **timeout semantics**: return ``[]`` once
          the deadline (``clock() + timeout_s``) passes, even when
          backoff-delayed requests exist whose release is later than the
          deadline.  The call never blocks — and never burns CPU — past
          its deadline.

        Returns ``[]`` on timeout or close.
        """
        if max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {max_n}")
        deadline = None if timeout_s is None else self.clock() + timeout_s
        with self._cond:
            while True:
                self._release_delayed(self.clock())
                if self._queue:
                    break
                if self._delayed:
                    # Checked before the closed flag: a drain shutdown must
                    # still serve requests sitting out a retry backoff
                    # (and a blocking take would otherwise spin on them).
                    # Sleep at most until the earliest backoff release —
                    # but never past the caller's deadline: once that is
                    # hit the timeout contract wins and we return empty.
                    now = self.clock()
                    if deadline is not None and deadline - now <= 0:
                        return []
                    release = min(r.not_before_s for r in self._delayed)
                    wait = release - now
                    if deadline is not None:
                        wait = min(wait, deadline - now)
                    if wait <= 0:
                        continue
                    self._cond.wait(wait)
                    continue
                if self._closed:
                    return []
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - self.clock()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        if not self._queue:
                            return []
            taken = self._take_selected(select, max_n) if select is not None else []
            if not taken:
                taken = self._take_selected(self._queue[0].pipeline, max_n)
            if self.tracer.enabled:
                now = self.clock()
                remaining = len(self._queue) + len(self._delayed)
                for request in taken:
                    if request.trace is not None:
                        request.trace.end("queue", t1=now, depth_after=remaining)
            return taken

    def _take_selected(self, select: Tuple[str, ...], max_n: int) -> List[MeasurementRequest]:
        """Pop up to ``max_n`` requests of exactly the ``select`` pipeline
        while preserving per-tank FIFO order (caller holds the lock)."""
        taken: List[MeasurementRequest] = []
        kept: Deque[MeasurementRequest] = deque()
        blocked: set = set()
        for candidate in self._queue:
            if (
                len(taken) < max_n
                and candidate.pipeline == select
                and candidate.tank_id not in blocked
            ):
                taken.append(candidate)
            else:
                kept.append(candidate)
                blocked.add(candidate.tank_id)
        self._queue = kept
        return taken

    def close(self) -> None:
        """Stop accepting submits and wake every blocked ``take``."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
