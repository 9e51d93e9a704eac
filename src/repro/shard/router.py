"""`ShardRouter`: N fleet-service processes behind one submit/await facade.

The paper scales measurement throughput by replicating cheap small dies
instead of growing one big one; this router is the runtime translation
of that argument.  Each shard is a whole :class:`repro.serve.FleetService`
in its own process (its own GIL, cores permitting), requests route by
consistent-hashing the tank id (:mod:`repro.shard.hashring` — per-tank
IIR state makes tank affinity the only correctness requirement), and
everything crossing the process boundary speaks the versioned wire
format (:mod:`repro.shard.wire`).

Delivery bookkeeping is the heart of the crash story: the router keeps
every accepted request in a per-shard in-flight table until its terminal
response arrives.  A shard process dying (crash, SIGKILL, hang) cannot
lose accepted work — the :class:`repro.shard.supervisor.ShardSupervisor`
restarts the process and re-delivers the leftover table through the
worker's ``restore`` path (head-of-queue, capacity-bypassing), and
responses drained from the dead process's pipe deduplicate against the
same table, so re-execution never double-answers.

The facade mirrors :class:`FleetService` (``submit`` / ``submit_many`` /
``await_responses`` / ``metrics_snapshot`` / ``shutdown``) so callers,
benchmarks and the verifylab oracle treat one process or eight the same.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.serve.metrics import Metrics
from repro.serve.requests import (
    STATUS_FAILED,
    BrokerFullError,
    MeasurementRequest,
    MeasurementResponse,
)
from repro.shard.config import ShardConfig
from repro.shard.hashring import ConsistentHashRing
from repro.shard.supervisor import ShardSupervisor
from repro.shard.wire import (
    KIND_BYE,
    KIND_HELLO,
    KIND_PING,
    KIND_PONG,
    KIND_REJECT,
    KIND_RESPONSE,
    KIND_RESTORE,
    KIND_SHUTDOWN,
    KIND_SNAPSHOT,
    KIND_SNAPSHOT_REPLY,
    KIND_SUBMIT,
    WireError,
    decode,
    encode,
    request_to_wire,
    response_from_wire,
)
from repro.shard.worker import shard_main


class _ShardHandle:
    """Router-side state of one shard process (one generation of it)."""

    def __init__(self, shard_id: int, generation: int, process, conn):
        self.shard_id = shard_id
        self.generation = generation
        self.process = process
        self.conn = conn
        self.reader: Optional[threading.Thread] = None
        #: Serializes writes: submits, pings, restores and control
        #: requests all share one duplex connection.
        self.send_lock = threading.Lock()
        #: Guards the in-flight table and the lifecycle flags below.
        self.lock = threading.Lock()
        #: request_id -> wire dict of every accepted-but-unanswered
        #: request, in submission order (dict preserves insertion).
        self.inflight: Dict[int, dict] = {}
        #: Set (under ``lock``) once this generation's in-flight table
        #: has been collected for re-delivery; no new entries after.
        self.retired = False
        self.abandoned = False
        self.ready = threading.Event()
        self.dead = threading.Event()
        self.pid: Optional[int] = None
        self.last_pong: float = 0.0
        self.stats: dict = {}
        self.bye_snapshot: Optional[dict] = None
        self.mail_cond = threading.Condition()
        self.mailbox: Dict[int, dict] = {}

    def send(self, kind: str, payload: dict) -> None:
        """Encode and write one message (serialized per connection).

        Raises
        ------
        OSError
            When the pipe is broken (shard process died).
        """
        data = encode(kind, payload)
        with self.send_lock:
            self.conn.send_bytes(data)

    def inflight_count(self) -> int:
        with self.lock:
            return len(self.inflight)


class ShardRouter:
    """Consistent-hash front door over N shard worker processes."""

    def __init__(
        self,
        config: Optional[ShardConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        retry_after_hint_s: float = 0.05,
    ):
        self.config = config or ShardConfig()
        self.clock = clock
        self.retry_after_hint_s = retry_after_hint_s
        self.metrics = Metrics()
        self.ring = ConsistentHashRing(
            range(self.config.shards), replicas=self.config.hash_replicas
        )
        self._ctx = multiprocessing.get_context(self.config.resolved_start_method)
        self._lock = threading.Lock()
        self._handles: Dict[int, _ShardHandle] = {}
        self._generations: Dict[int, int] = {}
        self.restarts: Dict[int, int] = {}
        self.abandoned: Dict[int, int] = {}
        self._responses: List[MeasurementResponse] = []
        self._done = threading.Condition()
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._started = False
        self._closed = False
        self._start_time: Optional[float] = None
        self._stop_time: Optional[float] = None
        self.supervisor: Optional[ShardSupervisor] = (
            ShardSupervisor(self) if self.config.supervise else None
        )

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "ShardRouter":
        """Launch every shard process, wait for their hellos, start the
        supervisor (idempotent); returns self.

        Raises
        ------
        RuntimeError
            When a shard fails to come up within the startup timeout.
        """
        if self._started:
            return self
        self._started = True
        with self._lock:
            for shard_id in range(self.config.shards):
                self._handles[shard_id] = self._launch(shard_id)
        deadline = time.monotonic() + self.config.startup_timeout_s
        for shard_id, handle in self._handles.items():
            if not handle.ready.wait(max(0.0, deadline - time.monotonic())):
                self._teardown_failed_start()
                raise RuntimeError(
                    f"shard {shard_id} failed to start within "
                    f"{self.config.startup_timeout_s} s"
                )
        if self.supervisor is not None:
            self.supervisor.start()
        return self

    def _teardown_failed_start(self) -> None:
        """Reap every process launched by a failed :meth:`start` and reset
        ``_started`` so a retry is a real retry, not a half-started fleet
        of leaked children."""
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            if handle.process.is_alive():
                handle.process.terminate()
        for handle in handles:
            handle.process.join(1.0)
            if handle.process.is_alive() and handle.process.pid:
                os.kill(handle.process.pid, signal.SIGKILL)
                handle.process.join(1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
            if handle.reader is not None:
                handle.reader.join(1.0)
        self._started = False

    def _launch(self, shard_id: int) -> _ShardHandle:
        """One shard process + its reader thread (also the restart path)."""
        generation = self._generations.get(shard_id, 0)
        self._generations[shard_id] = generation + 1
        router_conn, worker_conn = self._ctx.Pipe(duplex=True)
        # Under fork the child inherits the router end too; pass it so the
        # worker can close its copy (EOF detection needs exactly one open
        # handle per end).  Under spawn, passing it would ship a fresh dup
        # instead — worse than nothing.
        peer = router_conn if self.config.resolved_start_method == "fork" else None
        process = self._ctx.Process(
            target=shard_main,
            args=(shard_id, worker_conn, peer, self.config),
            name=f"repro-shard-{shard_id}-g{generation}",
            daemon=True,
        )
        handle = _ShardHandle(shard_id, generation, process, router_conn)
        process.start()
        worker_conn.close()
        reader = threading.Thread(
            target=self._read_loop,
            args=(handle,),
            name=f"shard-reader-{shard_id}-g{generation}",
            daemon=True,
        )
        handle.reader = reader
        reader.start()
        return handle

    def shutdown(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Stop the fleet; with ``drain`` every shard serves its queue to
        empty first.  Returns True when every process exited in time and
        every reader drained (escalates to SIGKILL past the deadline)."""
        with self._lock:
            self._closed = True
            handles = list(self._handles.values())
        if self.supervisor is not None:
            self.supervisor.stop()
        for handle in handles:
            try:
                handle.send(KIND_SHUTDOWN, {"drain": drain})
            except (OSError, WireError):
                pass  # already dead; reaped below
        deadline = time.monotonic() + timeout_s
        clean = True
        for handle in handles:
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                clean = False
                handle.process.terminate()
                handle.process.join(1.0)
                if handle.process.is_alive() and handle.process.pid:
                    os.kill(handle.process.pid, signal.SIGKILL)
                    handle.process.join(1.0)
        for handle in handles:
            if handle.reader is not None:
                handle.reader.join(max(0.1, deadline - time.monotonic()))
                clean = clean and not handle.reader.is_alive()
            try:
                handle.conn.close()
            except OSError:
                pass
        self._stop_time = self.clock()
        return clean

    def kill_shard(self, shard_id: int) -> int:
        """SIGKILL a shard process (the chaos seam); returns the pid hit.

        Raises
        ------
        KeyError
            On an unknown shard id.
        RuntimeError
            When the shard process is not running.
        """
        with self._lock:
            handle = self._handles[shard_id]
        pid = handle.process.pid
        if pid is None or not handle.process.is_alive():
            raise RuntimeError(f"shard {shard_id} is not running")
        os.kill(pid, signal.SIGKILL)
        self.metrics.inc("shard_kills")
        return pid

    # ----------------------------------------------------------- reader side

    def _read_loop(self, handle: _ShardHandle) -> None:
        while True:
            try:
                data = handle.conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                kind, payload = decode(data)
            except WireError:
                self.metrics.inc("router_wire_errors")
                continue
            if kind == KIND_RESPONSE:
                for wire_response in payload.get("responses", ()):
                    self._on_response(handle, wire_response)
            elif kind == KIND_PONG:
                handle.last_pong = self.clock()
                handle.stats = payload
            elif kind == KIND_HELLO:
                handle.pid = payload.get("pid")
                handle.last_pong = self.clock()
                handle.ready.set()
            elif kind == KIND_SNAPSHOT_REPLY:
                with handle.mail_cond:
                    handle.mailbox[payload.get("seq")] = payload.get("snapshot") or {}
                    handle.mail_cond.notify_all()
            elif kind == KIND_BYE:
                handle.bye_snapshot = payload.get("snapshot")
            elif kind == KIND_REJECT:
                self._on_reject(handle, payload)
            else:
                self.metrics.inc("router_wire_errors")
        handle.dead.set()
        with handle.mail_cond:  # fail fast any waiting control call
            handle.mail_cond.notify_all()
        if self.supervisor is not None:
            self.supervisor.wake()

    def _on_response(self, handle: _ShardHandle, wire_response: dict) -> None:
        # Validate before touching the in-flight table: a malformed
        # payload must leave the entry tracked so the request can still
        # be re-delivered and answered terminally.
        try:
            response = response_from_wire(wire_response)
        except WireError:
            self.metrics.inc("router_wire_errors")
            return
        with handle.lock:
            known = handle.inflight.pop(response.request_id, None)
        if known is None:
            # Crash re-delivery can re-execute work whose first answer was
            # already drained from the dead process's pipe; first terminal
            # answer wins, later ones are dropped here.
            self.metrics.inc("shard_duplicate_responses")
            return
        self.metrics.inc("responses_delivered")
        self.metrics.observe("router_latency_s", response.latency_s)
        with self._done:
            self._responses.append(response)
            self._done.notify_all()

    def _on_reject(self, handle: _ShardHandle, payload: dict) -> None:
        """A worker-side broker rejection (anomalous: the router's
        in-flight cap should fire first).  The request is still in the
        in-flight table, so push it back through the capacity-bypassing
        restore path rather than losing accepted work."""
        self.metrics.inc("shard_rejects")
        request = payload.get("request")
        if not request:
            return
        try:
            handle.send(KIND_RESTORE, {"requests": [request]})
        except (OSError, WireError):
            pass  # process died; the supervisor will re-deliver

    # ------------------------------------------------------------- submit side

    def shard_for(self, tank_id: str) -> int:
        """Ring lookup (exposed for tests and load-balance reporting)."""
        return self.ring.lookup(tank_id)

    def inflight_by_shard(self) -> Dict[int, int]:
        """Accepted-but-unanswered count per shard (chaos campaigns use
        this to aim kills where they hurt)."""
        with self._lock:
            handles = list(self._handles.items())
        return {shard_id: handle.inflight_count() for shard_id, handle in handles}

    def submit(self, request: MeasurementRequest) -> None:
        """Route one request to its tank's shard.

        Once this returns, the request is *accepted*: it stays in the
        in-flight table until a terminal response arrives, surviving
        shard-process death via supervisor re-delivery (even a submit
        whose pipe write failed mid-crash is re-delivered).

        Raises
        ------
        BrokerFullError
            Backpressure: the target shard's in-flight table is at
            capacity, the shard is mid-restart, or it was abandoned.
        RuntimeError
            When the router is closed (or was never started).
        ValueError
            On a request id already in flight on the target shard.
        """
        if not self._started:
            raise RuntimeError("router not started")
        if self._closed:
            raise RuntimeError("router is closed")
        with self._lock:
            if self._start_time is None:
                self._start_time = self.clock()
            handle = self._handles[self.ring.lookup(request.tank_id)]
        wire_request = request_to_wire(request)
        with handle.lock:
            if handle.retired or handle.abandoned:
                self.metrics.inc("router_backpressure")
                raise BrokerFullError(self.config.queue_capacity, self.retry_after_hint_s)
            if len(handle.inflight) >= self.config.queue_capacity:
                self.metrics.inc("router_backpressure")
                raise BrokerFullError(self.config.queue_capacity, self.retry_after_hint_s)
            if request.request_id in handle.inflight:
                raise ValueError(
                    f"request id {request.request_id} already in flight on "
                    f"shard {handle.shard_id}"
                )
            handle.inflight[request.request_id] = wire_request
        self.metrics.inc("requests_routed")
        try:
            handle.send(KIND_SUBMIT, {"request": wire_request})
        except OSError:
            # Accepted anyway: the entry stays in flight and rides the
            # supervisor's restore into the replacement process.
            self.metrics.inc("shard_send_failures")

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

    # ---------------------------------------------------------- response side

    def responses(self) -> List[MeasurementResponse]:
        with self._done:
            return list(self._responses)

    def await_responses(self, count: int, timeout_s: float = 30.0) -> bool:
        """Block until ``count`` terminal responses exist (True) or the
        timeout (on the router clock) elapses (False)."""
        deadline = self.clock() + timeout_s
        with self._done:
            while len(self._responses) < count:
                remaining = deadline - self.clock()
                if remaining <= 0:
                    return False
                self._done.wait(remaining)
            return True

    # ------------------------------------------------------- restart machinery

    def restart_shard(self, shard_id: int) -> bool:
        """Replace a dead shard process and re-deliver its in-flight work.

        The supervisor's recovery path (public so chaos tests can drive
        it deterministically).  Returns True when a replacement is
        serving; False when the shard was already healthy, mid-shutdown,
        or its restart budget is exhausted (then the leftover in-flight
        requests are answered ``failed`` so nothing waits forever).
        """
        with self._lock:
            if self._closed:
                return False
            handle = self._handles[shard_id]
        if handle.process.is_alive() and not handle.dead.is_set():
            return False
        if handle.abandoned:
            return False
        # Drain first: responses already written to the dead process's
        # pipe must dedupe against the in-flight table *before* leftovers
        # are collected for re-delivery.
        handle.process.join(self.config.startup_timeout_s)
        if handle.reader is not None:
            handle.reader.join(self.config.startup_timeout_s)
        with handle.lock:
            if handle.retired:
                return False  # another sweep already took this generation
            handle.retired = True
            leftover = list(handle.inflight.values())
            handle.inflight.clear()
        restarts = self.restarts.get(shard_id, 0)
        if restarts >= self.config.max_restarts_per_shard:
            self._abandon(handle, leftover)
            return False
        self.restarts[shard_id] = restarts + 1
        self.metrics.inc("shard_restarts")
        replacement = self._launch(shard_id)
        if not replacement.ready.wait(self.config.startup_timeout_s):
            # Startup failure burns a restart.  The replacement must NOT
            # be retired — a retired handle is never restarted again —
            # so the next sweep finds it dead, re-collects the leftovers
            # stored below, and tries again (or abandons once the budget
            # runs out).  A crash-looping shard thus converges on the
            # abandon path instead of wedging with stranded requests.
            self.metrics.inc("shard_restart_failures")
            replacement.process.terminate()
            replacement.process.join(1.0)
            with replacement.lock:
                replacement.inflight.update({r["request_id"]: r for r in leftover})
            with self._lock:
                self._handles[shard_id] = replacement
            if self.supervisor is not None:
                self.supervisor.wake()
            return False
        with replacement.lock:
            for wire_request in leftover:
                replacement.inflight[wire_request["request_id"]] = wire_request
        with self._lock:
            self._handles[shard_id] = replacement
        if leftover:
            try:
                replacement.send(KIND_RESTORE, {"requests": leftover})
                self.metrics.inc("requests_redelivered", len(leftover))
            except OSError:
                self.metrics.inc("shard_send_failures")
        return True

    def _abandon(self, handle: _ShardHandle, leftover: List[dict]) -> None:
        """Out of restart budget: answer the stranded work terminally so
        ``await_responses`` callers never hang on an unservable shard."""
        with handle.lock:
            handle.abandoned = True
        self.abandoned[handle.shard_id] = self.restarts.get(handle.shard_id, 0)
        self.metrics.inc("shards_abandoned")
        if not leftover:
            return
        now = self.clock()
        failures = [
            MeasurementResponse(
                request_id=r["request_id"],
                tank_id=r["tank_id"],
                status=STATUS_FAILED,
                latency_s=max(0.0, now - r.get("submitted_at", now)),
                attempts=r.get("attempts", 0),
                error=f"shard {handle.shard_id} abandoned after "
                f"{self.restarts.get(handle.shard_id, 0)} restarts",
            )
            for r in leftover
        ]
        self.metrics.inc("requests_failed_abandoned", len(failures))
        with self._done:
            self._responses.extend(failures)
            self._done.notify_all()

    # ---------------------------------------------------------------- control

    def _next_seq(self) -> int:
        with self._seq_lock:
            self._seq += 1
            return self._seq

    def ping_shard(self, handle: _ShardHandle) -> bool:
        """Best-effort heartbeat probe (the supervisor's sweep primitive)."""
        try:
            handle.send(KIND_PING, {"t": self.clock()})
            return True
        except (OSError, WireError):
            return False

    def shard_snapshot(self, shard_id: int, timeout_s: float = 10.0) -> Optional[dict]:
        """One shard's metrics snapshot over the control channel; falls
        back to its final ``bye`` snapshot (or None) when unreachable."""
        with self._lock:
            handle = self._handles.get(shard_id)
        if handle is None:
            return None
        if handle.dead.is_set() or not handle.process.is_alive():
            return handle.bye_snapshot
        seq = self._next_seq()
        try:
            handle.send(KIND_SNAPSHOT, {"seq": seq})
        except (OSError, WireError):
            return handle.bye_snapshot
        deadline = time.monotonic() + timeout_s
        with handle.mail_cond:
            while seq not in handle.mailbox:
                if handle.dead.is_set():
                    return handle.bye_snapshot
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return handle.bye_snapshot
                handle.mail_cond.wait(remaining)
            return handle.mailbox.pop(seq)

    # ---------------------------------------------------------------- metrics

    def metrics_snapshot(self) -> dict:
        """Fleet-wide merged snapshot: per-shard counters and gauges sum,
        histogram reservoirs merge (:meth:`Metrics.merge_snapshots`), and
        the service section reports aggregate throughput and energy the
        same shape :class:`FleetService` does — plus per-shard breakdowns
        and the router's own bookkeeping."""
        shard_snaps: Dict[int, Optional[dict]] = {
            shard_id: self.shard_snapshot(shard_id)
            for shard_id in sorted(self._generations)
        }
        reachable = [s for s in shard_snaps.values() if s]
        snap = Metrics.merge_snapshots(reachable, seed=self.config.seed)
        served = snap["counters"].get("requests_served", 0)
        energy = snap["gauges"].get("energy_j", 0.0)
        end = self._stop_time if self._stop_time is not None else self.clock()
        with self._lock:
            start = self._start_time
        elapsed = max(1e-9, end - start) if start is not None else 0.0
        snap["service"] = {
            "shards": self.config.shards,
            "workers": self.config.shards * self.config.workers_per_shard,
            "elapsed_s": elapsed,
            "requests_per_s": served / elapsed if elapsed > 0 else 0.0,
            "joules_per_request": energy / served if served else 0.0,
            "reconfigurations": snap["counters"].get("reconfigurations", 0),
            "reconfigurations_avoided": snap["counters"].get(
                "reconfigurations_avoided", 0
            ),
            "tanks": sum(
                s.get("service", {}).get("tanks", 0) for s in reachable
            ),
        }
        cache_totals = {"entries": 0, "capacity": 0, "hits": 0, "misses": 0, "evictions": 0}
        for shard_snap in reachable:
            for key in cache_totals:
                cache_totals[key] += shard_snap.get("cache", {}).get(key, 0)
        lookups = cache_totals["hits"] + cache_totals["misses"]
        cache_totals["hit_rate"] = cache_totals["hits"] / lookups if lookups else 0.0
        snap["cache"] = cache_totals
        router_snap = self.metrics.snapshot()
        snap["router"] = router_snap
        with self._lock:
            inflight = {
                shard_id: handle.inflight_count()
                for shard_id, handle in sorted(self._handles.items())
            }
        snap["broker"] = {
            "depth": sum(inflight.values()),
            "capacity": self.config.queue_capacity * self.config.shards,
            "submitted": router_snap["counters"].get("requests_routed", 0),
            "rejected": router_snap["counters"].get("router_backpressure", 0),
            "requeued": snap["counters"].get("requests_retried", 0),
            "redelivered": router_snap["counters"].get("requests_redelivered", 0),
        }
        snap["shards"] = {
            shard_id: {
                "reachable": shard_snap is not None,
                "inflight": inflight.get(shard_id, 0),
                "restarts": self.restarts.get(shard_id, 0),
                "abandoned": shard_id in self.abandoned,
                **(shard_snap.get("shard", {}) if shard_snap else {}),
            }
            for shard_id, shard_snap in shard_snaps.items()
        }
        traces = {
            shard_id: shard_snap["trace"]
            for shard_id, shard_snap in shard_snaps.items()
            if shard_snap and "trace" in shard_snap
        }
        if traces:
            snap["trace"] = traces
        snap["supervisor"] = (
            self.supervisor.snapshot()
            if self.supervisor is not None
            else {"enabled": False}
        )
        return snap
