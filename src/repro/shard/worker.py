"""Shard worker process: one :class:`repro.serve.FleetService` per shard.

:func:`shard_main` is the child-process entry point.  It builds a fleet
service from the shared :class:`repro.shard.config.ShardConfig`, then
serves the router's wire protocol over one duplex
:class:`multiprocessing.connection.Connection`:

* ``submit`` — decode and enqueue one request; a broker rejection is
  echoed back as ``reject`` (the router's in-flight cap makes this the
  anomaly path, but the protocol still closes the loop).
* ``restore`` — crash re-delivery: decoded requests enter at the *head*
  of the broker queue via :meth:`RequestBroker.restore` (capacity- and
  closed-bypassing), exactly the semantics the in-process supervisor
  uses for a dead worker thread.
* ``ping``/``snapshot`` — control plane: heartbeat pong with queue
  depth, and a full metrics snapshot including histogram reservoirs so
  the router can merge percentiles across shards.
* ``shutdown`` — drain (or abandon) the service, answer ``bye`` with
  the final snapshot, exit.

Terminal responses flow back asynchronously: the service's
``on_deliver`` seam encodes each delivered batch as one ``responses``
message with the per-response codec
(:func:`repro.shard.wire.response_to_wire`), after the service's
delivery-time ``corrector`` has run.  All sends share one lock — worker
threads and the control loop interleave on a single connection.
"""

from __future__ import annotations

import os
import threading
from repro.app.system import SystemConfig
from repro.serve.pool import FleetService
from repro.serve.requests import BrokerFullError
from repro.shard.config import ShardConfig
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
    request_from_wire,
    response_to_wire,
)


def build_service(
    shard_id: int,
    config: ShardConfig,
    on_deliver=None,
    tracer=None,
) -> FleetService:
    """The per-shard fleet service.

    Every shard uses the *same* base seed: a tank session's seed derives
    from (base seed, tank id), so a tank is served identically whichever
    shard the ring assigns it to — the property the sharded oracle
    checks.
    """
    return FleetService(
        workers=config.workers_per_shard,
        max_batch=config.max_batch,
        queue_capacity=config.queue_capacity,
        batched=config.batched,
        window_s=config.window_s,
        policy=config.policy,
        fault_rate=config.fault_rate,
        seed=config.seed,
        config=SystemConfig(circuit=config.circuit) if config.circuit is not None else None,
        noise_rms=config.noise_rms,
        tracer=tracer,
        on_deliver=on_deliver,
    )


def shard_main(shard_id: int, conn, router_conn, config: ShardConfig) -> None:
    """Child-process entry: serve the wire protocol until shutdown/EOF.

    ``router_conn`` is the router's end of the pipe, inherited under the
    fork start method; it is closed first so the child does not hold its
    own peer open (EOF detection on both sides depends on it).
    """
    if router_conn is not None:
        try:
            router_conn.close()
        except OSError:
            pass
    send_lock = threading.Lock()

    def send(kind: str, payload: dict) -> None:
        data = encode(kind, payload)
        with send_lock:
            conn.send_bytes(data)

    def deliver(responses) -> None:
        # Raised errors are swallowed (and counted) by the service's
        # delivery guard; a dead pipe ends the control loop via EOF.
        send(KIND_RESPONSE, {"responses": [response_to_wire(r) for r in responses]})

    tracer = None
    if config.trace_path:
        from repro.trace import JsonlExporter, TraceSink, Tracer

        tracer = Tracer(
            sink=TraceSink(
                capacity=4096,
                exporter=JsonlExporter(f"{config.trace_path}.shard{shard_id}.jsonl"),
            )
        )
    service = build_service(shard_id, config, on_deliver=deliver, tracer=tracer)
    service.start()
    send(KIND_HELLO, {"shard": shard_id, "pid": os.getpid()})

    clean = True
    try:
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                # Router gone: no one left to answer; exit without drain.
                clean = False
                break
            try:
                kind, payload = decode(data)
            except WireError:
                service.metrics.inc("shard_wire_errors")
                # A malformed control frame is unanswerable (no seq to
                # echo); keep serving — the router's heartbeat decides.
                continue
            if kind == KIND_SUBMIT:
                _handle_submit(service, send, payload)
            elif kind == KIND_RESTORE:
                _handle_restore(service, payload)
            elif kind == KIND_PING:
                send(
                    KIND_PONG,
                    {
                        "t": payload.get("t"),
                        "shard": shard_id,
                        "depth": service.broker.depth,
                        "responses": len(service.responses()),
                    },
                )
            elif kind == KIND_SNAPSHOT:
                send(
                    KIND_SNAPSHOT_REPLY,
                    {
                        "seq": payload.get("seq"),
                        "shard": shard_id,
                        "snapshot": shard_snapshot(service, shard_id),
                    },
                )
            elif kind == KIND_SHUTDOWN:
                drain = bool(payload.get("drain", True))
                service.shutdown(drain=drain, timeout_s=config.shutdown_timeout_s)
                send(KIND_BYE, {"shard": shard_id, "snapshot": shard_snapshot(service, shard_id)})
                break
            else:
                service.metrics.inc("shard_wire_errors")
    finally:
        if clean:
            pass  # shutdown already ran (or never started serving)
        else:
            service.shutdown(drain=False, timeout_s=1.0)
        if tracer is not None:
            tracer.close()
        try:
            conn.close()
        except OSError:
            pass


def _handle_submit(service: FleetService, send, payload: dict) -> None:
    try:
        request = request_from_wire(payload["request"])
    except (KeyError, WireError):
        service.metrics.inc("shard_wire_errors")
        return
    try:
        service.submit(request)
    except BrokerFullError as exc:
        # Includes OverloadShedError; echo the request so the router can
        # re-deliver (capacity-bypassing) instead of losing accepted work.
        send(
            KIND_REJECT,
            {
                "request": payload["request"],
                "retry_after_s": exc.retry_after_s,
                "error": str(exc),
            },
        )


def _handle_restore(service: FleetService, payload: dict) -> None:
    requests = []
    for data in payload.get("requests", ()):
        try:
            requests.append(request_from_wire(data))
        except WireError:
            service.metrics.inc("shard_wire_errors")
    if requests:
        service.broker.restore(requests)


def shard_snapshot(service: FleetService, shard_id: int) -> dict:
    """The service's metrics snapshot plus the reservoir states the
    router-side merge needs (JSON-ready: it crosses the wire)."""
    snap = service.metrics_snapshot()
    snap.update(service.metrics.snapshot(include_reservoirs=True))
    snap["shard"] = {
        "shard_id": shard_id,
        "pid": os.getpid(),
        "energy_j": snap["gauges"].get("energy_j", 0.0),
        "device_time_s": snap["gauges"].get("device_time_s", 0.0),
        "requests_served": snap["counters"].get("requests_served", 0),
    }
    return snap
