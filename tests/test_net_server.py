"""TCP front-door tests: the misbehaving-client battery, quotas, drain,
the snapshot verb, and the golden network trace.

The battery's common postcondition is the no-leak invariant: whatever a
client does — never reading, dribbling bytes, vanishing mid-request —
the server must clean it up in bounded time and the broker's in-flight
depth must return to zero (``server.pending() == 0`` and
``service.broker.depth == 0``), because a leaked entry is capacity some
future client never gets back.
"""

import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.net import NetClient, NetClientError, NetConfig, NetServer, encode_message
from repro.net.quotas import ClientQuota, QuotaExceeded
from repro.serve import FleetService, MeasurementRequest, synthetic_load
from repro.shard.wire import KIND_HELLO, KIND_SUBMIT, request_to_wire
from repro.trace import TraceSink, Tracer

NET_GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_structure_net.json"

#: Cache-temperature-dependent spans, excluded like test_trace.py does.
_UNSTABLE_SPANS = {"artifact_build"}


def _eventually(predicate, timeout_s=15.0, interval_s=0.02, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError(f"{what} not reached within {timeout_s}s")


@pytest.fixture()
def stack(request):
    """A started FleetService + NetServer pair, torn down afterwards.

    Parametrize indirectly with a NetConfig-kwargs dict (and optionally
    ``service={...}`` FleetService overrides) via ``request.param``.
    """
    params = dict(getattr(request, "param", {}) or {})
    service_kwargs = params.pop("service", {})
    service_kwargs.setdefault("workers", 1)
    service_kwargs.setdefault("max_batch", 4)
    service_kwargs.setdefault("queue_capacity", 128)
    service = FleetService(**service_kwargs)
    service.start()
    server = NetServer(service, NetConfig(**params)).start()
    yield service, server
    server.stop(drain=False)
    service.shutdown(drain=False)


def _submit_line(request):
    return encode_message(KIND_SUBMIT, {"request": request_to_wire(request)})


# ------------------------------------------------- misbehaving clients


class _ExecutionGate:
    """Chaos hook that holds every batch at execute until opened."""

    def __init__(self):
        self.opened = threading.Event()

    def on_batch(self, worker_id, batch):
        pass

    def on_execute(self, worker_id, batch):
        self.opened.wait(timeout=30.0)

    def snapshot(self):
        return {}


_SLOW_READER_GATE = _ExecutionGate()


@pytest.mark.parametrize(
    "stack",
    [
        {
            "write_timeout_s": 0.5,
            "write_buffer_bytes": 512,
            "outbound_queue": 512,
            "service": {"chaos": _SLOW_READER_GATE},
        }
    ],
    indirect=True,
)
def test_slow_reader_is_disconnected_without_leaks(stack):
    """A client that submits a pile of work and never reads its socket
    stalls the write path; the server must cut it loose within the write
    timeout and the broker must still drain to zero.

    Submits beyond ``max_inflight`` are rejected at once, and those
    replies alone back the socket up.  Execution is held until the
    disconnect, so admitted work is still in flight when the client goes,
    however fast the executor."""
    service, server = stack
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    # A tiny receive window makes the server's sends back up quickly.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
    sock.connect(("127.0.0.1", server.port))
    n = 200
    payload = b"".join(_submit_line(r) for r in synthetic_load(n, n_tanks=4))
    sock.sendall(payload)
    _eventually(
        lambda: server.metrics.counter("net_slow_disconnects") >= 1,
        what="slow-client disconnect",
    )
    _SLOW_READER_GATE.opened.set()
    _eventually(
        lambda: server.pending() == 0 and service.broker.depth == 0,
        what="broker drained after slow-client disconnect",
    )
    assert server.connection_count() == 0
    # Every admitted request reached a terminal outcome somewhere.
    sent = server.metrics.counter("net_responses_sent")
    orphaned = server.metrics.counter("net_responses_orphaned")
    assert sent + orphaned == server.metrics.counter("net_submits")
    assert orphaned >= 1
    sock.close()


@pytest.mark.parametrize("stack", [{"message_timeout_s": 0.3}], indirect=True)
def test_trickle_writer_is_disconnected_in_bounded_time(stack):
    """One byte per 100 ms never completes a line inside
    ``message_timeout_s``; the connection must die within the window,
    not sit half-framed forever, and the broker never sees the request."""
    service, server = stack
    line = _submit_line(MeasurementRequest(request_id=1, tank_id="t", level=0.5))
    sock = socket.create_connection(("127.0.0.1", server.port))
    start = time.monotonic()
    disconnected_after = None
    try:
        for i, byte in enumerate(line[:-1]):
            try:
                sock.sendall(bytes([byte]))
            except OSError:
                disconnected_after = time.monotonic() - start
                break
            time.sleep(0.1)
            if time.monotonic() - start > 5.0:
                break
    finally:
        sock.close()
    _eventually(lambda: server.connection_count() == 0, what="trickle client gone")
    _eventually(
        lambda: server.metrics.counter("net_protocol_errors") >= 1,
        what="stalled-line protocol error recorded",
    )
    if disconnected_after is not None:
        assert disconnected_after < 5.0
    assert service.broker.depth == 0
    assert server.metrics.counter("net_submits") == 0


def test_mid_request_disconnect_orphans_cleanly(stack):
    """A client that submits and immediately vanishes leaks nothing: its
    requests finish inside the service and their responses are counted
    orphaned (or sent, if they raced the close) — pending and broker
    depth both return to zero."""
    service, server = stack
    n = 6
    sock = socket.create_connection(("127.0.0.1", server.port))
    sock.sendall(b"".join(_submit_line(r) for r in synthetic_load(n, n_tanks=2)))
    # Wait until the submits are admitted (an immediate close would RST
    # the unread bytes away and the requests would never exist), then
    # vanish without reading a single response.
    _eventually(
        lambda: server.metrics.counter("net_submits") == n, what="submits admitted"
    )
    sock.close()
    _eventually(
        lambda: server.pending() == 0 and service.broker.depth == 0,
        what="broker drained after mid-request disconnect",
    )
    _eventually(
        lambda: server.metrics.counter("net_responses_sent")
        + server.metrics.counter("net_responses_orphaned")
        == server.metrics.counter("net_submits"),
        what="every submit accounted sent-or-orphaned",
    )
    assert server.metrics.counter("net_submits") == n


def test_garbage_line_closes_connection_with_fatal_error(stack):
    """Stream-level damage (unparseable line) gets one structured fatal
    error reply and a close; the service is untouched."""
    service, server = stack
    client = NetClient("127.0.0.1", server.port).connect()
    client.send_raw(b"this is not json\n")
    _eventually(
        lambda: client.pump(0.05) >= 0 and client.closed,
        what="fatal error reply + server close",
    )
    assert any(e.get("fatal") for e in client.errors)
    assert service.broker.depth == 0


def test_invalid_request_keeps_the_connection(stack):
    """A well-formed envelope carrying an invalid request (level out of
    range) earns a non-fatal error reply; the same connection then
    serves a valid request normally."""
    service, server = stack
    client = NetClient("127.0.0.1", server.port).connect()
    bad = request_to_wire(MeasurementRequest(request_id=7, tank_id="t", level=0.5))
    bad["level"] = 7.5
    client.send_raw(encode_message(KIND_SUBMIT, {"request": bad}))
    _eventually(lambda: client.pump(0.05) or client.errors, what="error reply")
    assert client.errors and not client.errors[0].get("fatal")
    assert client.errors[0]["request_id"] == 7
    client.submit(MeasurementRequest(request_id=8, tank_id="t", level=0.5))
    responses = client.await_responses(1, timeout_s=30.0)
    assert responses[0].request_id == 8 and responses[0].ok
    client.close()


def test_unexpected_kind_is_answered_not_fatal(stack):
    _, server = stack
    client = NetClient("127.0.0.1", server.port).connect()
    client.send_raw(encode_message(KIND_HELLO, {"who": "me"}))
    _eventually(lambda: client.pump(0.05) or client.errors, what="error reply")
    assert client.errors and not client.errors[0].get("fatal")
    assert client.ping(seq=3)["seq"] == 3  # connection still alive
    client.close()


# --------------------------------------------------------------- quotas


@pytest.mark.parametrize("stack", [{"quota_rps": 1.0, "quota_burst": 2}], indirect=True)
def test_rate_quota_rejects_with_retry_hint(stack):
    service, server = stack
    client = NetClient("127.0.0.1", server.port).connect()
    for request in synthetic_load(4, n_tanks=1):
        client.submit(request)
    client.await_settled(4, timeout_s=30.0)
    assert len(client.rejections) >= 2  # burst of 2, then the bucket is dry
    for payload in client.rejections.values():
        assert payload["retry_after_s"] > 0.0
        assert "rate" in payload["error"]
    assert server.metrics.counter("net_quota_rejections") == len(client.rejections)
    _eventually(lambda: service.broker.depth == 0, what="broker drained")
    client.close()


def test_client_quota_unit_behaviour():
    """ClientQuota unit contract: in-flight cap, bucket refill, and the
    retry hint taking the max of bucket wait and admission delay."""
    clock = [0.0]
    quota = ClientQuota(rate_per_s=2.0, burst=2, max_inflight=2, clock=lambda: clock[0])
    quota.try_acquire()
    quota.try_acquire()
    with pytest.raises(QuotaExceeded) as exc_info:
        quota.try_acquire(admission_delay_s=0.7)
    assert exc_info.value.retry_after_s == pytest.approx(0.7)
    assert quota.inflight_refusals == 1
    quota.release()
    with pytest.raises(QuotaExceeded) as rate_info:  # bucket empty at t=0
        quota.try_acquire()
    assert rate_info.value.retry_after_s == pytest.approx(0.5)
    clock[0] = 1.0  # 2 tokens refill
    quota.try_acquire()
    assert quota.rate_refusals == 1
    with pytest.raises(ValueError):
        ClientQuota(rate_per_s=-1.0)


# ------------------------------------------------ limits, drain, snapshot


@pytest.mark.parametrize("stack", [{"max_connections": 1}], indirect=True)
def test_connection_limit_refuses_with_reason(stack):
    _, server = stack
    first = NetClient("127.0.0.1", server.port).connect()
    with pytest.raises(NetClientError, match="connection limit"):
        NetClient("127.0.0.1", server.port, timeout_s=5.0).connect()
    assert server.metrics.counter("net_connections_refused") == 1
    first.close()
    _eventually(lambda: server.connection_count() == 0, what="slot freed")
    NetClient("127.0.0.1", server.port).connect().close()


def test_graceful_drain_flushes_then_refuses(stack):
    """SIGTERM semantics: drain() waits out in-flight work; afterwards
    new submits are rejected as draining and new connections refused,
    while the already-connected client got every response."""
    service, server = stack
    client = NetClient("127.0.0.1", server.port).connect()
    for request in synthetic_load(8, n_tanks=2):
        client.submit(request)
    # Submits still in the socket when SIGTERM lands are *rejected* as
    # draining, by design — admit all 8 first so this test pins the
    # flush-the-admitted half of the contract.
    _eventually(
        lambda: server.metrics.counter("net_submits") == 8, what="submits admitted"
    )
    assert server.drain(timeout_s=60.0) is True
    assert server.pending() == 0
    responses = client.await_responses(8, timeout_s=30.0)
    assert all(r.ok for r in responses)
    client.submit(MeasurementRequest(request_id=99, tank_id="t", level=0.5))
    _eventually(lambda: client.pump(0.05) or client.rejections, what="drain reject")
    assert "draining" in client.rejections[99]["error"]
    with pytest.raises(NetClientError):
        NetClient("127.0.0.1", server.port, timeout_s=5.0).connect()
    client.close()
    assert service.broker.depth == 0


def test_snapshot_verb_merges_service_and_net_registries(stack):
    service, server = stack
    client = NetClient("127.0.0.1", server.port).connect()
    for request in synthetic_load(5, n_tanks=2):
        client.submit(request)
    client.await_responses(5, timeout_s=30.0)
    snap = client.snapshot(timeout_s=10.0)
    # Both registries present in one merged view...
    assert snap["counters"]["net_submits"] == 5
    assert snap["counters"]["requests_served"] == 5
    # ...with reservoir-backed (not degraded) percentiles.
    assert "merge_degraded" not in snap
    assert snap["histograms"]["latency_s"]["count"] == 5
    assert snap["histograms"]["latency_s"]["p95"] is not None
    assert snap["net"]["connections"] == 1
    assert snap["broker"]["depth"] == 0
    assert json.dumps(snap)  # the verb's answer must be JSON-clean
    client.close()


def test_server_restart_is_refused_and_stop_is_idempotent():
    service = FleetService(workers=1, max_batch=2, queue_capacity=16)
    service.start()
    server = NetServer(service, NetConfig()).start()
    server.stop()
    server.stop()  # idempotent
    with pytest.raises(RuntimeError, match="restarted"):
        server.start()
    assert service.on_deliver is None  # delivery hook unhooked
    service.shutdown(drain=False)


# ------------------------------------------------------- golden net trace


def _stable_structure(trace):
    return [list(pair) for pair in trace.structure() if pair[1] not in _UNSTABLE_SPANS]


def _run_traced_tcp_requests():
    """Serve 4 requests over 2 tanks through the socket with tracing on;
    returns traces keyed by server-side request id (deterministic: one
    sequential client, ids assigned in arrival order from 1)."""
    sink = TraceSink(capacity=64, exemplars=4)
    tracer = Tracer(sink=sink)
    # The net golden was recorded under FIFO formation.
    service = FleetService(
        workers=1, max_batch=4, queue_capacity=32, seed=11, tracer=tracer,
        policy="fifo",
    )
    service.start()
    server = NetServer(service, NetConfig()).start()
    try:
        client = NetClient("127.0.0.1", server.port).connect()
        for request in synthetic_load(4, n_tanks=2):
            client.submit(request)
        client.await_responses(4, timeout_s=60.0)
        client.close()
    finally:
        server.stop()
        service.shutdown()
    tracer.close()
    by_id = {t.request_id: t for t in sink.traces() if t.request_id is not None}
    assert len(by_id) == 4
    return by_id


def test_tcp_trace_structure_matches_golden():
    """The network request path's span skeleton —
    accept → decode → admit → queue → … → respond — is frozen under
    ``tests/golden/``; a span added, dropped or reordered anywhere from
    socket accept to response flush must be a conscious golden refresh."""
    by_id = _run_traced_tcp_requests()
    golden = json.loads(NET_GOLDEN_PATH.read_text())
    assert {str(i) for i in by_id} == set(golden["net"])
    for request_id, trace in by_id.items():
        assert _stable_structure(trace) == golden["net"][str(request_id)], (
            f"network span structure drifted for request {request_id}"
        )
        names = [name for _, name in trace.structure()]
        assert names[0] == "accept" and names[1] == "decode"
        assert names[-1] == "respond"
