"""The sharded fleet: wire codec, hash ring, router, crash recovery.

Process-spawning tests keep the workloads small (tens of requests, one
or two shard processes) — the contracts under test are routing totality,
wire round-trip exactness, merged metrics arithmetic, and the zero-loss
kill/restart path, none of which need volume.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import DEFAULT_POLICY
from repro.serve.loadgen import synthetic_load
from repro.serve.requests import (
    BrokerFullError,
    MeasurementRequest,
    MeasurementResponse,
)
from repro.shard import (
    ConsistentHashRing,
    ShardConfig,
    ShardRouter,
    WireError,
    decode,
    encode,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)
from repro.shard.wire import (
    KIND_RESPONSE,
    KIND_RESTORE,
    KIND_SUBMIT,
    KNOWN_KINDS,
    WIRE_VERSION,
)


# ------------------------------------------------------------------ wire codec


def test_request_wire_roundtrip_is_exact():
    request = MeasurementRequest(
        request_id=41,
        tank_id="tank-007",
        level=0.123456789012345678,  # shortest-repr floats survive JSON
        pipeline=("frontend", "amp_phase", "capacity", "filter"),
        deadline_s=12.5,
        max_attempts=5,
        attempts=2,
        submitted_at=3.25,
        not_before_s=0.5,
    )
    rebuilt = request_from_wire(request_to_wire(request))
    for field in (
        "request_id",
        "tank_id",
        "level",
        "pipeline",
        "deadline_s",
        "max_attempts",
        "attempts",
        "submitted_at",
        "not_before_s",
    ):
        assert getattr(rebuilt, field) == getattr(request, field)


def test_response_wire_roundtrip_is_exact():
    response = MeasurementResponse(
        request_id=9,
        tank_id="tank-001",
        status="ok",
        level_measured=0.6000000000000001,
        capacitance_pf=312.0781249999999,
        energy_j=1.25e-4,
        device_time_s=0.0123,
        latency_s=0.5,
        attempts=1,
        worker="worker-0",
        batch_id=3,
        batch_size=4,
    )
    rebuilt = response_from_wire(response_to_wire(response))
    assert rebuilt == response


def test_envelope_rejects_unknown_version_and_kind():
    data = encode(KIND_SUBMIT, {"request": {}})
    kind, payload = decode(data)
    assert kind == KIND_SUBMIT and payload == {"request": {}}

    with pytest.raises(WireError):
        encode("teleport", {})
    with pytest.raises(WireError):
        decode(b"not json at all")
    with pytest.raises(WireError):
        decode(b'{"v": %d, "kind": "teleport", "payload": {}}' % WIRE_VERSION)
    with pytest.raises(WireError):
        decode(b'{"v": 99, "kind": "submit", "payload": {}}')
    with pytest.raises(WireError):
        decode(b'{"v": %d, "kind": "submit", "payload": 3}' % WIRE_VERSION)


def test_malformed_request_payload_raises_wire_error():
    with pytest.raises(WireError):
        request_from_wire({"request_id": 1})  # missing required fields
    with pytest.raises(WireError):
        request_from_wire(
            {"request_id": 1, "tank_id": "t", "level": 2.5, "pipeline": ["frontend"]}
        )  # level out of range: model validation re-runs on decode


# ------------------------------------------------------- wire codec fuzzing
#
# The differential oracle compares shard output to a single-process run
# with EXACT float equality, so the codec must be a bijection over the
# model fields for arbitrary values — not just the friendly ones in the
# hand-written cases above.  And a router that half-parses corrupt bytes
# orphans every in-flight entry mapped to that connection, so malformed
# input must surface as ``WireError``, never as junk data or a foreign
# exception type.

_finite = st.floats(allow_nan=False, allow_infinity=False)

_fuzz_requests = st.builds(
    MeasurementRequest,
    request_id=st.integers(min_value=0, max_value=2**63),
    tank_id=st.text(max_size=24),
    level=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    pipeline=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6).map(
        tuple
    ),
    deadline_s=st.none() | _finite,
    max_attempts=st.integers(min_value=1, max_value=50),
    attempts=st.integers(min_value=0, max_value=50),
    submitted_at=_finite,
    not_before_s=_finite,
)

_fuzz_responses = st.builds(
    MeasurementResponse,
    request_id=st.integers(min_value=0, max_value=2**63),
    tank_id=st.text(max_size=24),
    status=st.sampled_from(["ok", "failed", "rejected", "expired"]),
    level_measured=st.none() | _finite,
    capacitance_pf=st.none() | _finite,
    energy_j=_finite,
    device_time_s=_finite,
    latency_s=_finite,
    attempts=st.integers(min_value=0, max_value=50),
    worker=st.none() | st.integers(min_value=0, max_value=64),
    batch_id=st.none() | st.integers(min_value=0, max_value=2**32),
    batch_size=st.integers(min_value=0, max_value=64),
    error=st.text(max_size=40),
)


@settings(max_examples=75, deadline=None)
@given(request=_fuzz_requests)
def test_fuzz_submit_envelope_roundtrips_bit_exactly(request):
    data = encode(KIND_SUBMIT, {"request": request_to_wire(request)})
    kind, payload = decode(data)
    assert kind == KIND_SUBMIT
    assert request_from_wire(payload["request"]) == request


@settings(max_examples=50, deadline=None)
@given(requests=st.lists(_fuzz_requests, min_size=1, max_size=5))
def test_fuzz_restore_envelope_roundtrips_bit_exactly(requests):
    data = encode(
        KIND_RESTORE, {"requests": [request_to_wire(r) for r in requests]}
    )
    kind, payload = decode(data)
    assert kind == KIND_RESTORE
    assert [request_from_wire(r) for r in payload["requests"]] == requests


@settings(max_examples=50, deadline=None)
@given(responses=st.lists(_fuzz_responses, min_size=1, max_size=5))
def test_fuzz_responses_envelope_roundtrips_bit_exactly(responses):
    data = encode(
        KIND_RESPONSE, {"responses": [response_to_wire(r) for r in responses]}
    )
    kind, payload = decode(data)
    assert kind == KIND_RESPONSE
    assert [response_from_wire(r) for r in payload["responses"]] == responses


@settings(max_examples=75, deadline=None)
@given(request=_fuzz_requests, data=st.data())
def test_fuzz_truncated_envelopes_raise_instead_of_half_parsing(request, data):
    """Any strict prefix of an envelope raises ``WireError`` — ``decode``
    never hands back a partial message."""
    raw = encode(KIND_SUBMIT, {"request": request_to_wire(request)})
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    with pytest.raises(WireError):
        decode(raw[:cut])


@settings(max_examples=100, deadline=None)
@given(blob=st.binary(max_size=256))
def test_fuzz_arbitrary_bytes_decode_cleanly_or_raise_wire_error(blob):
    """Garbage on the wire raises exactly ``WireError``; in the
    astronomically unlikely event the bytes happen to be a valid
    envelope, the result is still a (known kind, dict) pair."""
    try:
        kind, payload = decode(blob)
    except WireError:
        return
    assert kind in KNOWN_KINDS
    assert isinstance(payload, dict)


@settings(max_examples=100, deadline=None)
@given(request=_fuzz_requests, data=st.data())
def test_fuzz_single_byte_corruption_never_escapes_the_codec(request, data):
    """Flipping one byte of a valid envelope either still parses to a
    well-formed (kind, payload) pair or raises ``WireError`` — no other
    exception type leaks out of ``decode``."""
    raw = bytearray(encode(KIND_SUBMIT, {"request": request_to_wire(request)}))
    index = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    raw[index] ^= data.draw(st.integers(min_value=1, max_value=255))
    try:
        kind, payload = decode(bytes(raw))
    except WireError:
        return
    assert kind in KNOWN_KINDS
    assert isinstance(payload, dict)


# ------------------------------------------------------------------- hash ring


def test_ring_routes_every_key_to_a_member_deterministically():
    ring = ConsistentHashRing(range(4))
    again = ConsistentHashRing(range(4))
    keys = [f"tank-{i:03d}" for i in range(200)]
    for key in keys:
        assert ring.lookup(key) in (0, 1, 2, 3)
        assert ring.lookup(key) == again.lookup(key)  # process-independent


def test_ring_removal_only_remaps_the_removed_shards_keys():
    ring = ConsistentHashRing(range(4))
    keys = [f"tank-{i:03d}" for i in range(300)]
    before = {key: ring.lookup(key) for key in keys}
    ring.remove_shard(2)
    for key in keys:
        after = ring.lookup(key)
        if before[key] != 2:
            assert after == before[key]  # untouched arcs keep their owner
        else:
            assert after != 2


def test_ring_distribution_reports_every_shard():
    ring = ConsistentHashRing(range(3), replicas=128)
    counts = ring.distribution([f"tank-{i:03d}" for i in range(600)])
    assert set(counts) == {0, 1, 2}
    assert sum(counts.values()) == 600
    assert all(count > 0 for count in counts.values())


def test_ring_validation():
    with pytest.raises(ValueError):
        ConsistentHashRing([])
    with pytest.raises(ValueError):
        ConsistentHashRing([0], replicas=0)
    ring = ConsistentHashRing([0, 1])
    with pytest.raises(KeyError):
        ring.remove_shard(7)
    ring.remove_shard(1)
    with pytest.raises(ValueError):
        ring.remove_shard(0)  # never an empty ring


def test_shard_config_takes_the_service_policy_default():
    assert ShardConfig().policy == DEFAULT_POLICY == "energy"
    with pytest.raises(ValueError, match="policy"):
        ShardConfig(policy="thermal")


def test_shard_config_rejects_max_batch_below_one():
    """A bad batch cap fails where the config is built, not as a shard
    that never says hello (the real error would sit in its stderr)."""
    assert ShardConfig(max_batch=1).max_batch == 1
    for max_batch in (0, -3):
        with pytest.raises(ValueError, match="max batch must be >= 1"):
            ShardConfig(max_batch=max_batch)


# ------------------------------------------------------------------ the router


def _serve(router, requests, timeout_s=60.0):
    accepted, rejected = router.submit_many(requests)
    assert router.await_responses(accepted, timeout_s=timeout_s)
    return accepted, rejected


def test_router_serves_all_requests_with_tank_affinity():
    config = ShardConfig(shards=2, seed=3, supervise=False)
    router = ShardRouter(config).start()
    try:
        requests = synthetic_load(40, n_tanks=6, seed=1)
        accepted, rejected = _serve(router, requests)
        assert (accepted, rejected) == (40, [])
        responses = router.responses()
        assert sorted(r.request_id for r in responses) == list(range(40))
        assert all(r.status == "ok" for r in responses)
        snapshot = router.metrics_snapshot()
    finally:
        assert router.shutdown()
    assert snapshot["service"]["shards"] == 2
    assert snapshot["counters"]["requests_served"] == 40
    # Both shards did real work and the per-shard counts add back up.
    per_shard = [s["requests_served"] for s in snapshot["shards"].values()]
    assert sum(per_shard) == 40 and all(count > 0 for count in per_shard)
    # Merged percentiles come from real reservoirs, not summary guesses.
    assert snapshot["histograms"]["latency_s"]["count"] == 40
    assert snapshot["histograms"]["latency_s"]["p95"] is not None


def test_shard_device_faults_retry_in_batch():
    """Device faults on a shard retry inside their batch: the merged
    snapshot counts every retry as in-batch, and every request settles
    exactly once."""
    config = ShardConfig(shards=2, seed=3, fault_rate=0.3, supervise=False)
    router = ShardRouter(config).start()
    try:
        requests = synthetic_load(24, n_tanks=6, seed=1)
        accepted, rejected = _serve(router, requests)
        assert (accepted, rejected) == (24, [])
        responses = router.responses()
        snapshot = router.metrics_snapshot()
    finally:
        assert router.shutdown()
    assert sorted(r.request_id for r in responses) == list(range(24))
    assert all(r.status == "ok" for r in responses)
    counters = snapshot["counters"]
    assert counters["retries_in_batch"] == counters["requests_retried"] > 0


def test_router_backpressure_bounds_inflight_per_shard():
    config = ShardConfig(shards=1, queue_capacity=4, supervise=False)
    router = ShardRouter(config).start()
    try:
        requests = synthetic_load(12, n_tanks=1, seed=0)
        accepted, rejected = router.submit_many(requests)
        assert accepted <= 8  # capacity plus whatever already completed
        assert len(rejected) == 12 - accepted
        with pytest.raises(RuntimeError):
            router.kill_shard(7)  # unknown shard ids raise KeyError below
    except KeyError:
        pass
    finally:
        router.shutdown()


def test_duplicate_request_id_is_refused():
    config = ShardConfig(shards=1, supervise=False)
    router = ShardRouter(config).start()
    try:
        request = synthetic_load(1, n_tanks=1)[0]
        router.submit(request)
        with pytest.raises(ValueError):
            router.submit(request)
    finally:
        router.shutdown()


def test_killed_shard_recovers_with_zero_loss():
    """SIGKILL the busiest shard mid-run: the supervisor restarts the
    process, re-delivers its in-flight table, and every accepted request
    still gets exactly one terminal response."""
    config = ShardConfig(
        shards=2, seed=5, queue_capacity=256, heartbeat_interval_s=0.02
    )
    router = ShardRouter(config).start()
    try:
        requests = synthetic_load(120, n_tanks=8, seed=2)
        accepted, rejected = router.submit_many(requests)
        assert (accepted, len(rejected)) == (120, 0)
        router.await_responses(20, timeout_s=60.0)  # let some work finish
        victim = max(router.inflight_by_shard().items(), key=lambda kv: kv[1])[0]
        router.kill_shard(victim)
        assert router.await_responses(120, timeout_s=60.0)
        responses = router.responses()
        assert sorted(r.request_id for r in responses) == list(range(120))
        assert all(r.status == "ok" for r in responses)
        assert router.restarts.get(victim) == 1
        assert router.metrics.counter("requests_redelivered") > 0
    finally:
        router.shutdown()


def test_sharded_path_exactly_equals_single_process():
    from repro.verifylab import generate_scenario, run_oracle

    report = run_oracle([11], transport="shard")
    assert report.to_dict()["requests_checked"] == generate_scenario(11).n_requests
    assert report.ok, report.violations


def test_max_batch_one_shards_keep_the_vector_engine():
    """Per-request serving is a batch of one on the fleet's kernels: a
    sharded fleet at ``max_batch=1`` answers exactly like the reference
    replay."""
    from repro.verifylab import Entry, Scenario, check_scenario

    scenario = Scenario(
        seed=3,
        entries=tuple(Entry(f"t{i % 4}", 0.1 + 0.07 * i) for i in range(12)),
        max_batch=1,
    )
    check = check_scenario(scenario, transport="shard")
    assert check.ok, check.violations
    assert {r.batch_size for r in check.delivered} == {1}
    assert len(check.delivered) == scenario.n_requests


# ----------------------------------------------------------- failure machinery


def _stillborn_shard_main(shard_id, conn, router_conn, config):
    """A worker that dies before sending hello (crash-loop stand-in)."""
    if router_conn is not None:
        router_conn.close()
    conn.close()


def test_failed_start_reaps_processes_and_is_retryable(monkeypatch):
    """A startup timeout must not leak half-started children or wedge
    the router: the launched processes are reaped and a later start()
    on the same router is a real retry."""
    import repro.shard.router as router_mod

    monkeypatch.setattr(router_mod, "shard_main", _stillborn_shard_main)
    config = ShardConfig(shards=2, supervise=False, startup_timeout_s=2.0)
    router = ShardRouter(config)
    with pytest.raises(RuntimeError):
        router.start()
    assert router._started is False
    assert router._handles == {}
    monkeypatch.undo()  # workers come up for real now
    router.start()
    try:
        accepted, rejected = _serve(router, synthetic_load(6, n_tanks=2, seed=1))
        assert (accepted, rejected) == (6, [])
    finally:
        router.shutdown()


def test_crashlooping_restart_converges_on_abandon(monkeypatch):
    """Regression: a replacement that died before hello used to be
    installed already-retired, which no later sweep would ever restart
    or abandon — stranding its in-flight requests forever.  Every failed
    restart must burn budget until the abandon path answers everything
    terminally."""
    import dataclasses

    import repro.shard.router as router_mod

    config = ShardConfig(shards=1, supervise=False, max_restarts_per_shard=2)
    router = ShardRouter(config).start()
    try:
        handle = router._handles[0]
        monkeypatch.setattr(router_mod, "shard_main", _stillborn_shard_main)
        router.config = dataclasses.replace(config, startup_timeout_s=0.3)
        router.kill_shard(0)
        handle.process.join(10.0)
        assert handle.dead.wait(10.0)
        # Accepted while the shard is down: the pipe write fails but the
        # entries stay in flight awaiting re-delivery.
        accepted, rejected = router.submit_many(synthetic_load(4, n_tanks=2, seed=6))
        assert (accepted, rejected) == (4, [])
        # Each sweep burns budget on a stillborn replacement...
        assert router.restart_shard(0) is False
        assert router.restart_shard(0) is False
        assert router.restarts[0] == 2
        assert router.metrics.counter("shard_restart_failures") == 2
        # ...until the budget is spent and the shard is abandoned, with
        # every stranded request answered terminally.
        assert router.restart_shard(0) is False
        assert 0 in router.abandoned
        assert router.await_responses(4, timeout_s=5.0)
        responses = router.responses()
        assert sorted(r.request_id for r in responses) == [0, 1, 2, 3]
        assert all(r.status == "failed" for r in responses)
        with pytest.raises(BrokerFullError):
            router.submit(synthetic_load(5, n_tanks=2, seed=7)[4])
    finally:
        router.shutdown()


def test_malformed_response_payload_keeps_request_inflight():
    """Regression: a response that fails wire validation used to pop the
    in-flight entry first, orphaning the request with no terminal answer
    possible.  Validation must come first so the entry stays tracked."""
    from repro.shard.router import _ShardHandle

    router = ShardRouter(ShardConfig(shards=1, supervise=False))
    handle = _ShardHandle(0, 0, process=None, conn=None)
    handle.inflight[7] = {"request_id": 7, "tank_id": "tank-007"}
    router._on_response(handle, {"request_id": 7})  # missing status et al.
    assert 7 in handle.inflight  # still re-deliverable
    assert router.metrics.counter("router_wire_errors") == 1
    good = response_to_wire(
        MeasurementResponse(request_id=7, tank_id="tank-007", status="ok")
    )
    router._on_response(handle, good)
    assert handle.inflight == {}
    assert [r.request_id for r in router.responses()] == [7]


def test_shard_chaos_campaign_loses_nothing():
    from repro.verifylab import run_shard_chaos_campaign

    report = run_shard_chaos_campaign(requests=24, seed=3, shards=2, kills=1)
    assert report["ok"], report
    assert report["terminal_rate"] == 1.0
    assert report["responses"]["ok"] == 24
    assert report["recovery"]["shard_restarts"] >= 1
    assert report["integrity"]["matching"] == report["integrity"]["checked"] == 24
