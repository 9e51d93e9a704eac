"""Zero-copy response path: block encoding must be byte-identical to the
per-response encoding it replaced.

The sharded oracle's exactness guarantee rides on the wire codec's
shortest-round-trip float encoding; swapping per-response dicts for a
structure-of-arrays block is only safe if no byte changes.  These tests
pin that equivalence over hand-picked extremes, hypothesis fuzz, and the
live ``FleetService(on_deliver_block=...)`` seam.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import FleetService, synthetic_load
from repro.serve.batching import FaultInjector
from repro.serve.requests import (
    STATUS_EXPIRED,
    STATUS_FAILED,
    STATUS_OK,
    MeasurementResponse,
)
from repro.serve.respbuf import LaneBuffers, ResponseBlock
from repro.shard.wire import (
    KIND_RESPONSE,
    decode,
    encode,
    encode_responses_block,
    response_from_wire,
    response_to_wire,
)


def legacy_encode(responses):
    return encode(
        KIND_RESPONSE, {"responses": [response_to_wire(r) for r in responses]}
    )


def _response(i, **kwargs):
    defaults = dict(
        request_id=i,
        tank_id=f"tank-{i:03d}",
        status=STATUS_OK,
        level_measured=0.25 + i / 7.0,
        capacitance_pf=140.0 + i * 0.1,
        energy_j=1e-3 * i,
        device_time_s=2e-6 * i,
        latency_s=3e-4 * i,
        attempts=1 + i % 3,
        worker=i % 2,
        batch_id=i // 4,
        batch_size=4,
        error="",
    )
    defaults.update(kwargs)
    return MeasurementResponse(**defaults)


# ------------------------------------------------------- byte equality


def test_block_encoding_matches_legacy_bytes():
    responses = [_response(i) for i in range(9)]
    block = ResponseBlock.from_responses(responses)
    assert encode_responses_block(block) == legacy_encode(responses)


def test_block_encoding_none_fields_and_unicode():
    responses = [
        _response(
            0,
            status=STATUS_FAILED,
            level_measured=None,
            capacitance_pf=None,
            error='fault persisted — "tank-000"\\after 3 attempts',
        ),
        _response(1, tank_id="réservoir-λ-001", worker=None, batch_id=None),
        _response(
            2,
            status=STATUS_EXPIRED,
            level_measured=None,
            capacitance_pf=None,
            error="deadline exceeded between in-batch retry sweeps",
        ),
    ]
    block = ResponseBlock.from_responses(responses)
    data = encode_responses_block(block)
    assert data == legacy_encode(responses)
    kind, payload = decode(data)
    assert kind == KIND_RESPONSE
    rebuilt = [response_from_wire(d) for d in payload["responses"]]
    assert rebuilt == responses


@pytest.mark.parametrize(
    "value",
    [
        0.0,
        -0.0,
        1e15,
        1e16,
        1e16 + 2,
        5e-324,
        1.7976931348623157e308,
        1 / 3,
        math.pi,
        0.1 + 0.2,
    ],
)
def test_block_encoding_float_extremes(value):
    responses = [_response(0, level_measured=value, capacitance_pf=value)]
    block = ResponseBlock.from_responses(responses)
    data = encode_responses_block(block)
    assert data == legacy_encode(responses)
    payload = decode(data)[1]["responses"][0]
    # Shortest-repr round trip: the exact bits survive the wire.
    assert math.copysign(1.0, payload["level_measured"]) == math.copysign(1.0, value)
    assert payload["level_measured"] == value


finite = st.floats(allow_nan=False, allow_infinity=False)
maybe_finite = st.one_of(st.none(), finite)
text = st.text(max_size=40)


@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 2**31),
            text,
            maybe_finite,
            maybe_finite,
            st.one_of(st.none(), st.integers(0, 64)),
            text,
        ),
        min_size=0,
        max_size=12,
    )
)
@settings(max_examples=150, deadline=None)
def test_block_encoding_fuzz(rows):
    responses = [
        _response(
            rid,
            tank_id=tank or "t",
            status=STATUS_OK if level is not None else STATUS_FAILED,
            level_measured=level,
            capacitance_pf=c_pf,
            worker=worker,
            error=error,
        )
        for rid, tank, level, c_pf, worker, error in rows
    ]
    block = ResponseBlock.from_responses(responses)
    data = encode_responses_block(block)
    assert data == legacy_encode(responses)
    # And the bytes are valid JSON regardless of content.
    assert json.loads(data.decode("utf-8"))["kind"] == KIND_RESPONSE


# ----------------------------------------------------------- the block


def test_block_grows_past_initial_capacity():
    block = ResponseBlock(2)
    responses = [_response(i) for i in range(25)]
    for response in responses:
        block.push(response)
    assert len(block) == 25
    assert encode_responses_block(block) == legacy_encode(responses)


def test_push_from_lanes_copies_engine_results():
    lanes = LaneBuffers(4)
    lanes.c_pf[2] = 151.25
    lanes.level[2] = 0.625
    block = ResponseBlock(4)
    block.push(_response(7, level_measured=None, capacitance_pf=None), lanes, row=2)
    assert block.level[0] == 0.625
    assert block.c_pf[0] == 151.25
    # Untouched lanes stay NaN and encode as null.
    block.push(_response(8, level_measured=None, capacitance_pf=None), lanes, row=3)
    payload = decode(encode_responses_block(block))[1]
    assert payload["responses"][1]["level_measured"] is None


def test_lane_buffers_start_nan():
    lanes = LaneBuffers(6)
    assert np.isnan(lanes.c_pf).all()
    assert np.isnan(lanes.level).all()


# ------------------------------------------------------ delivery seam


def test_service_block_delivery_matches_responses():
    """The on_deliver_block seam sees exactly the terminal responses the
    service returns, and its blocks encode byte-identically."""
    blocks = []
    service = FleetService(
        workers=1,
        max_batch=4,
        batched=True,
        seed=11,
        queue_capacity=32,
        on_deliver_block=blocks.append,
    ).start()
    requests = synthetic_load(10, n_tanks=3)
    accepted, rejected = service.submit_many(requests)
    assert not rejected
    assert service.await_responses(accepted, timeout_s=120)
    assert service.shutdown()

    by_id = {r.request_id: r for r in service.responses()}
    seen = []
    for block in blocks:
        kind, payload = decode(encode_responses_block(block))
        assert kind == KIND_RESPONSE
        seen.extend(response_from_wire(d) for d in payload["responses"])
    assert {r.request_id for r in seen} == set(by_id)
    for response in seen:
        assert response == by_id[response.request_id]


def test_service_block_delivery_under_counter_faults():
    """Faulted requests retried by in-batch sweeps still deliver through
    the block seam with exact wire equality."""
    blocks = []
    service = FleetService(
        workers=1,
        max_batch=8,
        batched=True,
        seed=5,
        fault_injector=FaultInjector(0.5, seed=5, retry_rate=0.25),
        queue_capacity=32,
        on_deliver_block=blocks.append,
    ).start()
    requests = synthetic_load(12, n_tanks=4)
    accepted, rejected = service.submit_many(requests)
    assert not rejected
    assert service.await_responses(accepted, timeout_s=120)
    assert service.shutdown()

    assert service.metrics.counter("retries_in_batch") > 0
    by_id = {r.request_id: r for r in service.responses()}
    seen = {}
    for block in blocks:
        payload = decode(encode_responses_block(block))[1]
        for d in payload["responses"]:
            response = response_from_wire(d)
            seen[response.request_id] = response
    assert seen == by_id
