"""Response delivery onto the wire: lane buffers and the per-response codec.

The vector engine scatters stage results into per-batch
:class:`LaneBuffers`; the executor boxes them into
:class:`MeasurementResponse` objects, and a wire transport (the shard
worker) encodes those with :func:`repro.shard.wire.response_to_wire`
from the service's ``on_deliver`` seam.  The sharded oracle's exactness
rides on that path being lossless, faulted retries included.  The
codec's own float/round-trip fuzz lives in ``test_shard.py``.
"""

import numpy as np

from repro.serve import FleetService, synthetic_load
from repro.serve.batching import FaultInjector
from repro.serve.respbuf import LaneBuffers
from repro.shard.wire import (
    KIND_RESPONSE,
    decode,
    encode,
    response_from_wire,
    response_to_wire,
)


def test_lane_buffers_start_nan():
    lanes = LaneBuffers(6)
    assert np.isnan(lanes.c_pf).all()
    assert np.isnan(lanes.level).all()


def test_service_wire_delivery_under_counter_faults():
    """Faulted requests retried by in-batch sweeps, encoded from the
    ``on_deliver`` seam the way the shard worker does it, round-trip
    exactly to the responses the service returns."""
    messages = []

    def deliver(responses):
        messages.append(
            encode(KIND_RESPONSE, {"responses": [response_to_wire(r) for r in responses]})
        )

    service = FleetService(
        workers=1,
        max_batch=8,
        seed=5,
        fault_injector=FaultInjector(0.5, seed=5, retry_rate=0.25),
        queue_capacity=32,
        on_deliver=deliver,
    ).start()
    requests = synthetic_load(12, n_tanks=4)
    accepted, rejected = service.submit_many(requests)
    assert not rejected
    assert service.await_responses(accepted, timeout_s=120)
    assert service.shutdown()

    assert service.metrics.counter("retries_in_batch") > 0
    by_id = {r.request_id: r for r in service.responses()}
    assert any(r.status != "ok" or r.attempts > 1 for r in by_id.values())
    seen = {}
    for data in messages:
        kind, payload = decode(data)
        assert kind == KIND_RESPONSE
        for d in payload["responses"]:
            response = response_from_wire(d)
            seen[response.request_id] = response
    assert seen == by_id
