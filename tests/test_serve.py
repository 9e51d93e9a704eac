"""Tests of the fleet-serving runtime (repro.serve)."""

import threading

import pytest

from repro.app.dsp import LevelFilter, process_measurement
from repro.app.modules import standard_modules
from repro.serve import (
    ArtifactCache,
    BrokerFullError,
    POLICIES,
    FleetService,
    MeasurementRequest,
    RequestBroker,
    RetryPolicy,
    synthetic_load,
)
from repro.serve.batching import STANDARD_PIPELINE, TankStateStore
from repro.serve.metrics import Histogram, Metrics


def run_service(requests, **kwargs):
    """Start a service, serve a request list to completion, shut down."""
    kwargs.setdefault("queue_capacity", len(requests) + 8)
    service = FleetService(**kwargs).start()
    accepted, rejected = service.submit_many(requests)
    assert not rejected
    assert service.await_responses(accepted, timeout_s=120)
    assert service.shutdown()
    return service


def by_id(service):
    return {r.request_id: r for r in service.responses()}


# --------------------------------------------------------------- correctness


def test_batched_responses_match_reference_pipeline():
    """Stage-major batching must not change any request's answer: each
    response equals the per-request reference pipeline result."""
    requests = synthetic_load(8, n_tanks=2)
    service = run_service(requests, workers=1, max_batch=4, batched=True, seed=5)
    responses = by_id(service)
    assert all(r.ok for r in responses.values())
    assert service.metrics.counter("reconfigurations_avoided") > 0

    # Reference: same per-tank sessions (same seeds), same module
    # behaviours, executed strictly per request.
    circuit = service.config.circuit
    tanks = TankStateStore(circuit=circuit, seed=5)
    reference_filters = {}
    for request in synthetic_load(8, n_tanks=2):
        session = tanks.session(request.tank_id)
        modules = standard_modules(circuit, session.frontend.tone_hz)
        cycle = session.frontend.sample_cycle(request.level, 512)
        phasors = modules["amp_phase"].behavior(
            cycle.meas, cycle.ref, cycle.sample_rate_hz, cycle.tone_hz
        )
        c_pf = modules["capacity"].behavior(*phasors)
        level, session.filter_state = modules["filter"].behavior(
            c_pf, session.filter_state
        )
        response = responses[request.request_id]
        assert response.capacitance_pf == pytest.approx(c_pf, abs=1e-9)
        assert response.level_measured == pytest.approx(level, abs=1e-9)

        # And both agree with the unquantised numpy reference pipeline
        # within the modules' fixed-point precision.
        reference = process_measurement(
            cycle.meas,
            cycle.ref,
            cycle.sample_rate_hz,
            cycle.tone_hz,
            circuit,
            reference_filters.setdefault(request.tank_id, LevelFilter()),
        )
        assert response.level_measured == pytest.approx(reference.level, abs=0.02)


def test_batched_equals_per_request_serving():
    """Batched and naive serving produce identical measurements."""
    batched = run_service(
        synthetic_load(6, n_tanks=3), workers=1, max_batch=6, batched=True, seed=2
    )
    naive = run_service(
        synthetic_load(6, n_tanks=3), workers=1, max_batch=6, batched=False, seed=2
    )
    b, n = by_id(batched), by_id(naive)
    assert set(b) == set(n)
    for request_id in b:
        assert b[request_id].level_measured == n[request_id].level_measured
        assert b[request_id].capacitance_pf == n[request_id].capacitance_pf
    # Same answers, far fewer reconfigurations.
    assert (
        batched.metrics.counter("reconfigurations")
        < naive.metrics.counter("reconfigurations")
    )


# --------------------------------------------------------------------- cache


def test_artifact_cache_lru_and_counters():
    cache = ArtifactCache(capacity=2)
    assert cache.get_or_build("a", lambda: 1) == 1
    assert cache.get_or_build("a", lambda: 2) == 1  # hit keeps first value
    cache.put("b", 2)
    cache.put("c", 3)  # evicts "a" (capacity 2)
    assert cache.get("a") is None
    snap = cache.snapshot()
    assert snap["hits"] == 1
    assert snap["evictions"] == 1
    assert 0.0 < snap["hit_rate"] < 1.0


def test_bitstream_cache_shared_across_workers():
    """Worker 2+ must reuse worker 1's partial bitstreams: hit rate > 0
    without serving a single request."""
    service = FleetService(workers=3, batched=True)
    snap = service.metrics_snapshot()
    assert snap["cache"]["misses"] == len(STANDARD_PIPELINE)
    assert snap["cache"]["hits"] == 2 * len(STANDARD_PIPELINE)
    assert snap["cache"]["hit_rate"] > 0.5
    service.broker.close()


def test_cached_slot_implementation_roundtrip():
    from repro.app.system import static_side_slices
    from repro.fabric.device import get_device
    from repro.netlist.blocks import BlockFootprint, block_netlist
    from repro.par.placer import PlacerOptions
    from repro.reconfig.slots import plan_floorplan
    from repro.serve.cache import cached_slot_implementation

    device = get_device("XC3S400")
    floorplan = plan_floorplan(device, static_side_slices(), [600], [24])
    netlist = block_netlist(
        BlockFootprint("mod", slices=120, mean_activity=0.1), seed=8, interface_nets=10
    )
    cache = ArtifactCache(capacity=4)
    first = cached_slot_implementation(
        cache, netlist, floorplan, placer_options=PlacerOptions(steps=5)
    )
    second = cached_slot_implementation(
        cache, netlist, floorplan, placer_options=PlacerOptions(steps=5)
    )
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    # The hit rehydrates a bit-exact copy, not the same object graph.
    assert second.design is not first.design
    assert second.anchor_count == first.anchor_count
    assert second.design.placement.as_dict() == first.design.placement.as_dict()


# ---------------------------------------------------- deadlines and failures


def test_deadline_expiry_skips_device_work():
    service = FleetService(workers=1, batched=True)
    expired = MeasurementRequest(
        request_id=1,
        tank_id="tank-x",
        level=0.5,
        deadline_s=service.clock() - 1.0,
    )
    service.submit(expired)
    service.start()
    assert service.await_responses(1, timeout_s=30)
    assert service.shutdown()
    (response,) = service.responses()
    assert response.status == "expired"
    assert response.level_measured is None
    assert service.metrics.counter("requests_expired") == 1
    assert service.metrics.counter("reconfigurations") == 0


def test_transient_fault_is_retried_with_backoff():
    """A faulted attempt retries inside its batch: no broker requeue, so
    no backoff is paid at all."""
    requests = synthetic_load(4, n_tanks=2, max_attempts=3)
    service = run_service(
        requests, workers=1, max_batch=4, batched=True, fault_rate=1.0, seed=7
    )
    responses = by_id(service)
    assert len(responses) == 4
    for response in responses.values():
        assert response.ok
        assert response.attempts == 2  # first attempt faulted, retry served
    snap = service.metrics_snapshot()
    assert snap["counters"]["faults_injected"] == 4
    assert snap["counters"]["faults_scrubbed"] >= 1
    # The retry ran as an extra lane of the same batch, not via the broker.
    assert snap["counters"]["retries_in_batch"] == 4
    assert snap["counters"]["requests_retried"] == 4
    assert snap["broker"]["requeued"] == 0
    assert "retry_backoff_s" not in snap["histograms"]


def test_exhausted_retries_fail():
    requests = synthetic_load(2, n_tanks=1, max_attempts=1)
    service = run_service(
        requests, workers=1, batched=True, fault_rate=1.0, seed=3
    )
    for response in service.responses():
        assert response.status == "failed"
        assert "scrubbed" in response.error or "fault" in response.error
    assert service.metrics.counter("requests_failed") == 2


# -------------------------------------------------- backpressure and shutdown


def test_backpressure_rejects_when_full():
    service = FleetService(workers=1, queue_capacity=2)
    service.submit(MeasurementRequest(request_id=1, tank_id="a", level=0.5))
    service.submit(MeasurementRequest(request_id=2, tank_id="a", level=0.5))
    with pytest.raises(BrokerFullError) as err:
        service.submit(MeasurementRequest(request_id=3, tank_id="a", level=0.5))
    assert err.value.retry_after_s > 0
    assert service.broker.rejected == 1
    assert service.broker.depth == 2
    service.broker.close()


def test_clean_pool_shutdown_drains_queue():
    service = FleetService(workers=2, max_batch=4, batched=True)
    requests = synthetic_load(6, n_tanks=3)
    accepted, _ = service.submit_many(requests)
    service.start()
    assert service.shutdown(drain=True, timeout_s=120)
    assert all(not w.is_alive() for w in service.workers)
    assert len(service.responses()) == accepted
    with pytest.raises(RuntimeError):
        service.submit(MeasurementRequest(request_id=99, tank_id="a", level=0.5))


def test_immediate_shutdown_stops_workers():
    service = FleetService(workers=1).start()
    assert service.shutdown(drain=False, timeout_s=30)
    assert all(not w.is_alive() for w in service.workers)


def _container_sizes(*objects):
    """Length of every container held in each object's ``vars()``."""
    return {
        (type(obj).__name__, name): len(value)
        for obj in objects
        for name, value in vars(obj).items()
        if isinstance(value, (list, dict, set, tuple, bytes, bytearray))
    }


def test_reconfig_state_does_not_grow_with_uptime():
    """A long-running fleet keeps totals, not history, in the
    reconfiguration layer: after k and after 4k batches, the controller,
    its port, its store and its configuration memory hold containers of
    the same sizes, with SEUs injected and scrubbed along the way."""
    k = 3
    service = FleetService(workers=1, batched=False, seed=5, fault_rate=0.5).start()
    controller = service.workers[0].executor.system.controller
    layer = (controller, controller.port, controller.store, controller.config_memory)
    try:
        service.submit_many(synthetic_load(k, n_tanks=2))
        assert service.await_responses(k, timeout_s=120)
        after_k = _container_sizes(*layer)
        faults_after_k = service.metrics.counter("faults_injected")
        service.submit_many(synthetic_load(3 * k, n_tanks=2, start_id=k))
        assert service.await_responses(4 * k, timeout_s=120)
        assert service.metrics_snapshot()["counters"]["batches_formed"] == 4 * k
        assert service.metrics.counter("faults_injected") > faults_after_k
        assert _container_sizes(*layer) == after_k
    finally:
        service.shutdown()


class _ContendedLock:
    """A lock that signals once a caller has had to wait for it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.contended = threading.Event()

    def acquire(self, blocking=True, timeout=-1):
        if self._lock.acquire(False):
            return True
        self.contended.set()
        return self._lock.acquire(blocking, timeout)

    def release(self):
        self._lock.release()


def test_one_worker_forms_a_batch_at_a_time():
    """While one worker sits in its energy-policy fill wait, a second
    ``next_batch`` caller takes nothing; the filling worker then takes the
    whole batch, and a worker waiting its turn is not counted stalled."""
    from repro.serve.supervisor import SupervisorConfig, WorkerSupervisor

    def clock():
        # Frozen: a fill wait ends only when the batch fills.
        return 100.0

    service = FleetService(
        workers=2, max_batch=4, policy="energy", supervise=False, clock=clock
    )
    scheduler, broker = service.scheduler, service.broker
    lock = scheduler._form_lock = _ContendedLock()
    filling = threading.Event()
    wait_for_depth = broker.wait_for_depth

    def spy_wait_for_depth(n, deadline_s):
        if n == scheduler.max_batch:
            filling.set()
        return wait_for_depth(n, deadline_s)

    broker.wait_for_depth = spy_wait_for_depth
    service.submit_many(synthetic_load(1, n_tanks=1))
    service.start()
    try:
        # One worker is filling, the other is blocked on its turn.
        assert filling.wait(timeout=30) and lock.contended.wait(timeout=30)
        assert scheduler.next_batch(timeout_s=0.0) is None
        assert broker.depth == 1
        for worker in service.workers:
            worker.last_heartbeat = clock() - 60.0
        WorkerSupervisor(service, SupervisorConfig(heartbeat_timeout_s=1.0)).check_once()
        assert service.metrics.counter("worker_stalls") == 0
        service.submit_many(synthetic_load(3, n_tanks=1, start_id=1))
        assert service.await_responses(4, timeout_s=60)
    finally:
        service.shutdown()
    sizes = service.metrics_snapshot()["histograms"]["batch_size"]
    assert (sizes["count"], sizes["max"]) == (1, 4)


@pytest.mark.parametrize("policy", POLICIES)
def test_batches_keep_one_tanks_submit_order(policy):
    """Grouping by pipeline never serves a tank's later request before
    its earlier one, whatever the policy: the tank's filter state
    depends on submit order."""
    short = ("frontend", "amp_phase")
    service = FleetService(workers=1, policy=policy)
    for i, pipeline in enumerate(
        [STANDARD_PIPELINE, short, STANDARD_PIPELINE, STANDARD_PIPELINE]
    ):
        service.submit(
            MeasurementRequest(request_id=i, tank_id="t", level=0.5, pipeline=pipeline)
        )
    service.start()
    try:
        assert service.await_responses(4, timeout_s=60)
    finally:
        assert service.shutdown()
    batch_of = {r.request_id: r.batch_id for r in service.responses()}
    assert [batch_of[i] for i in range(4)] == sorted(batch_of[i] for i in range(4))


# ----------------------------------------------------------- building blocks


def test_retry_policy_backoff_is_exponential_and_capped():
    policy = RetryPolicy(base_delay_s=0.01, factor=2.0, max_delay_s=0.05)
    assert policy.delay_s(1) == pytest.approx(0.01)
    assert policy.delay_s(2) == pytest.approx(0.02)
    assert policy.delay_s(3) == pytest.approx(0.04)
    assert policy.delay_s(4) == pytest.approx(0.05)  # capped
    with pytest.raises(ValueError):
        policy.delay_s(0)


def test_broker_groups_same_pipeline_requests():
    broker = RequestBroker(capacity=8)
    short = ("frontend", "amp_phase")
    for i, pipeline in enumerate(
        [STANDARD_PIPELINE, short, STANDARD_PIPELINE, STANDARD_PIPELINE]
    ):
        broker.submit(
            MeasurementRequest(
                request_id=i, tank_id=f"t{i}", level=0.5, pipeline=pipeline
            )
        )
    first = broker.take(4, timeout_s=0.1)
    assert [r.request_id for r in first] == [0, 2, 3]
    second = broker.take(4, timeout_s=0.1)
    assert [r.request_id for r in second] == [1]


def test_histogram_percentiles():
    hist = Histogram()
    for value in range(1, 101):
        hist.observe(float(value))
    assert hist.percentile(50) == pytest.approx(50.5)
    assert hist.percentile(95) == pytest.approx(95.05)
    assert hist.count == 100
    with pytest.raises(ValueError):
        Histogram().percentile(50)


def test_metrics_snapshot_shape():
    metrics = Metrics()
    metrics.inc("requests_served", 3)
    metrics.add("energy_j", 0.5)
    metrics.observe("latency_s", 0.1)
    snap = metrics.snapshot()
    assert snap["counters"]["requests_served"] == 3
    assert snap["gauges"]["energy_j"] == pytest.approx(0.5)
    assert snap["histograms"]["latency_s"]["count"] == 1


def test_request_validation():
    with pytest.raises(ValueError):
        MeasurementRequest(request_id=1, tank_id="t", level=1.5)
    with pytest.raises(ValueError):
        MeasurementRequest(request_id=1, tank_id="t", level=0.5, max_attempts=0)
    with pytest.raises(ValueError):
        MeasurementRequest(request_id=1, tank_id="t", level=0.5, pipeline=())


# -------------------------------------------------------- concurrency stress


def _start_threads(n, target):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    return threads


def _join_all(threads, timeout_s=30.0):
    for t in threads:
        t.join(timeout=timeout_s)
    assert not any(t.is_alive() for t in threads), "thread failed to finish"


def test_artifact_cache_survives_thread_hammering():
    """8 threads x 250 lookups over 16 keys: correct values, coherent
    counters, no eviction churn, no deadlock."""
    n_threads, ops, n_keys = 8, 250, 16
    cache = ArtifactCache(capacity=n_keys)
    barrier = threading.Barrier(n_threads)
    errors = []

    def hammer(worker):
        barrier.wait()
        try:
            for op in range(ops):
                key = ("artifact", (worker + op) % n_keys)
                value = cache.get_or_build(key, lambda k=key: ("built", k))
                assert value == ("built", key)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    _join_all(_start_threads(n_threads, hammer))
    assert not errors
    # Every get_or_build performs exactly one lookup; concurrent misses on
    # one key may build twice (documented stampede trade) but never lose
    # the entry or corrupt the counters.
    assert cache.stats.lookups == n_threads * ops
    assert cache.stats.hits + cache.stats.misses == cache.stats.lookups
    assert n_keys <= cache.stats.misses < n_threads * n_keys
    assert len(cache) == n_keys
    assert cache.stats.evictions == 0


def test_broker_concurrent_producers_and_consumers_lose_nothing():
    n_producers = n_consumers = 8
    per_producer = 32
    broker = RequestBroker(capacity=n_producers * per_producer)
    barrier = threading.Barrier(n_producers + n_consumers)
    taken_lock = threading.Lock()
    taken = []

    def produce(worker):
        barrier.wait()
        for i in range(per_producer):
            broker.submit(
                MeasurementRequest(
                    request_id=worker * per_producer + i, tank_id="t", level=0.5
                )
            )

    def consume(_worker):
        barrier.wait()
        while True:
            batch = broker.take(7, timeout_s=0.2)
            if batch:
                with taken_lock:
                    taken.extend(batch)
            elif broker.closed:
                return  # closed and drained

    producers = _start_threads(n_producers, produce)
    consumers = _start_threads(n_consumers, consume)
    _join_all(producers)
    broker.close()
    _join_all(consumers)

    ids = sorted(r.request_id for r in taken)
    assert ids == list(range(n_producers * per_producer))  # no loss, no dups
    assert broker.depth == 0
    assert broker.submitted == n_producers * per_producer
    assert broker.rejected == 0


def test_broker_shutdown_while_enqueueing_does_not_deadlock():
    """close() racing a herd of submitters: every thread exits, every
    accepted request is still drainable, late submits fail loudly."""
    broker = RequestBroker(capacity=64)
    n_threads = 8
    barrier = threading.Barrier(n_threads + 1)
    accepted = []
    refused = []
    lock = threading.Lock()

    def produce(worker):
        barrier.wait()
        for i in range(100):
            request = MeasurementRequest(
                request_id=worker * 100 + i, tank_id="t", level=0.5
            )
            try:
                broker.submit(request)
                with lock:
                    accepted.append(request.request_id)
            except (RuntimeError, BrokerFullError):
                with lock:
                    refused.append(request.request_id)

    producers = _start_threads(n_threads, produce)
    barrier.wait()  # release the herd, then close mid-flight
    broker.close()
    _join_all(producers)

    assert broker.closed
    drained = []
    while True:
        batch = broker.take(16, timeout_s=0.1)
        if not batch:
            break
        drained.extend(r.request_id for r in batch)
    assert sorted(drained) == sorted(accepted)  # accepted work survives close
    assert len(accepted) + len(refused) == n_threads * 100
    assert broker.depth == 0
    with pytest.raises(RuntimeError):
        broker.submit(MeasurementRequest(request_id=10**6, tank_id="t", level=0.5))


# ------------------------------------------------------- metrics edge cases


def test_histogram_percentile_edges():
    hist = Histogram()
    for value in (5.0, 1.0, 9.0, 3.0):
        hist.observe(value)
    assert hist.percentile(0) == hist.min == 1.0
    assert hist.percentile(100) == hist.max == 9.0
    with pytest.raises(ValueError):
        hist.percentile(-0.1)
    with pytest.raises(ValueError):
        hist.percentile(100.1)

    single = Histogram()
    single.observe(2.5)
    assert single.percentile(0) == single.percentile(50) == single.percentile(100) == 2.5

    with pytest.raises(ValueError):
        Histogram().percentile(50)  # empty reservoir


def test_empty_histogram_summary_has_fixed_shape():
    summary = Histogram().summary()
    assert summary == {
        "count": 0,
        "mean": 0.0,
        "min": None,
        "max": None,
        "p50": None,
        "p95": None,
    }


def test_metrics_snapshot_with_no_observations():
    assert Metrics().snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    metrics = Metrics()
    assert metrics.counter("never_incremented") == 0
    assert metrics.gauge("never_set") == 0.0


def test_single_observation_histogram_summary_is_degenerate():
    """One observation: every statistic collapses to that value — the
    shape the trace report must render without dividing by zero."""
    hist = Histogram()
    hist.observe(0.25)
    summary = hist.summary()
    assert summary["count"] == 1
    for key in ("mean", "min", "max", "p50", "p95"):
        assert summary[key] == pytest.approx(0.25)


def test_cli_formatters_survive_missing_histograms():
    """serve-bench's table renderers on a run that observed nothing
    (zero requests): placeholders, not TypeError on None quantiles."""
    from repro.cli import _hist, _quantile_ms

    assert _quantile_ms({}, "latency_s", "p50") == "-"
    assert _quantile_ms({"histograms": {}}, "latency_s", "p95") == "-"
    empty = _hist({"histograms": {}}, "latency_s")
    assert empty["count"] == 0 and empty["p50"] is None
    # Zero-count summaries pass through unchanged...
    zero = {"histograms": {"latency_s": Histogram().summary()}}
    assert _quantile_ms(zero, "latency_s", "p50") == "-"
    # ...and real observations still format as milliseconds.
    populated = {"histograms": {"latency_s": {"p50": 0.125}}}
    assert _quantile_ms(populated, "latency_s", "p50") == "125 ms"


def test_artifact_cache_eviction_stress_with_concurrent_get_put():
    """Eviction under contention: capacity far below the key set while
    8 threads mix get/put/get_or_build.  The LRU bound, the counters and
    the returned values must all stay coherent."""
    capacity, n_keys, n_threads, ops = 4, 32, 8, 300
    cache = ArtifactCache(capacity=capacity)
    barrier = threading.Barrier(n_threads)
    errors = []

    def churn(worker):
        barrier.wait()
        try:
            for op in range(ops):
                key = ("artifact", (worker * 7 + op * 3) % n_keys)
                if op % 3 == 0:
                    cache.put(key, ("put", key))
                elif op % 3 == 1:
                    value = cache.get(key)
                    assert value is None or value[1] == key
                else:
                    value = cache.get_or_build(key, lambda k=key: ("built", k))
                    assert value[1] == key
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    _join_all(_start_threads(n_threads, churn))
    assert not errors
    assert len(cache) <= capacity  # the LRU bound holds under churn
    snap = cache.snapshot()
    assert snap["evictions"] > 0
    assert snap["hits"] + snap["misses"] == cache.stats.lookups
    assert 0.0 <= snap["hit_rate"] <= 1.0
    # Survivors are still readable and correct after the storm.
    for key in list(cache._entries):
        assert cache.get(key)[1] == key
