"""Vector engine v2: mixed faulty/clean workload stays on the vector path.

:class:`FaultInjector` makes every draw a pure function of ``(seed,
request_id, attempt)``; the executor exploits that to re-run only the
faulted subset as additional *in-batch* vectorized lanes, so a struck
request never leaves its batch for the broker's backoff path.

This bench serves a 30 %-faulty fleet workload and asserts that every
retry stayed in its batch.  Exactness under faults is the differential
oracle's ``local x faults`` cell (``repro verifylab oracle --family
faults``), which compares every response with the reference replay.

Set ``BENCH_VECTOR2_JSON=path`` to also write the table as JSON (the CI
artifact ``BENCH_vector2.json``).
"""

from _util import show, write_json

from repro.kernels import native_status
from repro.serve import FleetService, synthetic_load
from repro.serve.batching import FaultInjector

#: ~30 % of first attempts struck, harsh retry climate.
RATE = 0.30
RETRY_RATE = 0.25
BURST = 2
N_REQUESTS = 64
N_TANKS = 8
MAX_BATCH = 8
SEED = 0


def serve() -> dict:
    service = FleetService(
        workers=1,
        max_batch=MAX_BATCH,
        queue_capacity=N_REQUESTS + 16,
        seed=SEED,
        fault_injector=FaultInjector(
            RATE, seed=SEED, burst=BURST, retry_rate=RETRY_RATE
        ),
    ).start()
    # Closed-loop waves: one full batch in flight at a time, like a
    # telemetry poller that waits for each fleet sweep before issuing
    # the next.  In-batch retries finish each wave in one pass.
    load = synthetic_load(N_REQUESTS, n_tanks=N_TANKS)
    done = 0
    for start in range(0, N_REQUESTS, MAX_BATCH):
        accepted, rejected = service.submit_many(load[start : start + MAX_BATCH])
        assert not rejected
        done += accepted
        assert service.await_responses(done, timeout_s=300)
    assert service.shutdown()
    responses = service.responses()
    assert len(responses) == N_REQUESTS
    snap = service.metrics_snapshot()
    snap["_responses"] = {
        r.request_id: (r.status, r.attempts, r.level_measured, r.capacitance_pf)
        for r in responses
    }
    return snap


def run_all() -> dict:
    serve()  # warm kernel caches before timing
    return serve()


def test_vector_fault_path(benchmark):
    snap = benchmark.pedantic(run_all, rounds=1, iterations=1)

    counters = snap["counters"]
    in_batch = counters.get("retries_in_batch", 0)
    row = {
        "requests_per_s": round(snap["service"]["requests_per_s"], 1),
        "p95_latency_ms": round(snap["histograms"]["latency_s"]["p95"] * 1e3, 2),
        "faults_injected": counters.get("faults_injected", 0),
        "retries_in_batch": in_batch,
        "retries_requeued": counters.get("requests_retried", 0) - in_batch,
    }
    header = f"{'req/s':>9}{'p95 ms':>9}{'faults':>8}{'in-batch':>10}{'requeued':>10}"
    lines = [
        header,
        "-" * len(header),
        f"{row['requests_per_s']:>9.1f}{row['p95_latency_ms']:>9.2f}"
        f"{row['faults_injected']:>8}{row['retries_in_batch']:>10}"
        f"{row['retries_requeued']:>10}",
        f"native kernels: {native_status()}",
    ]
    show("Fault path: in-batch retry lanes", "\n".join(lines))

    # Every retry stayed inside its batch.
    assert row["retries_in_batch"] > 0
    assert row["retries_requeued"] == 0

    faulted = sum(
        1
        for status, attempts, _lv, _c in snap["_responses"].values()
        if status == "ok" and attempts > 1
    )
    assert faulted > 0, "workload never exercised the fault path"

    report = {
        "workload": {
            "requests": N_REQUESTS,
            "tanks": N_TANKS,
            "max_batch": MAX_BATCH,
            "rate": RATE,
            "retry_rate": RETRY_RATE,
            "burst": BURST,
        },
        "native_kernel": native_status(),
        "engines": {"vector": row},
        "faulted_ok": faulted,
    }
    benchmark.extra_info.update({"vector_rps": row["requests_per_s"]})
    write_json("BENCH_VECTOR2_JSON", report)
