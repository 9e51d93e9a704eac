"""Shard scaling: aggregate throughput vs shard-process count.

The paper's cost argument is that several cheap small devices beat one
big one; ``repro.shard`` is that argument as runtime architecture.  This
bench serves the same vector-engine workload through a
:class:`repro.shard.ShardRouter` at 1, 2 and 4 shard processes and
asserts the scaling floor — plus the equivalence claim that makes the
scaling trustworthy: every shard count must produce bit-identical
measurement results (same base seed + per-tank derived seeds + tank
affinity, so the wire format and the routing cannot change any answer).

The floor is core-adaptive: shards are whole processes, so on a
multi-core box 4 shards must clear the ISSUE 6 floor of 2.5x over 1
shard, while on starved CI boxes (1-2 cores) the same architecture can
only buy modest overlap (or pure IPC overhead on a single core) and the
floor asserts the overhead stays bounded instead.

Set ``BENCH_SHARD_JSON=path`` to also write the scaling table as JSON
(the CI artifact ``BENCH_shard.json``).
"""

import os
import time

from _util import show, write_json

from repro.kernels import native_status
from repro.serve.loadgen import synthetic_load
from repro.serve.requests import MeasurementRequest
from repro.shard import ShardConfig, ShardRouter

SHARD_COUNTS = (1, 2, 4)
N_REQUESTS, N_TANKS, MAX_BATCH = 192, 12, 16

_CORES = os.cpu_count() or 1
#: ISSUE 6 floor on 4-shard vs 1-shard aggregate throughput, relaxed on
#: hosts that physically lack the parallelism: with 2-3 cores real
#: overlap exists but not 4-way; on one core 4 processes only time-slice
#: and the floor instead bounds the routing + wire + restart-machinery
#: overhead (steady-state aggregate stays within ~2x of one shard).
if _CORES >= 4:
    SPEEDUP_FLOOR = 2.5
elif _CORES >= 2:
    SPEEDUP_FLOOR = 1.3
else:
    SPEEDUP_FLOOR = 0.55


#: Warmup request ids start here; they never collide with the timed load.
_WARM_BASE = 1_000_000


def _warmup_requests(router: ShardRouter, per_shard: int = 2) -> list:
    """A few throwaway requests aimed at *every* shard (dedicated warm-*
    tank ids, so the measured tanks' filter state stays untouched).  They
    pull each child process through its first-batch lazy work — numpy
    dispatch, kernel and artifact caches — which is startup cost, not
    steady-state throughput."""
    need = {shard: per_shard for shard in range(router.config.shards)}
    tanks = []
    candidate = 0
    while any(count > 0 for count in need.values()):
        tank_id = f"warm-{candidate:03d}"
        shard = router.shard_for(tank_id)
        if need[shard] > 0:
            need[shard] -= 1
            tanks.append(tank_id)
        candidate += 1
    return [
        MeasurementRequest(
            request_id=_WARM_BASE + i,
            tank_id=tank_id,
            level=0.5,
            pipeline=("frontend", "amp_phase", "capacity", "filter"),
        )
        for i, tank_id in enumerate(tanks)
    ]


def serve_sharded(shards: int) -> dict:
    config = ShardConfig(
        shards=shards,
        workers_per_shard=1,
        max_batch=MAX_BATCH,
        queue_capacity=N_REQUESTS + 64,
        seed=0,
    )
    router = ShardRouter(config).start()
    warmup = _warmup_requests(router)
    warmed, rejected = router.submit_many(warmup)
    assert not rejected
    assert router.await_responses(warmed, timeout_s=300)

    t0 = time.perf_counter()
    accepted, rejected = router.submit_many(
        synthetic_load(N_REQUESTS, n_tanks=N_TANKS, seed=0)
    )
    assert not rejected
    assert router.await_responses(warmed + accepted, timeout_s=300)
    elapsed = time.perf_counter() - t0

    snap = router.metrics_snapshot()
    assert router.shutdown()
    responses = [r for r in router.responses() if r.request_id < _WARM_BASE]
    assert all(r.ok for r in responses)
    # Steady-state throughput: process startup and first-batch warmup are
    # excluded (they amortize away in a long-running fleet).
    snap["service"]["requests_per_s"] = accepted / elapsed
    snap["_levels"] = {r.request_id: r.level_measured for r in responses}
    return snap


def run_all() -> dict:
    return {n: serve_sharded(n) for n in SHARD_COUNTS}


def test_shard_scaling(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    base_rps = results[1]["service"]["requests_per_s"]
    header = (
        f"{'shards':<8}{'req/s':>9}{'speedup':>9}{'p95 ms':>8}"
        f"{'mJ/req':>9}{'reconfigs':>11}"
    )
    lines = [
        header,
        "-" * len(header),
        f"cores: {_CORES}, floor: {SPEEDUP_FLOOR}x, native ADC kernel: {native_status()}",
    ]
    rows = []
    for shards, snap in results.items():
        service = snap["service"]
        speedup = service["requests_per_s"] / max(1e-9, base_rps)
        rows.append(
            {
                "shards": shards,
                "requests_per_s": round(service["requests_per_s"], 1),
                "speedup_vs_1": round(speedup, 2),
                "p95_latency_ms": round(snap["histograms"]["latency_s"]["p95"] * 1e3, 1),
                "joules_per_request": service["joules_per_request"],
                "reconfigurations": service["reconfigurations"],
            }
        )
        lines.append(
            f"{shards:<8}{service['requests_per_s']:>9.1f}{speedup:>8.2f}x"
            f"{snap['histograms']['latency_s']['p95'] * 1e3:>8.0f}"
            f"{service['joules_per_request'] * 1e3:>9.3f}"
            f"{service['reconfigurations']:>11}"
        )
    show("Shard scaling: aggregate throughput vs shard processes", "\n".join(lines))

    # Routing and the wire format must not change a single answer: every
    # shard count serves bit-identical measurement results.
    for shards in SHARD_COUNTS[1:]:
        assert results[shards]["_levels"] == results[1]["_levels"], shards
        assert len(results[shards]["_levels"]) == N_REQUESTS

    speedup_at_4 = results[4]["service"]["requests_per_s"] / max(1e-9, base_rps)
    assert speedup_at_4 >= SPEEDUP_FLOOR, (speedup_at_4, _CORES, SPEEDUP_FLOOR)

    report = {
        "cores": _CORES,
        "speedup_floor": SPEEDUP_FLOOR,
        "engine": "vector",
        "native_kernel": native_status(),
        "requests": N_REQUESTS,
        "tanks": N_TANKS,
        "max_batch": MAX_BATCH,
        "speedup_at_4": round(speedup_at_4, 2),
        "scaling": rows,
    }
    write_json("BENCH_SHARD_JSON", report)
    benchmark.extra_info.update(
        {
            "cores": _CORES,
            "floor": SPEEDUP_FLOOR,
            "speedup_at_4": round(speedup_at_4, 2),
            "rps_1_shard": round(base_rps, 1),
            "rps_4_shards": round(results[4]["service"]["requests_per_s"], 1),
        }
    )
