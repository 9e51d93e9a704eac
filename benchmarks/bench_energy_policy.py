"""Energy policy vs FIFO: joules/request under paced offered load.

The tentpole claim of the energy-aware scheduler is operational, not
cosmetic: at realistic (non-saturating) offered load, pricing candidate
batches in joules/request and waiting a bounded fill window must buy a
strictly lower J/req than FIFO dispatch — *without* giving back SLO
attainment.  FIFO at paced load dispatches near-singleton batches, so
every request pays the static-power floor and the per-stage
reconfiguration energy almost alone; the energy policy amortizes both
across the batch it assembles inside the deadline slack.

Three load levels (request inter-arrival 40/20/8 ms) bracket the
regimes: slow enough that batching requires deliberately waiting, and
fast enough that even modest windows fill whole batches.  Deadlines are
a generous 30 s so the comparison isolates energy, and the assertion is
per level: ``J/req(energy) < J/req(fifo)`` and SLO attainment >= FIFO's.

Set ``BENCH_ENERGY_JSON=path`` to also write the table as JSON (the CI
artifact ``BENCH_energy.json``).
"""

import time

from _util import show, write_json

from repro.kernels import native_status
from repro.serve import FleetService
from repro.serve.loadgen import synthetic_load

#: (label, inter-arrival seconds) — offered load levels.
LOAD_LEVELS = (
    ("slow", 0.040),
    ("medium", 0.020),
    ("fast", 0.008),
)
N_REQUESTS, N_TANKS, MAX_BATCH = 24, 6, 16
DEADLINE_S = 30.0
#: Energy policy fill window: the maximum time the scheduler will hold
#: the device idle to let a batch accumulate (well inside the deadline).
ENERGY_WINDOW_S = 0.25


def serve_paced(policy: str, interval_s: float, seed: int) -> dict:
    service = FleetService(
        workers=1,
        max_batch=MAX_BATCH,
        queue_capacity=N_REQUESTS + 16,
        seed=seed,
        window_s=ENERGY_WINDOW_S if policy == "energy" else 0.0,
        policy=policy,
    )
    service.start()
    try:
        requests = synthetic_load(
            N_REQUESTS,
            n_tanks=N_TANKS,
            deadline_s=DEADLINE_S,
            now_s=time.monotonic(),
            seed=seed,
        )
        for request in requests:
            service.submit(request)
            time.sleep(interval_s)
        assert service.await_responses(N_REQUESTS, timeout_s=120)
        snap = service.metrics_snapshot()
        responses = service.responses()
    finally:
        service.shutdown(drain=True, timeout_s=30.0)

    ok = sum(1 for r in responses if r.ok)
    batch_sizes = [r.batch_size for r in responses if r.ok]
    return {
        "joules_per_request": snap["service"]["joules_per_request"],
        "reconfigurations": snap["service"]["reconfigurations"],
        "slo_attainment": ok / len(responses),
        "mean_batch": sum(batch_sizes) / max(1, len(batch_sizes)),
        "p95_latency_s": snap["histograms"]["latency_s"]["p95"],
    }


def run_all() -> dict:
    results = {}
    for index, (label, interval_s) in enumerate(LOAD_LEVELS):
        results[label] = {
            "interval_s": interval_s,
            "fifo": serve_paced("fifo", interval_s, seed=index),
            "energy": serve_paced("energy", interval_s, seed=index),
        }
    return results


def test_energy_policy_beats_fifo_on_joules_per_request(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    header = (
        f"{'load':<8}{'policy':<8}{'mJ/req':>9}{'batch':>7}{'SLO':>7}"
        f"{'p95 ms':>9}{'reconfigs':>11}{'savings':>9}"
    )
    lines = [header, "-" * len(header)]
    rows = []
    for label, level in results.items():
        fifo, energy = level["fifo"], level["energy"]
        savings = 1.0 - energy["joules_per_request"] / fifo["joules_per_request"]
        for policy, stats in (("fifo", fifo), ("energy", energy)):
            lines.append(
                f"{label:<8}{policy:<8}"
                f"{stats['joules_per_request'] * 1e3:>9.3f}"
                f"{stats['mean_batch']:>7.1f}"
                f"{stats['slo_attainment']:>7.2f}"
                f"{stats['p95_latency_s'] * 1e3:>9.0f}"
                f"{stats['reconfigurations']:>11}"
                + (f"{savings:>8.0%}" if policy == "energy" else f"{'':>9}")
            )
        rows.append(
            {
                "load": label,
                "interval_s": level["interval_s"],
                "fifo_mj_per_request": round(fifo["joules_per_request"] * 1e3, 4),
                "energy_mj_per_request": round(energy["joules_per_request"] * 1e3, 4),
                "savings_fraction": round(savings, 3),
                "fifo_mean_batch": round(fifo["mean_batch"], 2),
                "energy_mean_batch": round(energy["mean_batch"], 2),
                "fifo_slo_attainment": fifo["slo_attainment"],
                "energy_slo_attainment": energy["slo_attainment"],
            }
        )
    lines.append(f"native ADC kernel: {native_status()}")
    show("Energy policy vs FIFO: J/req at three offered-load levels", "\n".join(lines))

    # The tentpole acceptance bar: strictly lower J/req at equal-or-better
    # SLO attainment, at EVERY load level.
    for label, level in results.items():
        fifo, energy = level["fifo"], level["energy"]
        assert energy["joules_per_request"] < fifo["joules_per_request"], (
            label,
            energy["joules_per_request"],
            fifo["joules_per_request"],
        )
        assert energy["slo_attainment"] >= fifo["slo_attainment"], label

    report = {
        "engine": "vector",
        "native_kernel": native_status(),
        "requests_per_level": N_REQUESTS,
        "tanks": N_TANKS,
        "max_batch": MAX_BATCH,
        "deadline_s": DEADLINE_S,
        "energy_window_s": ENERGY_WINDOW_S,
        "levels": rows,
    }
    write_json("BENCH_ENERGY_JSON", report)
    benchmark.extra_info.update(
        {
            "savings_slow": rows[0]["savings_fraction"],
            "savings_medium": rows[1]["savings_fraction"],
            "savings_fast": rows[2]["savings_fraction"],
        }
    )
