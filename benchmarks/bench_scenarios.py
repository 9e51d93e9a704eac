"""Long-horizon scenario families: the costs the short benches never see.

Three tables, one per family:

* **drift** — what periodic recalibration costs: the same measurement
  stream served with and without its calibrate requests, comparing total
  simulated energy, J/request and throughput.  Recalibration must cost
  *something* (each calibrate request runs a full device cycle) but the
  overhead must stay in proportion to the calibrate fraction.
* **thermal** — J/request with a live thermal governor vs the same
  workload cold: the junction heats, leakage doubles per 25 degC, the
  hot fleet must pay measurably more per request.
* **priority** — a flash-crowd overload against a tiered fleet: alarm
  p99 AND alarm shed rate must both be *strictly* better than routine —
  the whole point of the tier.

The absolute numbers are shared-CI noise; what must hold everywhere is
the ordering (hot > cold, with-recal > without, alarm < routine) and the
accounting.  Set ``BENCH_SCENARIOS_JSON=path`` to write the three tables
as JSON (the CI artifact ``BENCH_scenarios.json``).
"""

import dataclasses
import time

from _util import show, write_json

from repro.scenarios import DriftCorrector, generate_drift_scenario
from repro.scenarios.thermal import generate_thermal_scenario
from repro.serve.metrics import Histogram
from repro.serve.pool import FleetService
from repro.serve.requests import (
    KIND_MEASURE,
    PRIORITY_ALARM,
    BrokerFullError,
    MeasurementRequest,
    priority_class,
)
from repro.serve.batching import STANDARD_PIPELINE

DRIFT_SEED = 7
THERMAL_SEED = 7

#: Flash-crowd shape: one worker, a burst far deeper than the deadline
#: window admits, one alarm per eight requests.  The alarm fraction must
#: stay well below the deadline fraction: an alarm waits only behind the
#: alarm backlog (~burst/ALARM_EVERY requests), a routine request behind
#: everything, so the tier's p99 win is structural, not timing luck.
BURST_REQUESTS = 160
ALARM_EVERY = 8
WARMUP_REQUESTS = 12
#: Deadline window as a fraction of the estimated full-burst drain time:
#: deep routine positions cannot make it (shed), alarm positions can.
DEADLINE_FRACTION = 0.3


def _serve_scenario(requests, *, seed, circuit, max_batch, noise_rms,
                    corrector=None, thermal=None):
    service = FleetService(
        workers=1,
        max_batch=max_batch,
        queue_capacity=len(requests) + 16,
        seed=seed,
        noise_rms=noise_rms,
        corrector=corrector,
        thermal=thermal,
    )
    # Scenario circuits ride through SystemConfig in repro.scenarios; the
    # bench compares like against like, so the default circuit is fine.
    accepted, rejected = service.submit_many(requests)
    assert not rejected
    t0 = time.perf_counter()
    service.start()
    assert service.await_responses(accepted, timeout_s=300.0)
    wall_s = time.perf_counter() - t0
    snap = service.metrics_snapshot()
    service.shutdown()
    return snap, wall_s


def run_drift() -> dict:
    scenario = generate_drift_scenario(DRIFT_SEED, max_requests=48)
    control = dataclasses.replace(
        scenario,
        entries=tuple(e for e in scenario.entries if e.kind == KIND_MEASURE),
    )
    rows = {}
    for label, scn, corrector in (
        ("with_recal", scenario, DriftCorrector(scenario)),
        ("no_recal", control, DriftCorrector(control)),
    ):
        snap, wall_s = _serve_scenario(
            scn.requests(),
            seed=scn.seed,
            circuit=scn.circuit,
            max_batch=scn.max_batch,
            noise_rms=scn.noise_rms,
            corrector=corrector,
        )
        rows[label] = {
            "requests": scn.n_requests,
            "calibrations": len(scn.calibrate_ids()),
            "energy_j": snap["gauges"]["energy_j"],
            "joules_per_request": snap["service"]["joules_per_request"],
            "wall_s": round(wall_s, 3),
            "throughput_rps": round(scn.n_requests / wall_s, 1),
        }
    with_r, without = rows["with_recal"], rows["no_recal"]
    overhead = (with_r["energy_j"] - without["energy_j"]) / without["energy_j"]
    rows["energy_overhead_pct"] = round(100 * overhead, 2)
    rows["calibrate_fraction_pct"] = round(
        100 * with_r["calibrations"] / with_r["requests"], 2
    )
    return rows


def run_thermal() -> dict:
    scenario = generate_thermal_scenario(THERMAL_SEED, max_requests=32)
    rows = {}
    governor = scenario.governor()
    for label, thermal in (("governed_hot", governor), ("cold", None)):
        snap, wall_s = _serve_scenario(
            scenario.requests(),
            seed=scenario.seed,
            circuit=scenario.circuit,
            max_batch=scenario.max_batch,
            noise_rms=scenario.noise_rms,
            thermal=thermal,
        )
        rows[label] = {
            "requests": scenario.n_requests,
            "energy_j": snap["gauges"]["energy_j"],
            "joules_per_request": snap["service"]["joules_per_request"],
            "wall_s": round(wall_s, 3),
        }
        if thermal is not None:
            t = thermal.snapshot()
            rows[label].update(
                hottest_c=round(t["hottest_c"], 2),
                derate_events=t["derate_events"],
                final_max_batch=t["max_batch"],
            )
    hot, cold = rows["governed_hot"], rows["cold"]
    rows["hot_vs_cold_jreq_pct"] = round(
        100
        * (hot["joules_per_request"] - cold["joules_per_request"])
        / cold["joules_per_request"],
        2,
    )
    return rows


def _p99(state: dict) -> float:
    histogram = Histogram.from_state(state)
    return histogram.percentile(99.0) if histogram.count else 0.0


def run_priority() -> dict:
    service = FleetService(
        workers=1, max_batch=4, queue_capacity=BURST_REQUESTS + 64, seed=0
    )
    service.start()
    rid = 0
    try:
        # Warm the admission EWMA so shedding is live for the burst.
        warmup = []
        for _ in range(WARMUP_REQUESTS):
            warmup.append(MeasurementRequest(
                request_id=rid, tank_id=f"tank-{rid % 6:03d}", level=0.5,
                pipeline=STANDARD_PIPELINE,
            ))
            rid += 1
        accepted, rejected = service.submit_many(warmup)
        assert not rejected
        assert service.await_responses(accepted, timeout_s=300.0)

        per_request_s = service.admission.per_request_s()
        assert per_request_s > 0.0
        window_s = per_request_s * BURST_REQUESTS * DEADLINE_FRACTION

        submitted = {"alarm": 0, "routine": 0}
        shed = {"alarm": 0, "routine": 0}
        accepted_n = 0
        for i in range(BURST_REQUESTS):
            priority = PRIORITY_ALARM if i % ALARM_EVERY == ALARM_EVERY - 1 else 0
            tier = priority_class(priority)
            # Alarms come from the alarming tank, not the routine poll
            # rotation: per-tank FIFO (the correctness invariant) would
            # otherwise pin each alarm behind the poll of its own tank
            # that was admitted moments earlier.
            tank = "tank-alarm" if priority else f"tank-{rid % 6:03d}"
            request = MeasurementRequest(
                request_id=rid, tank_id=tank, level=0.5,
                pipeline=STANDARD_PIPELINE, priority=priority,
                deadline_s=service.broker.clock() + window_s,
            )
            rid += 1
            submitted[tier] += 1
            try:
                service.submit(request)
                accepted_n += 1
            except BrokerFullError:  # OverloadShedError included
                shed[tier] += 1
        assert service.await_responses(WARMUP_REQUESTS + accepted_n, timeout_s=300.0)
        snap = service.metrics_snapshot()
        states = service.metrics.snapshot(include_reservoirs=True)[
            "histogram_states"
        ]
    finally:
        service.shutdown()

    report = {
        "burst_requests": BURST_REQUESTS,
        "deadline_window_s": round(window_s, 4),
        "per_request_s": round(per_request_s, 5),
    }
    for tier in ("alarm", "routine"):
        count = submitted[tier]
        report[tier] = {
            "submitted": count,
            "shed": shed[tier],
            "shed_rate": round(shed[tier] / count, 4) if count else 0.0,
            "shed_counter": snap["counters"].get(
                f"requests_shed_early_{tier}", 0
            ),
            "p99_s": round(_p99(states.get(f"latency_{tier}_s", {"reservoir": [], "count": 0, "mean": 0.0, "min": None, "max": None})), 5),
        }
    return report


def run_all() -> dict:
    return {
        "drift": run_drift(),
        "thermal": run_thermal(),
        "priority": run_priority(),
    }


def test_scenario_families(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    drift, thermal, priority = (
        results["drift"], results["thermal"], results["priority"],
    )

    lines = [
        "drift:    recal energy overhead "
        f"{drift['energy_overhead_pct']:+.2f}% for "
        f"{drift['calibrate_fraction_pct']:.1f}% calibrate traffic "
        f"({drift['with_recal']['joules_per_request']:.4f} vs "
        f"{drift['no_recal']['joules_per_request']:.4f} J/req)",
        "thermal:  hot J/req "
        f"{thermal['governed_hot']['joules_per_request']:.4f} vs cold "
        f"{thermal['cold']['joules_per_request']:.4f} "
        f"({thermal['hot_vs_cold_jreq_pct']:+.2f}%), junction peaked at "
        f"{thermal['governed_hot']['hottest_c']:.1f} C, "
        f"{thermal['governed_hot']['derate_events']} derate events",
        "priority: alarm p99 "
        f"{priority['alarm']['p99_s'] * 1e3:.1f} ms / shed "
        f"{priority['alarm']['shed_rate']:.1%}  vs  routine p99 "
        f"{priority['routine']['p99_s'] * 1e3:.1f} ms / shed "
        f"{priority['routine']['shed_rate']:.1%}",
    ]
    show("Long-horizon scenarios: drift / thermal / priority", "\n".join(lines))

    # Drift: recalibration costs energy, in proportion (each calibrate
    # request is one extra device cycle, so the overhead cannot exceed a
    # few times the calibrate fraction).
    assert drift["with_recal"]["energy_j"] > drift["no_recal"]["energy_j"]
    assert drift["energy_overhead_pct"] > 0.0
    assert drift["energy_overhead_pct"] < 4.0 * drift["calibrate_fraction_pct"]

    # Thermal: the governed fleet got hot and paid for it.
    assert thermal["governed_hot"]["hottest_c"] > 60.0
    assert thermal["governed_hot"]["derate_events"] >= 1
    assert (
        thermal["governed_hot"]["joules_per_request"]
        > thermal["cold"]["joules_per_request"]
    )

    # Priority under overload: the flash crowd actually overloaded, and
    # the alarm tier is strictly better on BOTH axes (the acceptance
    # criterion of the tier design).
    alarm, routine = priority["alarm"], priority["routine"]
    assert routine["shed"] > 0, priority
    assert alarm["shed_rate"] < routine["shed_rate"], priority
    # Strictly better with real margin: the alarm tail is bounded by the
    # alarm backlog alone, a fraction of what routine requests sit behind.
    assert 0.0 < alarm["p99_s"] < 0.75 * routine["p99_s"], priority
    # Counter cross-check: early sheds were attributed to the right class.
    assert routine["shed_counter"] == routine["shed"]
    assert alarm["shed_counter"] == alarm["shed"]

    benchmark.extra_info.update(
        drift_overhead_pct=drift["energy_overhead_pct"],
        thermal_hot_vs_cold_pct=thermal["hot_vs_cold_jreq_pct"],
        alarm_p99_s=alarm["p99_s"],
        routine_p99_s=routine["p99_s"],
        alarm_shed_rate=alarm["shed_rate"],
        routine_shed_rate=routine["shed_rate"],
    )

    write_json("BENCH_SCENARIOS_JSON", results)
