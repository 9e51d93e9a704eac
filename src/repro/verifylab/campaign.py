"""Fault-injection campaign: SEU sweeps over the serving runtime.

Zhang et al. treat correctness under interruption as a first-class
campaign, and Nafkha & Louet locate the overhead (and the fault surface)
at reconfiguration — so this runner hammers exactly that path: while the
fleet serves, SEU bursts of swept size strike the slot's configuration
frames (:mod:`repro.fabric.faults` via the executor's readback/scrub
machinery), and the campaign records what the protection actually bought:
recovery rate, retries consumed, scrubs performed, and — the part a
recovery counter cannot show — whether every recovered result still
matches the differential oracle's reference answer.

Campaign workloads give each request its own tank and run the front end
noise-free, so every reference answer is a pure function of (tank seed,
level): retries may reorder and resample without changing the expected
result, which is what makes exact post-recovery integrity checkable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.serve.batching import FaultInjector
from repro.verifylab.oracle import ReferenceExecutor, integrity, serve_local
from repro.verifylab.scenarios import Scenario

#: The swept fault-intensity axis: first-attempt strike probability, SEU
#: burst size per strike, and the probability a retry is struck again.
@dataclass(frozen=True)
class FaultIntensity:
    name: str
    rate: float
    burst: int
    retry_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0 or not 0.0 <= self.retry_rate <= 1.0:
            raise ValueError(f"rates must be in [0, 1]: {self}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rate": self.rate,
            "burst": self.burst,
            "retry_rate": self.retry_rate,
        }


#: Low / medium / high, ordered least to most hostile.
DEFAULT_INTENSITIES: Tuple[FaultIntensity, ...] = (
    FaultIntensity("low", rate=0.25, burst=1, retry_rate=0.05),
    FaultIntensity("medium", rate=0.60, burst=4, retry_rate=0.25),
    FaultIntensity("high", rate=1.00, burst=16, retry_rate=0.60),
)


def campaign_scenario(
    n_requests: int, seed: int, max_attempts: int = 3, max_batch: int = 8
) -> Scenario:
    """A campaign workload: one tank per request, noise-free front end."""
    if n_requests < 1:
        raise ValueError(f"need at least one request, got {n_requests}")
    rng = random.Random(seed)
    tank_levels = tuple(
        (f"tank-{i:03d}", rng.uniform(0.05, 0.95)) for i in range(n_requests)
    )
    return Scenario(
        seed=seed,
        tank_levels=tank_levels,
        max_batch=max_batch,
        noise_rms=0.0,
        max_attempts=max_attempts,
    )


def _run_intensity(intensity: FaultIntensity, scenario: Scenario, reference) -> dict:
    injector = FaultInjector(
        rate=intensity.rate,
        seed=scenario.seed,
        burst=intensity.burst,
        retry_rate=intensity.retry_rate,
    )
    delivered, _snapshot = serve_local(scenario, {"fault_injector": injector}, "fifo")
    faulted = sum(1 for r in delivered if r.attempts > 1 or r.status == "failed")
    failed = sum(1 for r in delivered if r.status == "failed")
    recovered = faulted - failed
    return {
        "intensity": intensity.to_dict(),
        "requests": scenario.n_requests,
        "faulted": faulted,
        "recovered": recovered,
        "failed": failed,
        "recovery_rate": (recovered / faulted) if faulted else 1.0,
        "retries_consumed": sum(max(0, r.attempts - 1) for r in delivered),
        "faults_injected": injector.fired,
        "seu_bits_flipped": injector.fired * intensity.burst,
        # Every served answer — recovered or untouched — must still equal
        # the reference replay.
        "integrity": integrity(delivered, reference),
    }


def run_campaign(
    intensities: Sequence[FaultIntensity] = DEFAULT_INTENSITIES,
    requests: int = 40,
    seed: int = 0,
    max_attempts: int = 3,
) -> dict:
    """Sweep the fault intensities over one campaign workload.

    Returns a JSON-ready report; ``report["ok"]`` requires every served
    answer at every intensity to match the oracle reference (recovery
    *rate* is reported but judged by the caller's floor — see the CLI and
    ``benchmarks/bench_verifylab_campaign.py``).
    """
    if not intensities:
        raise ValueError("campaign needs at least one intensity")
    scenario = campaign_scenario(requests, seed, max_attempts=max_attempts)
    reference = ReferenceExecutor(scenario).run()
    results = [
        _run_intensity(intensity, scenario, reference) for intensity in intensities
    ]
    return {
        "workload": scenario.to_dict(),
        "intensities": results,
        "ok": all(
            r["integrity"]["matching"] == r["integrity"]["checked"] for r in results
        ),
    }


def write_report(report: dict, path: str) -> None:
    """Persist a campaign report (the CI workflow uploads this file)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
