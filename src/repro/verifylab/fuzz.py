"""Deterministic scenario fuzzer with shrinking.

Sweeps seed-generated scenarios through the differential oracle; when a
seed fails, greedily shrinks the concrete scenario — fewer requests, one
tank, batch size 1, zero noise — to the smallest variant that still
violates a tolerance, so the bug report is a minimal reproducer instead
of a 12-request fleet trace.  Everything is a pure function of the seed
sweep: re-running the same range reproduces the same failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional

from repro.verifylab.oracle import ToleranceSpec, check_scenario
from repro.verifylab.scenarios import Scenario, generate_scenario


def shrink(scenario, fails: Callable[[object], bool], max_steps: int = 200):
    """Greedy shrink over the scenario's own ``shrink_candidates()`` —
    any oracle family's scenario: repeatedly adopt the first simpler
    variant that still fails, until none does (a local minimum) or the
    step budget is spent.  ``fails(scenario)`` must be True on entry.  An
    exception raised by ``fails`` on a candidate propagates: a crash while
    shrinking is a finding, not a pass.

    Raises
    ------
    ValueError
        If the starting scenario does not fail (nothing to shrink).
    """
    if not fails(scenario):
        raise ValueError("shrink() needs a failing scenario to start from")
    steps = 0
    current = scenario
    progress = True
    while progress and steps < max_steps:
        progress = False
        for candidate in current.shrink_candidates():
            steps += 1
            if fails(candidate):
                current = candidate
                progress = True
                break
            if steps >= max_steps:
                break
    return current


@dataclass
class FuzzFailure:
    """One failing seed, with its minimal reproducer."""

    seed: int
    violations: List[str]
    shrunk: Scenario
    shrunk_violations: List[str]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "violations": self.violations,
            "shrunk_scenario": self.shrunk.to_dict(),
            "shrunk_violations": self.shrunk_violations,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzz sweep."""

    seeds_run: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seeds_run": self.seeds_run,
            "failures": [f.to_dict() for f in self.failures],
        }


def run_fuzz(
    seeds: Iterable[int],
    tolerances: Optional[ToleranceSpec] = None,
    max_requests: int = 12,
) -> FuzzReport:
    """Fuzz a seed range through the oracle, shrinking every failure.

    Every scenario is served through the fleet's batch kernels and
    diffed against the per-request reference replay; shrinking re-serves
    each candidate the same way, so a reproducer stays a reproducer."""
    tolerances = tolerances or ToleranceSpec()

    def violations_of(scenario: Scenario) -> List[str]:
        return check_scenario(scenario, tolerances=tolerances).violations

    report = FuzzReport()
    for seed in seeds:
        report.seeds_run += 1
        scenario = generate_scenario(seed, max_requests=max_requests)
        violations = violations_of(scenario)
        if not violations:
            continue
        minimal = shrink(scenario, lambda s: bool(violations_of(s)))
        report.failures.append(
            FuzzFailure(
                seed=seed,
                violations=violations,
                shrunk=minimal,
                shrunk_violations=violations_of(minimal),
            )
        )
    return report
