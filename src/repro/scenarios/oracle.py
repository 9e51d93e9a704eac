"""Differential oracle + shrinking for the long-horizon scenario families.

Each family serves its seeded scenario through the real fleet runtime
(one worker, pre-submitted requests — the determinism contract the
verifylab oracle established) and replays it on the single-system
reference path.  The families add a *coverage* dimension the plain
oracle does not have: a drift run must actually have recalibrated, a
thermal run must actually have crossed the derate knee, a priority run
must actually have overtaken — an exact-but-vacuous run is a violation,
because it proved nothing about the axis the family exists to exercise.

``shrink_scenario`` greedily minimizes a failing scenario using each
family's own ``shrink_candidates()`` (fewer requests, one tank, zero
drift/noise, batch 1), mirroring :mod:`repro.verifylab.fuzz`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.app.system import SystemConfig
from repro.scenarios.drift import DriftCorrector, DriftScenario, generate_drift_scenario
from repro.scenarios.priority import PriorityScenario, generate_priority_scenario
from repro.scenarios.thermal import ThermalScenario, generate_thermal_scenario
from repro.serve.cache import ArtifactCache
from repro.serve.pool import FleetService
from repro.serve.requests import STATUS_OK, MeasurementRequest, MeasurementResponse
from repro.verifylab.oracle import ORACLE_FIELDS, ReferenceExecutor, ToleranceSpec
from repro.verifylab.scenarios import Scenario

#: The families ``verifylab oracle --scenario`` accepts.
SCENARIO_FAMILIES = ("drift", "thermal", "priority")

#: Bitstream/slot artifacts are scenario-independent; share one cache.
_shared_cache = ArtifactCache(capacity=32)


def _serve(
    requests: List[MeasurementRequest],
    *,
    seed: int,
    circuit,
    max_batch: int,
    noise_rms: float,
    engine: str = "scalar",
    cache: Optional[ArtifactCache] = None,
    corrector=None,
    thermal=None,
    timeout_s: float = 180.0,
) -> FleetService:
    """Serve pre-submitted requests on a one-worker fleet; returns the
    (shut-down) service so callers can read responses, metrics, and the
    corrector/governor they wired in.

    Raises
    ------
    RuntimeError
        On rejected submissions or an unanswered request at timeout.
    """
    service = FleetService(
        workers=1,
        max_batch=max_batch,
        queue_capacity=len(requests) + 16,
        batched=True,
        seed=seed,
        config=SystemConfig(circuit=circuit),
        cache=cache if cache is not None else _shared_cache,
        noise_rms=noise_rms,
        engine=engine,
        corrector=corrector,
        thermal=thermal,
    )
    accepted, rejected = service.submit_many(requests)
    if rejected:
        raise RuntimeError(f"scenario seed {seed}: {len(rejected)} rejected")
    service.start()
    if not service.await_responses(accepted, timeout_s=timeout_s):
        service.shutdown(drain=False)
        raise RuntimeError(f"scenario seed {seed}: timed out after {timeout_s} s")
    service.shutdown()
    return service


@dataclass
class ScenarioFamilyCheck:
    """Differential + coverage verdict of one family scenario."""

    family: str
    scenario: object
    deviations: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: Family-specific evidence the run exercised its axis (recal count,
    #: peak junction temperature, overtake count, ...).
    coverage: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "seed": self.scenario.seed,
            "n_requests": self.scenario.n_requests,
            "ok": self.ok,
            "max_deviation": dict(self.deviations),
            "coverage": dict(self.coverage),
            "violations": list(self.violations),
        }


def _diff_values(
    check: ScenarioFamilyCheck,
    seed: int,
    rid: int,
    response: Optional[MeasurementResponse],
    expected: Tuple[float, float, float],
    tolerances: ToleranceSpec,
    fields: Tuple[str, ...] = ORACLE_FIELDS,
) -> None:
    """Compare one response's (level, capacitance, dsp_level) triple."""
    if response is None or not response.ok:
        status = "missing" if response is None else response.status
        check.violations.append(
            f"seed {seed} request {rid}: no ok response (status {status!r})"
        )
        return
    want_level, want_c, want_dsp = expected
    observed = {
        "level": (response.level_measured, want_level),
        "capacitance_pf": (response.capacitance_pf, want_c),
        "dsp_level": (response.level_measured, want_dsp),
    }
    for name in fields:
        got, want = observed[name]
        deviation = abs(got - want)
        check.deviations[name] = max(check.deviations[name], deviation)
        tolerance = tolerances.for_field(name)
        if deviation > tolerance:
            check.violations.append(
                f"seed {seed} request {rid} field {name}: "
                f"|{got!r} - {want!r}| = {deviation:.3e} > tolerance {tolerance:.3e}"
            )


# --------------------------------------------------------------------- drift

#: Drift compares the exact fields only — see check_drift_scenario.
_DRIFT_FIELDS = ("level", "capacitance_pf")


def drift_reference(
    scenario: DriftScenario,
) -> Dict[int, Tuple[float, float, float]]:
    """Expected (corrected level, corrected pF, dsp level) per request.

    The raw values come from the verifylab single-system replay (the
    service runs calibrate requests through the same pipeline, so the
    base scenario lists every entry); the correction comes from a second
    :class:`DriftCorrector` walked in request-id order — per-tank state
    plus an id-derived drift law make the walk order-insensitive across
    tanks, exactly like the serving side.
    """
    base = Scenario(
        seed=scenario.seed,
        tank_levels=tuple((t, lv) for t, lv, _k in scenario.entries),
        max_batch=scenario.max_batch,
        batched=True,
        noise_rms=scenario.noise_rms,
        circuit=scenario.circuit,
    )
    raw = ReferenceExecutor(base).run()
    corrector = DriftCorrector(scenario)
    expected: Dict[int, Tuple[float, float, float]] = {}
    for request in scenario.requests():
        rid = request.request_id
        reference = raw[rid]
        shaped = corrector(
            MeasurementResponse(
                request_id=rid,
                tank_id=request.tank_id,
                status=STATUS_OK,
                level_measured=reference.level,
                capacitance_pf=reference.capacitance_pf,
            )
        )
        expected[rid] = (
            shaped.level_measured,
            shaped.capacitance_pf,
            reference.dsp_level,
        )
    return expected


def check_drift_scenario(
    scenario: DriftScenario,
    tolerances: Optional[ToleranceSpec] = None,
    cache: Optional[ArtifactCache] = None,
    engine: str = "scalar",
) -> ScenarioFamilyCheck:
    """Serve one drift scenario (live corrector, recalibration traffic)
    and diff every corrected response against the reference replay.

    Only ``level`` and ``capacitance_pf`` are compared (exactly): the
    loose DSP cross-check verifylab runs pits the measured level against
    the module path's *raw* estimate, and drift correction legitimately
    moves the level further than that 0.05 band — the raw-vs-DSP check
    stays gated by the other families and the plain oracle.
    """
    tolerances = tolerances or ToleranceSpec()
    check = ScenarioFamilyCheck(
        "drift", scenario, deviations={name: 0.0 for name in _DRIFT_FIELDS}
    )
    expected = drift_reference(scenario)
    corrector = DriftCorrector(scenario)
    service = _serve(
        scenario.requests(),
        seed=scenario.seed,
        circuit=scenario.circuit,
        max_batch=scenario.max_batch,
        noise_rms=scenario.noise_rms,
        engine=engine,
        cache=cache,
        corrector=corrector,
    )
    responses = {r.request_id: r for r in service.responses()}
    measure_ids = set(scenario.measure_ids())
    for request in scenario.requests():
        rid = request.request_id
        if rid not in measure_ids:
            # Calibrate responses carry the raw (device-cost) measurement;
            # their delivery effect — the table rebuild — is what the
            # corrected measure responses downstream verify.
            continue
        _diff_values(
            check,
            scenario.seed,
            rid,
            responses.get(rid),
            expected[rid],
            tolerances,
            fields=_DRIFT_FIELDS,
        )
    recals = corrector.snapshot()["recalibrations"]
    check.coverage = {
        "recalibrations": recals,
        "calibrate_requests": len(scenario.calibrate_ids()),
    }
    if scenario.calibrate_ids() and recals != len(scenario.calibrate_ids()):
        check.violations.append(
            f"seed {scenario.seed} coverage: {recals} recalibrations served, "
            f"expected {len(scenario.calibrate_ids())}"
        )
    if not scenario.calibrate_ids():
        check.violations.append(
            f"seed {scenario.seed} coverage: scenario carries no calibrate "
            f"requests — nothing about recalibration was exercised"
        )
    return check


# -------------------------------------------------------------------- thermal


def check_thermal_scenario(
    scenario: ThermalScenario,
    tolerances: Optional[ToleranceSpec] = None,
    cache: Optional[ArtifactCache] = None,
    engine: str = "scalar",
) -> ScenarioFamilyCheck:
    """Serve one thermal scenario under a live governor; measurement
    values must match the reference bit for bit (derating is value-
    neutral), and the run must actually have gotten hot."""
    tolerances = tolerances or ToleranceSpec()
    check = ScenarioFamilyCheck(
        "thermal", scenario, deviations={name: 0.0 for name in ORACLE_FIELDS}
    )
    base = Scenario(
        seed=scenario.seed,
        tank_levels=scenario.tank_levels,
        max_batch=scenario.max_batch,
        batched=True,
        noise_rms=scenario.noise_rms,
        circuit=scenario.circuit,
    )
    reference = ReferenceExecutor(base).run()
    governor = scenario.governor()
    service = _serve(
        scenario.requests(),
        seed=scenario.seed,
        circuit=scenario.circuit,
        max_batch=scenario.max_batch,
        noise_rms=scenario.noise_rms,
        engine=engine,
        cache=cache,
        thermal=governor,
    )
    responses = {r.request_id: r for r in service.responses()}
    for request in scenario.requests():
        rid = request.request_id
        want = reference[rid]
        _diff_values(
            check,
            scenario.seed,
            rid,
            responses.get(rid),
            (want.level, want.capacitance_pf, want.dsp_level),
            tolerances,
        )
    snap = governor.snapshot()
    check.coverage = {
        "hottest_c": snap["hottest_c"],
        "derate_events": snap["derate_events"],
        "final_max_batch": snap["max_batch"],
    }
    if snap["hottest_c"] <= scenario.derate_at_c:
        check.violations.append(
            f"seed {scenario.seed} coverage: junction peaked at "
            f"{snap['hottest_c']:.1f} C, never crossed the "
            f"{scenario.derate_at_c:.0f} C derate knee"
        )
    elif snap["derate_events"] < 1:
        check.violations.append(
            f"seed {scenario.seed} coverage: knee crossed but no derate "
            f"event fired"
        )
    return check


# ------------------------------------------------------------------- priority


def check_priority_scenario(
    scenario: PriorityScenario,
    tolerances: Optional[ToleranceSpec] = None,
    cache: Optional[ArtifactCache] = None,
    engine: str = "scalar",
) -> ScenarioFamilyCheck:
    """Serve one mixed-tier scenario; values must match the reference bit
    for bit (per-tank order is preserved under tier reordering), and at
    least one alarm must have overtaken an earlier routine request."""
    tolerances = tolerances or ToleranceSpec()
    check = ScenarioFamilyCheck(
        "priority", scenario, deviations={name: 0.0 for name in ORACLE_FIELDS}
    )
    base = Scenario(
        seed=scenario.seed,
        tank_levels=tuple((t, lv) for t, lv, _pr in scenario.entries),
        max_batch=scenario.max_batch,
        batched=True,
        noise_rms=scenario.noise_rms,
        circuit=scenario.circuit,
    )
    reference = ReferenceExecutor(base).run()
    service = _serve(
        scenario.requests(),
        seed=scenario.seed,
        circuit=scenario.circuit,
        max_batch=scenario.max_batch,
        noise_rms=scenario.noise_rms,
        engine=engine,
        cache=cache,
    )
    delivered = service.responses()
    responses = {r.request_id: r for r in delivered}
    for request in scenario.requests():
        rid = request.request_id
        want = reference[rid]
        _diff_values(
            check,
            scenario.seed,
            rid,
            responses.get(rid),
            (want.level, want.capacitance_pf, want.dsp_level),
            tolerances,
        )
    position = {r.request_id: i for i, r in enumerate(delivered)}
    alarms = set(scenario.alarm_ids())
    overtakes = 0
    for alarm_rid in alarms:
        if alarm_rid not in position:
            continue
        overtakes += sum(
            1
            for rid, pos in position.items()
            if rid < alarm_rid and rid not in alarms and pos > position[alarm_rid]
        )
    histograms = service.metrics.snapshot()["histograms"]
    alarm_count = histograms.get("latency_alarm_s", {}).get("count", 0)
    check.coverage = {
        "alarms": len(alarms),
        "overtakes": overtakes,
        "alarm_latencies_recorded": alarm_count,
    }
    if alarms and overtakes == 0:
        check.violations.append(
            f"seed {scenario.seed} coverage: no alarm overtook an earlier "
            f"routine request — tiering was never exercised"
        )
    if alarm_count != len(alarms):
        check.violations.append(
            f"seed {scenario.seed} coverage: {alarm_count} alarm latencies "
            f"recorded, expected {len(alarms)}"
        )
    return check


# ------------------------------------------------------------------ reporting


_CHECKERS: Dict[str, Tuple[Callable[[int], object], Callable[..., ScenarioFamilyCheck]]] = {
    "drift": (generate_drift_scenario, check_drift_scenario),
    "thermal": (generate_thermal_scenario, check_thermal_scenario),
    "priority": (generate_priority_scenario, check_priority_scenario),
}


@dataclass
class ScenarioOracleReport:
    """Aggregate verdict of one family's seed sweep."""

    family: str
    tolerances: ToleranceSpec
    engine: str = "scalar"
    checks: List[ScenarioFamilyCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def violations(self) -> List[str]:
        return [v for c in self.checks for v in c.violations]

    def max_deviation(self) -> Dict[str, float]:
        out = {name: 0.0 for name in ORACLE_FIELDS}
        for check in self.checks:
            for name, value in check.deviations.items():
                out[name] = max(out[name], value)
        return out

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "family": self.family,
            "engine": self.engine,
            "seeds_checked": len(self.checks),
            "requests_checked": sum(c.scenario.n_requests for c in self.checks),
            "tolerances": self.tolerances.to_dict(),
            "max_deviation": self.max_deviation(),
            "violations": self.violations,
            "per_seed": [c.to_dict() for c in self.checks],
        }


def run_scenario_oracle(
    family: str,
    seeds: Iterable[int],
    tolerances: Optional[ToleranceSpec] = None,
    cache: Optional[ArtifactCache] = None,
    engine: str = "scalar",
) -> ScenarioOracleReport:
    """Differential-check one family scenario per seed.

    Raises
    ------
    ValueError
        On an unknown family name.
    """
    if family not in _CHECKERS:
        raise ValueError(
            f"unknown scenario family {family!r}; pick one of {SCENARIO_FAMILIES}"
        )
    tolerances = tolerances or ToleranceSpec()
    generate, check = _CHECKERS[family]
    report = ScenarioOracleReport(family=family, tolerances=tolerances, engine=engine)
    for seed in seeds:
        report.checks.append(
            check(generate(seed), tolerances=tolerances, cache=cache, engine=engine)
        )
    return report


def shrink_scenario(scenario, fails: Callable[[object], bool], max_steps: int = 200):
    """Greedy shrink over the scenario's own ``shrink_candidates()``:
    adopt the first simpler variant that still fails until none does or
    the step budget is spent.  An exception raised by ``fails`` on a
    candidate propagates: a crash while shrinking is a finding, not a
    pass.

    Raises
    ------
    ValueError
        If the starting scenario does not fail (nothing to shrink).
    """
    if not fails(scenario):
        raise ValueError("shrink_scenario() needs a failing scenario to start from")
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
