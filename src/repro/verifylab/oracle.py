"""Differential oracle: fleet serving vs the single-system reference path.

The paper's §4.2 claim — re-implementing the measurement software as
time-multiplexed hardware modules preserves results — and PR 1's serving
claim — batched stage-major execution preserves results — are both
*equivalence* claims.  This oracle checks them mechanically: every seeded
scenario is served through the concurrent batched/cached
:class:`repro.serve.FleetService` path and replayed request-by-request on
the single-system reference path (the same per-tank sessions and hardware
module behaviours ``FpgaReconfigSystem`` runs, plus the double-precision
:func:`repro.app.dsp.process_measurement` ground truth), and every
response must agree within the declared per-field tolerances.

The service is driven with one worker and pre-submitted requests, so
per-tank execution order is deterministic and the module path must agree
*exactly* (tolerance 1e-9); the dsp path differs by the modules' declared
fixed-point quantization, hence its looser tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.app.dsp import LevelFilter, process_measurement
from repro.app.modules import standard_modules
from repro.app.system import SystemConfig
from repro.serve.batching import FaultInjector, TankStateStore
from repro.serve.cache import ArtifactCache
from repro.serve.pool import FleetService
from repro.serve.requests import STATUS_FAILED, STATUS_OK, MeasurementResponse
from repro.verifylab.scenarios import (
    Scenario,
    generate_fault_scenario,
    generate_scenario,
)

#: Fields the oracle compares, with the path each is checked against.
ORACLE_FIELDS = ("level", "capacitance_pf", "dsp_level")

#: Bitstream/slot artifacts depend only on (module, device, region) — they
#: are identical across scenarios, so one cache serves every oracle run.
_shared_cache = ArtifactCache(capacity=32)


@dataclass(frozen=True)
class ToleranceSpec:
    """Declared per-field agreement tolerances (absolute).

    ``level_abs`` / ``capacitance_abs_pf`` bound the service path against
    the reference *module* path — the same arithmetic in the same order,
    so effectively exact.  ``dsp_level_abs`` bounds the module path
    against the unquantized numpy reference pipeline; it absorbs the
    modules' fixed-point precision and the one-bit converters'
    signal-dependent gain.
    """

    level_abs: float = 1e-9
    capacitance_abs_pf: float = 1e-9
    dsp_level_abs: float = 0.05

    def __post_init__(self) -> None:
        if min(self.level_abs, self.capacitance_abs_pf, self.dsp_level_abs) < 0:
            raise ValueError(f"tolerances must be non-negative: {self}")

    def for_field(self, name: str) -> float:
        return {
            "level": self.level_abs,
            "capacitance_pf": self.capacitance_abs_pf,
            "dsp_level": self.dsp_level_abs,
        }[name]

    def to_dict(self) -> dict:
        return {name: self.for_field(name) for name in ORACLE_FIELDS}


@dataclass(frozen=True)
class ReferenceResult:
    """One request's answer on the reference path."""

    level: float
    capacitance_pf: float
    #: Unquantized numpy pipeline (ground truth for accuracy, not equality).
    dsp_level: float


@dataclass(frozen=True)
class FaultReferenceResult:
    """One request's predicted outcome under a counter-RNG fault schedule."""

    status: str
    attempts: int
    #: None for a predicted-FAILED request (all attempts struck).
    level: Optional[float]
    capacitance_pf: Optional[float]
    dsp_level: Optional[float]


class ReferenceExecutor:
    """Replays a scenario strictly per-request on one simulated system.

    Uses the same deterministic per-tank sessions the service builds
    (identical seeds, circuit and noise), the same compiled hardware
    module behaviours, and — on the same sampled cycle — the
    double-precision dsp reference with its own per-tank level filter.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.store = TankStateStore(
            circuit=scenario.circuit, seed=scenario.seed, noise_rms=scenario.noise_rms
        )
        self.frame_samples = SystemConfig().frame_samples
        self._modules = None
        self._filters: Dict[str, LevelFilter] = {}

    def run(self) -> Dict[int, ReferenceResult]:
        results: Dict[int, ReferenceResult] = {}
        for request in self.scenario.requests():
            session = self.store.session(request.tank_id)
            if self._modules is None:
                self._modules = standard_modules(
                    self.scenario.circuit, session.frontend.tone_hz
                )
            cycle = session.frontend.sample_cycle(request.level, self.frame_samples)
            phasors = self._modules["amp_phase"].behavior(
                cycle.meas, cycle.ref, cycle.sample_rate_hz, cycle.tone_hz
            )
            c_pf = self._modules["capacity"].behavior(*phasors)
            level, session.filter_state = self._modules["filter"].behavior(
                c_pf, session.filter_state
            )
            dsp = process_measurement(
                cycle.meas,
                cycle.ref,
                cycle.sample_rate_hz,
                cycle.tone_hz,
                self.scenario.circuit,
                self._filters.setdefault(request.tank_id, LevelFilter()),
            )
            results[request.request_id] = ReferenceResult(level, c_pf, dsp.level)
        return results

    def run_with_faults(
        self, injector: FaultInjector
    ) -> Dict[int, FaultReferenceResult]:
        """Replay the scenario under a predicted counter-RNG fault
        schedule, request by request.

        For every attempt the injector *predicts* (never consumes) the
        faulted pipeline stage.  A fault at stage 0 strikes before the
        front end samples, so no noise is drawn; a fault at a later stage
        discards one sampled cycle — exactly what the serving path does
        whichever engine runs it and however sweeps interleave.  Requires
        the scenario to place at most one request on each tank (see
        :func:`repro.verifylab.scenarios.generate_fault_scenario`): only
        then is each tank's noise stream consumed by a single request in
        attempt order, making the replay exact.

        Raises
        ------
        ValueError
            If a tank carries more than one request.
        """
        seen_tanks: Dict[str, int] = {}
        for request in self.scenario.requests():
            if request.tank_id in seen_tanks:
                raise ValueError(
                    f"tank {request.tank_id!r} carries more than one request; "
                    "fault replay needs one request per tank"
                )
            seen_tanks[request.tank_id] = request.request_id
        results: Dict[int, FaultReferenceResult] = {}
        for request in self.scenario.requests():
            session = self.store.session(request.tank_id)
            if self._modules is None:
                self._modules = standard_modules(
                    self.scenario.circuit, session.frontend.tone_hz
                )
            n_stages = len(request.pipeline)
            attempt = 1
            outcome: Optional[FaultReferenceResult] = None
            while outcome is None:
                stage = injector.predict_stage(request.request_id, attempt, n_stages)
                if stage is None:
                    cycle = session.frontend.sample_cycle(
                        request.level, self.frame_samples
                    )
                    phasors = self._modules["amp_phase"].behavior(
                        cycle.meas, cycle.ref, cycle.sample_rate_hz, cycle.tone_hz
                    )
                    c_pf = self._modules["capacity"].behavior(*phasors)
                    level, session.filter_state = self._modules["filter"].behavior(
                        c_pf, session.filter_state
                    )
                    dsp = process_measurement(
                        cycle.meas,
                        cycle.ref,
                        cycle.sample_rate_hz,
                        cycle.tone_hz,
                        self.scenario.circuit,
                        self._filters.setdefault(request.tank_id, LevelFilter()),
                    )
                    outcome = FaultReferenceResult(
                        STATUS_OK, attempt, level, c_pf, dsp.level
                    )
                    break
                if stage > 0:
                    # The front end sampled before the strike; the cycle
                    # is discarded with the attempt.
                    session.frontend.sample_cycle(request.level, self.frame_samples)
                if attempt >= request.max_attempts:
                    outcome = FaultReferenceResult(
                        STATUS_FAILED, attempt, None, None, None
                    )
                    break
                attempt += 1
            results[request.request_id] = outcome
        return results


def serve_scenario(
    scenario: Scenario,
    cache: Optional[ArtifactCache] = None,
    fault_injector: Optional[FaultInjector] = None,
    timeout_s: float = 120.0,
    engine: str = "scalar",
    policy: str = "fifo",
) -> Dict[int, MeasurementResponse]:
    """Serve one scenario through the fleet runtime; responses by id.

    One worker, requests pre-submitted before the pool starts: per-tank
    execution order (and therefore every numeric result) is deterministic.
    ``engine`` selects the scalar or vectorized execution path.
    ``policy`` selects batch formation (``"energy"`` falls back to FIFO
    when unbatched); the oracle's per-tank FIFO guarantee makes any
    policy's results bit-exact against the reference, which is exactly
    what this check enforces.

    Raises
    ------
    RuntimeError
        If the service fails to answer every request within the timeout.
    """
    requests = scenario.requests()
    service = FleetService(
        workers=1,
        max_batch=scenario.max_batch,
        queue_capacity=len(requests) + 16,
        batched=scenario.batched,
        seed=scenario.seed,
        config=SystemConfig(circuit=scenario.circuit),
        cache=cache if cache is not None else _shared_cache,
        noise_rms=scenario.noise_rms,
        fault_injector=fault_injector,
        engine=engine,
        policy=policy if scenario.batched else "fifo",
    )
    accepted, rejected = service.submit_many(requests)
    if rejected:
        raise RuntimeError(f"scenario seed {scenario.seed}: {len(rejected)} rejected")
    service.start()
    if not service.await_responses(accepted, timeout_s=timeout_s):
        service.shutdown(drain=False)
        raise RuntimeError(
            f"scenario seed {scenario.seed}: timed out after {timeout_s} s"
        )
    service.shutdown()
    return {r.request_id: r for r in service.responses()}


@dataclass
class ScenarioCheck:
    """Differential verdict of one scenario."""

    scenario: Scenario
    #: Per-field maximum |service - reference| over all requests.
    deviations: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "seed": self.scenario.seed,
            "n_requests": self.scenario.n_requests,
            "ok": self.ok,
            "max_deviation": dict(self.deviations),
            "violations": list(self.violations),
        }


def check_scenario(
    scenario: Scenario,
    tolerances: Optional[ToleranceSpec] = None,
    cache: Optional[ArtifactCache] = None,
    engine: str = "scalar",
    policy: str = "fifo",
) -> ScenarioCheck:
    """Run one scenario through both paths and diff every response."""
    tolerances = tolerances or ToleranceSpec()
    check = ScenarioCheck(scenario, deviations={name: 0.0 for name in ORACLE_FIELDS})
    reference = ReferenceExecutor(scenario).run()
    responses = serve_scenario(scenario, cache=cache, engine=engine, policy=policy)

    for request in scenario.requests():
        response = responses.get(request.request_id)
        if response is None or not response.ok:
            status = "missing" if response is None else response.status
            check.violations.append(
                f"seed {scenario.seed} request {request.request_id}: "
                f"no ok response (status {status!r})"
            )
            continue
        expected = reference[request.request_id]
        observed = {
            "level": (response.level_measured, expected.level),
            "capacitance_pf": (response.capacitance_pf, expected.capacitance_pf),
            "dsp_level": (response.level_measured, expected.dsp_level),
        }
        for name, (got, want) in observed.items():
            deviation = abs(got - want)
            check.deviations[name] = max(check.deviations[name], deviation)
            tolerance = tolerances.for_field(name)
            if deviation > tolerance:
                check.violations.append(
                    f"seed {scenario.seed} request {request.request_id} "
                    f"field {name}: |{got!r} - {want!r}| = {deviation:.3e} "
                    f"> tolerance {tolerance:.3e}"
                )
    return check


@dataclass
class FaultScenarioCheck:
    """Differential verdict of one mixed faulty/clean scenario."""

    scenario: Scenario
    deviations: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: Requests that succeeded first try / succeeded after >= 1 fault /
    #: exhausted their attempt budget — the mix the oracle must cover.
    clean_ok: int = 0
    faulted_ok: int = 0
    failed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "seed": self.scenario.seed,
            "n_requests": self.scenario.n_requests,
            "ok": self.ok,
            "clean_ok": self.clean_ok,
            "faulted_ok": self.faulted_ok,
            "failed": self.failed,
            "max_deviation": dict(self.deviations),
            "violations": list(self.violations),
        }


def check_fault_scenario(
    scenario: Scenario,
    rate: float = 0.3,
    retry_rate: float = 0.15,
    burst: int = 2,
    tolerances: Optional[ToleranceSpec] = None,
    cache: Optional[ArtifactCache] = None,
    engine: str = "scalar",
) -> FaultScenarioCheck:
    """Serve one scenario under counter-RNG fault injection and diff
    every response — status, attempt count and measurement values — against
    the predicted replay.

    The service and the reference build separate injectors from the same
    parameters; counter-mode draws are pure functions of the seed, so
    prediction and execution cannot desynchronize.  Faulted requests stay
    in their batch (in-batch retry sweeps), which is exactly the path
    this check pins against the scalar reference.
    """
    tolerances = tolerances or ToleranceSpec()
    check = FaultScenarioCheck(
        scenario, deviations={name: 0.0 for name in ORACLE_FIELDS}
    )
    reference = ReferenceExecutor(scenario).run_with_faults(
        FaultInjector(rate, seed=scenario.seed, burst=burst, retry_rate=retry_rate)
    )
    responses = serve_scenario(
        scenario,
        cache=cache,
        fault_injector=FaultInjector(
            rate, seed=scenario.seed, burst=burst, retry_rate=retry_rate
        ),
        engine=engine,
    )

    for request in scenario.requests():
        rid = request.request_id
        expected = reference[rid]
        response = responses.get(rid)
        if response is None:
            check.violations.append(
                f"seed {scenario.seed} request {rid}: no response"
            )
            continue
        if response.status != expected.status:
            check.violations.append(
                f"seed {scenario.seed} request {rid}: status "
                f"{response.status!r} != predicted {expected.status!r}"
            )
            continue
        if response.attempts != expected.attempts:
            check.violations.append(
                f"seed {scenario.seed} request {rid}: attempts "
                f"{response.attempts} != predicted {expected.attempts}"
            )
            continue
        if expected.status == STATUS_FAILED:
            check.failed += 1
            continue
        if expected.attempts > 1:
            check.faulted_ok += 1
        else:
            check.clean_ok += 1
        observed = {
            "level": (response.level_measured, expected.level),
            "capacitance_pf": (response.capacitance_pf, expected.capacitance_pf),
            "dsp_level": (response.level_measured, expected.dsp_level),
        }
        for name, (got, want) in observed.items():
            if got is None:
                check.violations.append(
                    f"seed {scenario.seed} request {rid} field {name}: "
                    f"missing value on an OK response"
                )
                continue
            deviation = abs(got - want)
            check.deviations[name] = max(check.deviations[name], deviation)
            tolerance = tolerances.for_field(name)
            if deviation > tolerance:
                check.violations.append(
                    f"seed {scenario.seed} request {rid} "
                    f"field {name}: |{got!r} - {want!r}| = {deviation:.3e} "
                    f"> tolerance {tolerance:.3e}"
                )
    return check


@dataclass
class FaultOracleReport:
    """Aggregate verdict of a mixed faulty/clean seed sweep."""

    tolerances: ToleranceSpec
    engine: str = "scalar"
    checks: List[FaultScenarioCheck] = field(default_factory=list)
    #: Sweep-level coverage requirement: the run must have exercised both
    #: clean and faulted-but-recovered requests, else it proved nothing.
    require_mixed: bool = True

    @property
    def clean_ok(self) -> int:
        return sum(c.clean_ok for c in self.checks)

    @property
    def faulted_ok(self) -> int:
        return sum(c.faulted_ok for c in self.checks)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.checks)

    @property
    def violations(self) -> List[str]:
        out = [v for c in self.checks for v in c.violations]
        if self.require_mixed and self.checks:
            if self.clean_ok == 0:
                out.append("coverage: no clean request succeeded in the sweep")
            if self.faulted_ok == 0:
                out.append("coverage: no faulted request recovered in the sweep")
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def max_deviation(self) -> Dict[str, float]:
        out = {name: 0.0 for name in ORACLE_FIELDS}
        for check in self.checks:
            for name, value in check.deviations.items():
                out[name] = max(out[name], value)
        return out

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "engine": self.engine,
            "seeds_checked": len(self.checks),
            "requests_checked": sum(c.scenario.n_requests for c in self.checks),
            "clean_ok": self.clean_ok,
            "faulted_ok": self.faulted_ok,
            "failed": self.failed,
            "tolerances": self.tolerances.to_dict(),
            "max_deviation": self.max_deviation(),
            "violations": self.violations,
            "per_seed": [c.to_dict() for c in self.checks],
        }


def run_fault_oracle(
    seeds: Iterable[int],
    rate: float = 0.3,
    retry_rate: float = 0.15,
    burst: int = 2,
    tolerances: Optional[ToleranceSpec] = None,
    cache: Optional[ArtifactCache] = None,
    engine: str = "scalar",
    require_mixed: bool = True,
) -> FaultOracleReport:
    """Mixed faulty/clean differential sweep: one fault scenario per
    seed, served under counter-RNG injection and diffed against the
    predicted replay."""
    tolerances = tolerances or ToleranceSpec()
    report = FaultOracleReport(
        tolerances=tolerances, engine=engine, require_mixed=require_mixed
    )
    for seed in seeds:
        report.checks.append(
            check_fault_scenario(
                generate_fault_scenario(seed),
                rate=rate,
                retry_rate=retry_rate,
                burst=burst,
                tolerances=tolerances,
                cache=cache,
                engine=engine,
            )
        )
    return report


@dataclass
class OracleReport:
    """Aggregate verdict over a seed sweep."""

    tolerances: ToleranceSpec
    checks: List[ScenarioCheck] = field(default_factory=list)

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
            "seeds_checked": len(self.checks),
            "requests_checked": sum(c.scenario.n_requests for c in self.checks),
            "tolerances": self.tolerances.to_dict(),
            "max_deviation": self.max_deviation(),
            "violations": self.violations,
            "per_seed": [c.to_dict() for c in self.checks],
        }


def run_oracle(
    seeds: Iterable[int],
    tolerances: Optional[ToleranceSpec] = None,
    cache: Optional[ArtifactCache] = None,
    engine: str = "scalar",
    policy: str = "fifo",
) -> OracleReport:
    """Differential-check one scenario per seed; aggregate the verdicts."""
    tolerances = tolerances or ToleranceSpec()
    report = OracleReport(tolerances=tolerances)
    for seed in seeds:
        report.checks.append(
            check_scenario(
                generate_scenario(seed),
                tolerances=tolerances,
                cache=cache,
                engine=engine,
                policy=policy,
            )
        )
    return report
