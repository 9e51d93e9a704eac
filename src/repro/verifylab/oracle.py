"""Differential oracle: one harness over a transport × family matrix.

The paper's §4.2 claim — re-implementing the measurement software as
time-multiplexed hardware modules preserves results — and the serving
layer's claims — batching, sharding, the TCP edge, fault retry, drift
correction, thermal derating and priority reordering preserve results —
are all *equivalence* claims.  This harness checks every one of them the
same way: serve a seeded scenario through the fleet runtime, replay it
request by request on the single-system reference path
(:class:`ReferenceExecutor`: the same per-tank sessions and hardware
module behaviours ``FpgaReconfigSystem`` runs, plus the double-precision
:func:`repro.app.dsp.process_measurement` ground truth), and diff every
response.

Two seams span the matrix:

* a **family** (:data:`FAMILIES`) says what is served — its scenario
  generator, its reference replay, the service hooks it needs (fault
  injector, drift corrector, thermal governor), the fields it compares and
  a coverage gate proving the run exercised the family's axis;
* a **transport** (:data:`TRANSPORTS`) says how it is served — in
  process, over two shard processes, or over three concurrent TCP clients.

Every transport keeps each tank's execution order equal to its submission
order (one worker per fleet, every request submitted up front, requests
partitioned by tank), so ``status``, ``attempts``, ``level`` and
``capacitance_pf`` must match the reference *exactly*; only ``dsp_level``
(the unquantized numpy pipeline) is held to a declared tolerance.  Cells
that cannot hold this contract are listed in :data:`UNSUPPORTED` and
rejected up front rather than silently running a different cell.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.app.dsp import LevelFilter, process_measurement
from repro.app.modules import standard_modules
from repro.app.system import SystemConfig
from repro.net.client import NetClient
from repro.net.server import NetConfig, NetServer
from repro.scenarios.drift import DriftCorrector, generate_drift_scenario
from repro.scenarios.priority import generate_priority_scenario
from repro.scenarios.thermal import generate_thermal_scenario
from repro.serve.batching import FaultInjector, TankStateStore
from repro.serve.cache import ArtifactCache
from repro.serve.pool import DEFAULT_POLICY, POLICIES, FleetService
from repro.serve.requests import STATUS_FAILED, STATUS_OK, MeasurementResponse
from repro.shard.config import ShardConfig
from repro.shard.router import ShardRouter
from repro.verifylab.scenarios import generate_fault_scenario, generate_scenario

#: Value fields compared with ``==`` against the reference replay.
EXACT_FIELDS = ("level", "capacitance_pf")
#: Every value field a family may compare.
ORACLE_FIELDS = EXACT_FIELDS + ("dsp_level",)

#: Shard processes of the ``shard`` transport.
SHARDS = 2
#: Concurrent TCP connections of the ``net`` transport.
NET_CLIENTS = 3
#: The ``faults`` family's counter-RNG schedule: first-attempt strike
#: rate, retry strike rate and SEU burst size.
FAULT_RATE = 0.3
FAULT_RETRY_RATE = 0.15
FAULT_BURST = 2

#: Bitstream/slot artifacts depend only on (module, device, region) — they
#: are identical across scenarios, so one cache serves every oracle run.
_shared_cache = ArtifactCache(capacity=32)


@dataclass(frozen=True)
class ToleranceSpec:
    """Declared agreement tolerance of the one inexact field.

    ``dsp_level_abs`` bounds the module path against the unquantized numpy
    reference pipeline; it absorbs the modules' fixed-point precision and
    the one-bit converters' signal-dependent gain.  The module-path fields
    (:data:`EXACT_FIELDS`) carry no tolerance: they must be equal.
    """

    dsp_level_abs: float = 0.05

    def __post_init__(self) -> None:
        if self.dsp_level_abs < 0:
            raise ValueError(f"tolerances must be non-negative: {self}")

    def to_dict(self) -> dict:
        return {"dsp_level": self.dsp_level_abs}


@dataclass(frozen=True)
class ReferenceResult:
    """One request's answer on the reference path."""

    status: str
    attempts: int
    #: None for a FAILED request (every attempt struck).
    level: Optional[float]
    capacitance_pf: Optional[float]
    #: Unquantized numpy pipeline (ground truth for accuracy, not equality).
    dsp_level: Optional[float]


class ReferenceExecutor:
    """Replays a scenario strictly per-request on one simulated system.

    Uses the same deterministic per-tank sessions the service builds
    (identical seeds, circuit and noise), the same compiled hardware
    module behaviours, and — on the same sampled cycle — the
    double-precision dsp reference with its own per-tank level filter.
    Any family's scenario works: the replay needs only ``requests()``,
    ``seed``, ``circuit`` and ``noise_rms``.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.store = TankStateStore(
            circuit=scenario.circuit, seed=scenario.seed, noise_rms=scenario.noise_rms
        )
        self.frame_samples = SystemConfig().frame_samples
        self._modules = None
        self._filters: Dict[str, LevelFilter] = {}

    def run(
        self, injector: Optional[FaultInjector] = None
    ) -> Dict[int, ReferenceResult]:
        """Replay every request, optionally under a predicted counter-RNG
        fault schedule.

        For every attempt the injector *predicts* (never consumes) the
        faulted pipeline stage; without an injector no attempt faults.  A
        fault at stage 0 strikes before the front end samples, so no noise
        is drawn; a fault at a later stage discards one sampled cycle —
        exactly what the serving path does however sweeps interleave.
        Under an injector the scenario must place at most one request on
        each tank (see
        :func:`repro.verifylab.scenarios.generate_fault_scenario`): only
        then is each tank's noise stream consumed by a single request in
        attempt order, making the replay exact.

        Raises
        ------
        ValueError
            If an injector is given and a tank carries more than one
            request.
        """
        requests = self.scenario.requests()
        if injector is not None:
            seen_tanks = set()
            for request in requests:
                if request.tank_id in seen_tanks:
                    raise ValueError(
                        f"tank {request.tank_id!r} carries more than one request; "
                        "fault replay needs one request per tank"
                    )
                seen_tanks.add(request.tank_id)
        results: Dict[int, ReferenceResult] = {}
        for request in requests:
            session = self.store.session(request.tank_id)
            if self._modules is None:
                self._modules = standard_modules(
                    self.scenario.circuit, session.frontend.tone_hz
                )
            attempt = 1
            while True:
                stage = (
                    None
                    if injector is None
                    else injector.predict_stage(
                        request.request_id, attempt, len(request.pipeline)
                    )
                )
                if stage is None:
                    results[request.request_id] = self._measure(
                        request, session, attempt
                    )
                    break
                if stage > 0:
                    # The front end sampled before the strike; the cycle
                    # is discarded with the attempt.
                    session.frontend.sample_cycle(request.level, self.frame_samples)
                if attempt >= request.max_attempts:
                    results[request.request_id] = ReferenceResult(
                        STATUS_FAILED, attempt, None, None, None
                    )
                    break
                attempt += 1
        return results

    def _measure(self, request, session, attempt: int) -> ReferenceResult:
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
        return ReferenceResult(STATUS_OK, attempt, level, c_pf, dsp.level)


# ----------------------------------------------------------------- transports

#: What a transport hands back: delivered responses in delivery order,
#: plus the serving side's metrics snapshot.
Served = Tuple[List[MeasurementResponse], dict]


def _fleet(scenario, hooks: dict, policy: str) -> FleetService:
    """The oracle's one-worker fleet for ``scenario``."""
    return FleetService(
        workers=1,
        max_batch=scenario.max_batch,
        queue_capacity=scenario.n_requests + 16,
        seed=scenario.seed,
        config=SystemConfig(circuit=scenario.circuit),
        cache=_shared_cache,
        noise_rms=scenario.noise_rms,
        policy=policy,
        **hooks,
    )


def serve_local(
    scenario, hooks: dict, policy: str, timeout_s: float = 180.0
) -> Served:
    """Serve in process: requests pre-submitted before the pool starts.

    Per-tank FIFO makes any policy's results bit-exact against the
    reference.

    Raises
    ------
    RuntimeError
        On rejected submissions or an unanswered request at timeout.
    """
    service = _fleet(scenario, hooks, policy)
    accepted, rejected = service.submit_many(scenario.requests())
    if rejected:
        raise RuntimeError(f"scenario seed {scenario.seed}: {len(rejected)} rejected")
    service.start()
    if not service.await_responses(accepted, timeout_s=timeout_s):
        service.shutdown(drain=False)
        raise RuntimeError(
            f"scenario seed {scenario.seed}: timed out after {timeout_s} s"
        )
    service.shutdown()
    return service.responses(), service.metrics_snapshot()


def serve_shard(
    scenario, hooks: dict, policy: str, timeout_s: float = 180.0
) -> Served:
    """Serve through a :data:`SHARDS`-process :class:`ShardRouter`.

    Every shard builds its fleet from the same base seed and a tank
    session's seed derives from (base seed, tank id), so a tank is served
    identically whichever shard the ring assigns it to; the JSON wire
    round-trips floats shortest-repr, which is bit-exact.  The hooks must
    be empty: a shard's fleet is built from :class:`ShardConfig` alone.

    Raises
    ------
    ValueError
        If ``hooks`` is not empty (a shard cannot run them).
    RuntimeError
        On rejected submissions or a timeout.
    """
    if hooks:
        raise ValueError(f"the shard transport cannot carry hooks {sorted(hooks)}")
    config = ShardConfig(
        shards=SHARDS,
        workers_per_shard=1,
        max_batch=scenario.max_batch,
        queue_capacity=scenario.n_requests + 16,
        policy=policy,
        seed=scenario.seed,
        noise_rms=scenario.noise_rms,
        circuit=scenario.circuit,
    )
    router = ShardRouter(config).start()
    try:
        accepted, rejected = router.submit_many(scenario.requests())
        if rejected:
            raise RuntimeError(
                f"scenario seed {scenario.seed}: {len(rejected)} rejected by router"
            )
        if not router.await_responses(accepted, timeout_s=timeout_s):
            raise RuntimeError(
                f"scenario seed {scenario.seed}: sharded serve timed out "
                f"after {timeout_s} s"
            )
        snapshot = router.metrics_snapshot()
    finally:
        router.shutdown(drain=False, timeout_s=10.0)
    return router.responses(), snapshot


def serve_net(
    scenario, hooks: dict, policy: str, timeout_s: float = 180.0
) -> Served:
    """Serve through the TCP front door over :data:`NET_CLIENTS`
    concurrent connections, partitioned by tank.

    All of one tank's requests ride one connection in scenario order into
    the FIFO broker, so every per-tank sequence reaches the single worker
    in submission order however the clients' streams interleave.
    Responses come back in each client's arrival order, client by client.

    Raises
    ------
    RuntimeError
        On rejected/undelivered submissions or a timeout.
    """
    requests = scenario.requests()
    service = _fleet(scenario, hooks, policy)
    service.start()
    server = NetServer(service, NetConfig(max_inflight=len(requests) + 16)).start()
    tanks = sorted({r.tank_id for r in requests})
    assignment = {tank: i % NET_CLIENTS for i, tank in enumerate(tanks)}
    schedules: List[List] = [[] for _ in range(NET_CLIENTS)]
    for request in requests:
        schedules[assignment[request.tank_id]].append(request)
    delivered: List[MeasurementResponse] = []
    errors: List[str] = []
    lock = threading.Lock()

    def _drive(schedule: List) -> None:
        try:
            with NetClient("127.0.0.1", server.port, timeout_s=timeout_s) as client:
                for request in schedule:
                    client.submit(request)
                client.await_responses(len(schedule), timeout_s=timeout_s)
                with lock:
                    if client.rejections:
                        errors.append(
                            f"seed {scenario.seed}: {len(client.rejections)} rejected"
                        )
                    delivered.extend(client.responses.values())
        except Exception as exc:  # noqa: BLE001 — reported as oracle failure
            with lock:
                errors.append(f"seed {scenario.seed}: client failed: {exc}")

    threads = [
        threading.Thread(target=_drive, args=(schedule,), name=f"net-oracle-{i}")
        for i, schedule in enumerate(schedules)
        if schedule
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout_s + 10.0)
    finally:
        server.stop(drain=False)
        service.shutdown(drain=False)
    if errors:
        raise RuntimeError("; ".join(errors))
    if len(delivered) != len(requests):
        raise RuntimeError(
            f"seed {scenario.seed}: {len(delivered)}/{len(requests)} answered over TCP"
        )
    return delivered, service.metrics_snapshot()


TRANSPORTS: Dict[str, Callable[..., Served]] = {
    "local": serve_local,
    "shard": serve_shard,
    "net": serve_net,
}


# ------------------------------------------------------------------- families


@dataclass
class Check:
    """Differential verdict of one scenario."""

    scenario: Any
    #: Per-field maximum |service - reference| over all requests.
    deviations: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: Family-specific evidence the run exercised its axis (recal count,
    #: peak junction temperature, overtake count, clean/faulted mix).
    coverage: Dict[str, Any] = field(default_factory=dict)
    #: What the family's coverage gate reads: the service hooks, the
    #: delivered responses in delivery order and the metrics snapshot.
    hooks: dict = field(default_factory=dict, repr=False)
    delivered: List[MeasurementResponse] = field(default_factory=list, repr=False)
    snapshot: dict = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "seed": self.scenario.seed,
            "n_requests": self.scenario.n_requests,
            "ok": self.ok,
            "max_deviation": dict(self.deviations),
            "coverage": dict(self.coverage),
            "violations": list(self.violations),
        }


@dataclass(frozen=True)
class Family:
    """One workload family of the matrix."""

    generate: Callable[[int], Any]
    #: Expected outcome per request id.
    reference: Callable[[Any], Dict[int, ReferenceResult]]
    #: Fresh ``FleetService`` keyword hooks for one serve.
    hooks: Callable[[Any], dict]
    #: Value fields compared (``status``/``attempts`` always are).
    fields: Tuple[str, ...]
    #: Records each check's coverage evidence; returns the sweep's
    #: coverage violations.
    coverage: Callable[[Sequence[Check]], List[str]]


def _fault_injector(scenario) -> FaultInjector:
    return FaultInjector(
        FAULT_RATE, seed=scenario.seed, burst=FAULT_BURST, retry_rate=FAULT_RETRY_RATE
    )


def _no_coverage(checks: Sequence[Check]) -> List[str]:
    return []


def _fault_coverage(checks: Sequence[Check]) -> List[str]:
    """The sweep must have exercised both clean and faulted-but-recovered
    requests, else it proved nothing."""
    for check in checks:
        check.coverage = {
            "clean_ok": sum(1 for r in check.delivered if r.ok and r.attempts == 1),
            "faulted_ok": sum(1 for r in check.delivered if r.ok and r.attempts > 1),
            "failed": sum(1 for r in check.delivered if r.status == STATUS_FAILED),
        }
    out = []
    if checks and not any(c.coverage["clean_ok"] for c in checks):
        out.append("coverage: no clean request succeeded in the sweep")
    if checks and not any(c.coverage["faulted_ok"] for c in checks):
        out.append("coverage: no faulted request recovered in the sweep")
    return out


def drift_reference(scenario) -> Dict[int, ReferenceResult]:
    """Expected corrected outcome per request of a drift scenario.

    The raw values come from the single-system replay (the service runs
    calibrate requests through the same pipeline, so the replay lists
    every entry); the correction comes from a second
    :class:`DriftCorrector` walked in request-id order — per-tank state
    plus an id-derived drift law make the walk order-insensitive across
    tanks, exactly like the serving side.  Calibrate responses pass the
    corrector unchanged, carrying the raw (device-cost) measurement.
    """
    raw = ReferenceExecutor(scenario).run()
    corrector = DriftCorrector(scenario)
    expected: Dict[int, ReferenceResult] = {}
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
        expected[rid] = ReferenceResult(
            STATUS_OK,
            reference.attempts,
            shaped.level_measured,
            shaped.capacitance_pf,
            reference.dsp_level,
        )
    return expected


def _drift_coverage(checks: Sequence[Check]) -> List[str]:
    """Every calibrate request must have rebuilt its tank's table."""
    out = []
    for check in checks:
        scenario = check.scenario
        recals = check.hooks["corrector"].snapshot()["recalibrations"]
        expected = len(scenario.calibrate_ids())
        check.coverage = {"recalibrations": recals, "calibrate_requests": expected}
        if not expected:
            out.append(
                f"seed {scenario.seed} coverage: scenario carries no calibrate "
                f"requests — nothing about recalibration was exercised"
            )
        elif recals != expected:
            out.append(
                f"seed {scenario.seed} coverage: {recals} recalibrations served, "
                f"expected {expected}"
            )
    return out


def _thermal_coverage(checks: Sequence[Check]) -> List[str]:
    """The run must actually have gotten hot: past the derate knee, with
    at least one derate event."""
    out = []
    for check in checks:
        scenario = check.scenario
        snap = check.hooks["thermal"].snapshot()
        check.coverage = {
            "hottest_c": snap["hottest_c"],
            "derate_events": snap["derate_events"],
            "final_max_batch": snap["max_batch"],
        }
        if snap["hottest_c"] <= scenario.derating.derate_at_c:
            out.append(
                f"seed {scenario.seed} coverage: junction peaked at "
                f"{snap['hottest_c']:.1f} C, never crossed the "
                f"{scenario.derating.derate_at_c:.0f} C derate knee"
            )
        elif snap["derate_events"] < 1:
            out.append(
                f"seed {scenario.seed} coverage: knee crossed but no derate "
                f"event fired"
            )
    return out


def _priority_coverage(checks: Sequence[Check]) -> List[str]:
    """At least one alarm must have overtaken an earlier routine request,
    and every alarm's latency must land in the per-class histogram."""
    out = []
    for check in checks:
        scenario = check.scenario
        position = {r.request_id: i for i, r in enumerate(check.delivered)}
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
        histograms = check.snapshot["histograms"]
        alarm_count = histograms.get("latency_alarm_s", {}).get("count", 0)
        check.coverage = {
            "alarms": len(alarms),
            "overtakes": overtakes,
            "alarm_latencies_recorded": alarm_count,
        }
        if alarms and overtakes == 0:
            out.append(
                f"seed {scenario.seed} coverage: no alarm overtook an earlier "
                f"routine request — tiering was never exercised"
            )
        if alarm_count != len(alarms):
            out.append(
                f"seed {scenario.seed} coverage: {alarm_count} alarm latencies "
                f"recorded, expected {len(alarms)}"
            )
    return out


def _replay(scenario) -> Dict[int, ReferenceResult]:
    return ReferenceExecutor(scenario).run()


FAMILIES: Dict[str, Family] = {
    "plain": Family(
        generate=generate_scenario,
        reference=_replay,
        hooks=lambda scenario: {},
        fields=ORACLE_FIELDS,
        coverage=_no_coverage,
    ),
    "faults": Family(
        generate=generate_fault_scenario,
        reference=lambda scenario: ReferenceExecutor(scenario).run(
            _fault_injector(scenario)
        ),
        hooks=lambda scenario: {"fault_injector": _fault_injector(scenario)},
        fields=ORACLE_FIELDS,
        coverage=_fault_coverage,
    ),
    # Drift correction legitimately moves the level further than the
    # dsp cross-check's band, so drift compares the exact fields only.
    "drift": Family(
        generate=generate_drift_scenario,
        reference=drift_reference,
        hooks=lambda scenario: {"corrector": DriftCorrector(scenario)},
        fields=EXACT_FIELDS,
        coverage=_drift_coverage,
    ),
    "thermal": Family(
        generate=generate_thermal_scenario,
        reference=_replay,
        hooks=lambda scenario: {"thermal": scenario.governor()},
        fields=ORACLE_FIELDS,
        coverage=_thermal_coverage,
    ),
    "priority": Family(
        generate=generate_priority_scenario,
        reference=_replay,
        hooks=lambda scenario: {},
        fields=ORACLE_FIELDS,
        coverage=_priority_coverage,
    ),
}

_SHARD_HOOK = (
    "the hook is a live object in the oracle process, and ShardConfig "
    "carries only fault_rate"
)

#: Cells that cannot hold the oracle's contract, keyed by (transport,
#: family) or (transport, policy), with the reason.
UNSUPPORTED: Dict[Tuple[str, str], str] = {
    ("shard", "faults"): _SHARD_HOOK,
    ("shard", "drift"): _SHARD_HOOK,
    ("shard", "thermal"): _SHARD_HOOK,
    ("net", "drift"): (
        "the TCP edge swaps in a server-side request id, and DriftCorrector "
        "keys on request_id, so corrected values diverge over TCP"
    ),
    ("net", "faults"): (
        "the TCP edge swaps in a server-side request id, and FaultInjector "
        "keys on request_id, so fault outcomes diverge over TCP"
    ),
    ("net", "priority"): (
        "the worker starts before the clients submit, so alarms rarely "
        "overtake and the coverage gate cannot hold"
    ),
}


def check_cell(family: str, transport: str, policy: str) -> None:
    """Reject an unknown or unsupported (transport, family, policy) cell
    before anything is served.

    Raises
    ------
    ValueError
        Naming the unknown value or the cell's :data:`UNSUPPORTED` reason.
    """
    for name, value, known in (
        ("family", family, FAMILIES),
        ("transport", transport, TRANSPORTS),
        ("policy", policy, POLICIES),
    ):
        if value not in known:
            raise ValueError(f"unknown {name} {value!r}; pick one of {tuple(known)}")
    for axis in (family, policy):
        reason = UNSUPPORTED.get((transport, axis))
        if reason is not None:
            raise ValueError(f"{transport} x {axis} is unsupported: {reason}")


# ----------------------------------------------------------------- comparison


def _field_mismatches(
    response: MeasurementResponse,
    expected: ReferenceResult,
    fields: Sequence[str],
    tolerances: ToleranceSpec,
    deviations: Dict[str, float],
) -> List[str]:
    """Compare one ok response's value fields; record deviations."""
    out = []
    for name in fields:
        got = (
            response.capacitance_pf
            if name == "capacitance_pf"
            else response.level_measured
        )
        want = getattr(expected, name)
        if got is None:
            out.append(f"field {name}: missing value on an ok response")
            continue
        deviation = abs(got - want)
        deviations[name] = max(deviations.get(name, 0.0), deviation)
        if name in EXACT_FIELDS:
            if got != want:
                out.append(f"field {name}: {got!r} != reference {want!r}")
        elif not deviation <= tolerances.dsp_level_abs:
            out.append(
                f"field {name}: |{got!r} - {want!r}| = {deviation:.3e} "
                f"> tolerance {tolerances.dsp_level_abs:.3e}"
            )
    return out


def _compare(
    check: Check,
    responses: Dict[int, MeasurementResponse],
    reference: Dict[int, ReferenceResult],
    fields: Sequence[str],
    tolerances: ToleranceSpec,
) -> None:
    seed = check.scenario.seed
    for rid, expected in reference.items():
        response = responses.get(rid)
        if response is None:
            check.violations.append(f"seed {seed} request {rid}: no response")
            continue
        problems = [
            f"{name} {getattr(response, name)!r} != reference {want!r}"
            for name, want in (
                ("status", expected.status),
                ("attempts", expected.attempts),
            )
            if getattr(response, name) != want
        ]
        if not problems and expected.status == STATUS_OK:
            problems = _field_mismatches(
                response, expected, fields, tolerances, check.deviations
            )
        check.violations.extend(f"seed {seed} request {rid} {p}" for p in problems)


def integrity(
    responses: Iterable[MeasurementResponse], reference: Dict[int, ReferenceResult]
) -> dict:
    """Post-recovery integrity: every ok response's level and capacitance
    must equal the reference replay.  JSON-ready summary."""
    deviations = {name: 0.0 for name in EXACT_FIELDS}
    checked = matching = 0
    mismatches = []
    for response in sorted(responses, key=lambda r: r.request_id):
        if not response.ok:
            continue
        checked += 1
        problems = _field_mismatches(
            response,
            reference[response.request_id],
            EXACT_FIELDS,
            ToleranceSpec(),
            deviations,
        )
        if problems:
            mismatches.append(f"request {response.request_id}: {'; '.join(problems)}")
        else:
            matching += 1
    return {
        "checked": checked,
        "matching": matching,
        "max_level_deviation": deviations["level"],
        "max_capacitance_deviation_pf": deviations["capacitance_pf"],
        "mismatches": mismatches,
    }


# --------------------------------------------------------------------- runner


def check_scenario(
    scenario,
    family: str = "plain",
    transport: str = "local",
    policy: str = DEFAULT_POLICY,
    tolerances: Optional[ToleranceSpec] = None,
) -> Check:
    """Serve one scenario of ``family`` over ``transport`` and diff every
    response against the family's reference (coverage is judged per
    sweep by :func:`run_oracle`)."""
    spec = FAMILIES[family]
    hooks = spec.hooks(scenario)
    reference = spec.reference(scenario)
    delivered, snapshot = TRANSPORTS[transport](scenario, hooks, policy)
    check = Check(
        scenario,
        deviations={name: 0.0 for name in spec.fields},
        hooks=hooks,
        delivered=delivered,
        snapshot=snapshot,
    )
    _compare(
        check,
        {r.request_id: r for r in delivered},
        reference,
        spec.fields,
        tolerances or ToleranceSpec(),
    )
    return check


@dataclass
class Report:
    """Aggregate verdict of one cell's seed sweep."""

    family: str
    transport: str
    policy: str
    tolerances: ToleranceSpec
    checks: List[Check] = field(default_factory=list)
    coverage_violations: List[str] = field(default_factory=list)

    @property
    def violations(self) -> List[str]:
        return [v for c in self.checks for v in c.violations] + list(
            self.coverage_violations
        )

    @property
    def ok(self) -> bool:
        return not self.violations

    def max_deviation(self) -> Dict[str, float]:
        out = {name: 0.0 for name in FAMILIES[self.family].fields}
        for check in self.checks:
            for name, value in check.deviations.items():
                out[name] = max(out[name], value)
        return out

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "family": self.family,
            "transport": self.transport,
            "policy": self.policy,
            "seeds_checked": len(self.checks),
            "requests_checked": sum(c.scenario.n_requests for c in self.checks),
            "tolerances": self.tolerances.to_dict(),
            "max_deviation": self.max_deviation(),
            "violations": self.violations,
            "per_seed": [c.to_dict() for c in self.checks],
        }


def run_oracle(
    seeds: Iterable[int],
    family: str = "plain",
    transport: str = "local",
    policy: str = DEFAULT_POLICY,
    tolerances: Optional[ToleranceSpec] = None,
) -> Report:
    """Differential-check one ``family`` scenario per seed over
    ``transport``; aggregate the verdicts and judge coverage.

    Raises
    ------
    ValueError
        On an unknown or :data:`UNSUPPORTED` cell (see :func:`check_cell`).
    """
    check_cell(family, transport, policy)
    tolerances = tolerances or ToleranceSpec()
    report = Report(family, transport, policy, tolerances)
    generate = FAMILIES[family].generate
    for seed in seeds:
        report.checks.append(
            check_scenario(
                generate(seed),
                family=family,
                transport=transport,
                policy=policy,
                tolerances=tolerances,
            )
        )
    report.coverage_violations = FAMILIES[family].coverage(report.checks)
    return report
