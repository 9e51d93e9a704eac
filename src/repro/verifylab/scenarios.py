"""The one seeded scenario model shared by every verifylab runner.

A :class:`Scenario` is the unit of verification work: one randomized (but
fully seed-determined) fleet workload — tank geometry, a submission-order
tuple of :class:`Entry` (tank, true fill level, priority tier, request
kind), front-end noise, attempt budget and batch size.  The oracle serves
scenarios through both execution paths, the fuzzer sweeps and shrinks
them, the golden runner freezes canonical ones to JSON.

Every workload family uses this model.  Plain, fault and priority
scenarios are plain :class:`Scenario` instances (priority is a field of
each entry); the two families that carry extra state subclass it:
:class:`repro.scenarios.thermal.ThermalScenario` (a thermal network and a
derating policy) and :class:`repro.scenarios.drift.DriftScenario` (drift
rates and calibration settings).  Validation, request building, the JSON
header and the shrink moves are defined here once; subclasses extend
``to_dict``/``shrink_candidates`` through ``super()``.

Scenarios are frozen dataclasses over plain tuples so they compare by
value (``generate_scenario(s) == generate_scenario(s)``), hash, and shrink
via :func:`dataclasses.replace` without aliasing mutable state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Tuple

from repro.app.tank import MeasurementCircuit, TankModel
from repro.serve.batching import STANDARD_PIPELINE
from repro.serve.requests import (
    KIND_CALIBRATE,
    KIND_MEASURE,
    PRIORITY_ALARM,
    PRIORITY_ROUTINE,
    MeasurementRequest,
)


class Entry(NamedTuple):
    """One request of a scenario, in submission order."""

    tank_id: str
    level: float
    priority: int = PRIORITY_ROUTINE
    kind: str = KIND_MEASURE


@dataclass(frozen=True)
class Scenario:
    """One seed-determined fleet workload."""

    seed: int
    #: One entry per request, in submission order.  The request index is
    #: the request id (and, for drift, the simulated timestamp).
    entries: Tuple[Entry, ...]
    max_batch: int = 8
    noise_rms: float = 0.002
    max_attempts: int = 3
    circuit: MeasurementCircuit = MeasurementCircuit()

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("scenario needs at least one request")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.noise_rms < 0:
            raise ValueError(f"noise_rms must be non-negative, got {self.noise_rms}")
        for entry in self.entries:
            if entry.kind not in (KIND_MEASURE, KIND_CALIBRATE):
                raise ValueError(f"unknown entry kind {entry.kind!r}")

    @property
    def n_requests(self) -> int:
        return len(self.entries)

    @property
    def tank_ids(self) -> Tuple[str, ...]:
        """Distinct tanks in first-submission order."""
        return tuple(dict.fromkeys(entry.tank_id for entry in self.entries))

    def alarm_ids(self) -> List[int]:
        return [i for i, e in enumerate(self.entries) if e.priority >= PRIORITY_ALARM]

    def calibrate_ids(self) -> List[int]:
        return [i for i, e in enumerate(self.entries) if e.kind == KIND_CALIBRATE]

    def requests(self) -> List[MeasurementRequest]:
        """Fresh request objects (requests are mutable: attempt counters,
        submit stamps), ids sequential in submission order."""
        return [
            MeasurementRequest(
                request_id=i,
                tank_id=entry.tank_id,
                level=entry.level,
                pipeline=STANDARD_PIPELINE,
                max_attempts=self.max_attempts,
                priority=entry.priority,
                kind=entry.kind,
            )
            for i, entry in enumerate(self.entries)
        ]

    def shrink_candidates(self) -> List["Scenario"]:
        """Strictly-simpler variants for the greedy shrinker, most
        aggressive first: halves, drop one request, one tank, all alarms
        routine, batch size 1, zero noise."""
        entries = self.entries
        n = len(entries)
        candidates = []
        if n > 1:
            subsets = [entries[: n // 2], entries[n // 2 :]]
            subsets += [entries[:i] + entries[i + 1 :] for i in range(n)]
            candidates = [replace(self, entries=kept) for kept in subsets]
        if len(self.tank_ids) > 1:
            candidates.append(retarget_single_tank(self))
        if self.alarm_ids():
            routine = tuple(e._replace(priority=PRIORITY_ROUTINE) for e in entries)
            candidates.append(replace(self, entries=routine))
        if self.max_batch > 1:
            candidates.append(replace(self, max_batch=1))
        if self.noise_rms > 0:
            candidates.append(replace(self, noise_rms=0.0))
        return candidates

    def to_dict(self) -> dict:
        """JSON-ready description (reports, golden-trace headers)."""
        return {
            "seed": self.seed,
            "n_requests": self.n_requests,
            "n_tanks": len(self.tank_ids),
            "max_batch": self.max_batch,
            "noise_rms": self.noise_rms,
            "max_attempts": self.max_attempts,
            "circuit": {
                "c_empty_pf": self.circuit.tank.c_empty_pf,
                "c_full_pf": self.circuit.tank.c_full_pf,
                "r_loss_ohm": self.circuit.tank.r_loss_ohm,
                "r_series_ohm": self.circuit.r_series_ohm,
                "c_ref_pf": self.circuit.c_ref_pf,
            },
            "entries": [entry._asdict() for entry in self.entries],
        }


def retarget_single_tank(scenario: Scenario) -> Scenario:
    """Shrinking move: collapse the fleet onto the first tank (keeps the
    trajectory, removes cross-tank interleaving as a cause)."""
    first = scenario.entries[0].tank_id
    return replace(
        scenario, entries=tuple(e._replace(tank_id=first) for e in scenario.entries)
    )


def random_circuit(rng: random.Random) -> MeasurementCircuit:
    """Randomize the tank geometry: electrode capacitance range, loss and
    divider resistances, reference capacitor (five draws, in that order)."""
    c_empty = rng.uniform(40.0, 90.0)
    return MeasurementCircuit(
        tank=TankModel(
            c_empty_pf=c_empty,
            c_full_pf=c_empty + rng.uniform(200.0, 520.0),
            r_loss_ohm=rng.uniform(8.0e5, 4.0e6),
        ),
        r_series_ohm=rng.uniform(3000.0, 6800.0),
        c_ref_pf=rng.uniform(150.0, 330.0),
    )


def random_walk(
    rng: random.Random, n_tanks: int, n_requests: int, step: float
) -> Tuple[Entry, ...]:
    """Bounded random fill walk per tank, requests interleaved at random:
    each request picks a tank and moves its level by up to ``step``."""
    fill = {t: rng.uniform(0.1, 0.9) for t in range(n_tanks)}
    entries = []
    for _ in range(n_requests):
        tank = rng.randrange(n_tanks)
        fill[tank] = min(0.95, max(0.05, fill[tank] + rng.uniform(-step, step)))
        entries.append(Entry(f"tank-{tank:03d}", fill[tank]))
    return tuple(entries)


def generate_scenario(seed: int, max_requests: int = 12) -> Scenario:
    """Derive a scenario entirely from one seed.

    Randomizes the axes the equivalence claim must hold across: tank
    geometry (electrode capacitance range, loss and divider resistances),
    fleet size and fill trajectories (a bounded random walk per tank),
    front-end noise, request interleaving and batch size (a quarter of
    seeds serve per request, at ``max_batch=1``).

    Raises
    ------
    ValueError
        If ``max_requests`` leaves no room for a single request.
    """
    if max_requests < 1:
        raise ValueError(f"max_requests must be >= 1, got {max_requests}")
    rng = random.Random(seed)
    n_tanks = rng.randint(1, min(4, max_requests))
    n_requests = rng.randint(n_tanks, max_requests)
    circuit = random_circuit(rng)
    entries = random_walk(rng, n_tanks, n_requests, step=0.15)
    max_batch = rng.randint(1, 8)
    if rng.random() >= 0.75:
        max_batch = 1
    return Scenario(
        seed=seed,
        entries=entries,
        max_batch=max_batch,
        noise_rms=rng.choice([0.0, 0.001, 0.002, 0.004]),
        circuit=circuit,
    )


def generate_fault_scenario(seed: int, max_tanks: int = 10) -> Scenario:
    """Seed-determined workload for the *fault* oracle: one request per
    tank, batches of two to eight.

    The mixed faulty/clean oracle replays the counter-RNG fault schedule
    request by request, including the extra front-end sampling a retried
    attempt performs.  With one request per tank every tank's noise
    stream is consumed by exactly one request in attempt order, so the
    reference can reproduce the service's noise draws exactly no matter
    how the executor interleaves retry sweeps across the batch; several
    requests sharing a tank would interleave their draws in an order the
    reference cannot know.  Geometry, noise, batch size and attempt
    budget still randomize across seeds.

    Raises
    ------
    ValueError
        If ``max_tanks`` leaves no room for a single tank.
    """
    if max_tanks < 1:
        raise ValueError(f"max_tanks must be >= 1, got {max_tanks}")
    rng = random.Random(seed)
    n_tanks = rng.randint(min(4, max_tanks), max_tanks)
    circuit = random_circuit(rng)
    entries = tuple(
        Entry(f"tank-{t:03d}", rng.uniform(0.05, 0.95)) for t in range(n_tanks)
    )
    return Scenario(
        seed=seed,
        entries=entries,
        max_batch=rng.randint(2, 8),
        noise_rms=rng.choice([0.0, 0.001, 0.002, 0.004]),
        max_attempts=rng.randint(2, 4),
        circuit=circuit,
    )
