"""Seeded scenario model shared by every verifylab runner.

A :class:`Scenario` is the unit of verification work: one randomized (but
fully seed-determined) fleet workload — tank geometry, per-tank fill
trajectories, front-end noise, request interleaving and batch size.  The
oracle serves scenarios through both execution paths, the fuzzer sweeps
and shrinks them, the golden runner freezes canonical ones to JSON.

Scenarios are frozen dataclasses over plain tuples so they compare by
value (``generate_scenario(s) == generate_scenario(s)``), hash, and shrink
via :func:`dataclasses.replace` without aliasing mutable state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.app.tank import MeasurementCircuit, TankModel
from repro.serve.batching import STANDARD_PIPELINE
from repro.serve.requests import MeasurementRequest


@dataclass(frozen=True)
class Scenario:
    """One seed-determined fleet workload."""

    seed: int
    #: (tank_id, true fill level) per request, in submission order.
    tank_levels: Tuple[Tuple[str, float], ...]
    max_batch: int = 8
    noise_rms: float = 0.002
    max_attempts: int = 3
    circuit: MeasurementCircuit = MeasurementCircuit()

    def __post_init__(self) -> None:
        if not self.tank_levels:
            raise ValueError("scenario needs at least one request")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.noise_rms < 0:
            raise ValueError(f"noise_rms must be non-negative, got {self.noise_rms}")

    @property
    def n_requests(self) -> int:
        return len(self.tank_levels)

    @property
    def tank_ids(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for tank_id, _level in self.tank_levels:
            seen.setdefault(tank_id)
        return tuple(seen)

    def requests(self) -> List[MeasurementRequest]:
        """Fresh request objects (requests are mutable: attempt counters,
        submit stamps), ids sequential in submission order."""
        return [
            MeasurementRequest(
                request_id=i,
                tank_id=tank_id,
                level=level,
                pipeline=STANDARD_PIPELINE,
                max_attempts=self.max_attempts,
            )
            for i, (tank_id, level) in enumerate(self.tank_levels)
        ]

    def shrink_candidates(self) -> List["Scenario"]:
        """Strictly-simpler variants for the greedy shrinker, most
        aggressive first."""
        candidates: List[Scenario] = []
        n = self.n_requests
        if n > 1:
            half = n // 2
            candidates.append(replace(self, tank_levels=self.tank_levels[:half]))
            candidates.append(replace(self, tank_levels=self.tank_levels[half:]))
            for i in range(n):
                kept = self.tank_levels[:i] + self.tank_levels[i + 1 :]
                candidates.append(replace(self, tank_levels=kept))
        if len(self.tank_ids) > 1:
            candidates.append(retarget_single_tank(self))
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
            "tank_levels": [
                {"tank_id": tank_id, "level": level}
                for tank_id, level in self.tank_levels
            ],
        }


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

    c_empty = rng.uniform(40.0, 90.0)
    circuit = MeasurementCircuit(
        tank=TankModel(
            c_empty_pf=c_empty,
            c_full_pf=c_empty + rng.uniform(200.0, 520.0),
            r_loss_ohm=rng.uniform(8.0e5, 4.0e6),
        ),
        r_series_ohm=rng.uniform(3000.0, 6800.0),
        c_ref_pf=rng.uniform(150.0, 330.0),
    )

    fill = {t: rng.uniform(0.1, 0.9) for t in range(n_tanks)}
    tank_levels: List[Tuple[str, float]] = []
    for _ in range(n_requests):
        tank = rng.randrange(n_tanks)
        fill[tank] = min(0.95, max(0.05, fill[tank] + rng.uniform(-0.15, 0.15)))
        tank_levels.append((f"tank-{tank:03d}", fill[tank]))

    max_batch = rng.randint(1, 8)
    if rng.random() >= 0.75:
        max_batch = 1
    return Scenario(
        seed=seed,
        tank_levels=tuple(tank_levels),
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
    c_empty = rng.uniform(40.0, 90.0)
    circuit = MeasurementCircuit(
        tank=TankModel(
            c_empty_pf=c_empty,
            c_full_pf=c_empty + rng.uniform(200.0, 520.0),
            r_loss_ohm=rng.uniform(8.0e5, 4.0e6),
        ),
        r_series_ohm=rng.uniform(3000.0, 6800.0),
        c_ref_pf=rng.uniform(150.0, 330.0),
    )
    tank_levels = tuple(
        (f"tank-{t:03d}", rng.uniform(0.05, 0.95)) for t in range(n_tanks)
    )
    return Scenario(
        seed=seed,
        tank_levels=tank_levels,
        max_batch=rng.randint(2, 8),
        noise_rms=rng.choice([0.0, 0.001, 0.002, 0.004]),
        max_attempts=rng.randint(2, 4),
        circuit=circuit,
    )


def retarget_single_tank(scenario: Scenario) -> Scenario:
    """Shrinking move: collapse the fleet onto the first tank (keeps the
    trajectory, removes cross-tank interleaving as a cause)."""
    first = scenario.tank_levels[0][0]
    return replace(
        scenario,
        tank_levels=tuple((first, level) for _t, level in scenario.tank_levels),
    )
