"""Calibration-drift scenario family.

The analog chain of a capacitive level sensor drifts: converter gain
walks with component aging, so the raw capacitance the DSP reports pulls
away from the truth the installation-time calibration table was fitted
against.  The paper's answer is the parametrizable correction stage
(§4.1, the capacity module's ``cal_rom``); the fleet-scale question this
family asks is *operational*: how often must the fleet re-run
:func:`repro.app.calibration.calibrate` — real device traffic competing
with measurements in the broker — to keep the corrected levels honest?

Model
-----
Simulated time is the request index (``request_id``): the schedule itself
carries the clock, so a replay is exact whatever the wall clock does.
Each tank's analog gain drifts linearly, ``gain(tank, t) = 1 + rate *
t``; a measurement at time ``t`` therefore reports ``c_raw * gain(t)``
where ``c_raw`` is what the (undrifted) pipeline computes.  A
recalibration request (kind ``"calibrate"``) rides the normal pipeline —
its device cost *is* the recalibration overhead — and at delivery rebuilds
the tank's :class:`~repro.app.calibration.CalibrationTable` against the
drift at its own timestamp, by literally running ``calibrate`` on a
deterministic front end and mapping each calibration point's raw reading
through the same gain law.

The :class:`DriftCorrector` plugs into ``FleetService(corrector=...)``:
every delivered measurement is distorted by the drift law and corrected
through the tank's *live* table, so the response's ``level_measured`` is
the corrected level — and the residual against truth grows with the time
since the tank's last recalibration.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.app.calibration import CalibrationPoint, CalibrationTable, calibrate
from repro.app.frontend import AnalogFrontEnd
from repro.app.tank import MeasurementCircuit, TankModel
from repro.serve.batching import STANDARD_PIPELINE
from repro.serve.requests import (
    KIND_CALIBRATE,
    KIND_MEASURE,
    STATUS_OK,
    MeasurementRequest,
    MeasurementResponse,
)


@dataclass(frozen=True)
class DriftScenario:
    """One seed-determined calibration-drift workload."""

    seed: int
    #: (tank_id, true fill level, kind) per request, in submission order.
    #: The request index is the simulated timestamp.
    entries: Tuple[Tuple[str, float, str], ...]
    #: Per-tank relative gain drift per time step.
    drift_rates: Tuple[Tuple[str, float], ...]
    max_batch: int = 4
    noise_rms: float = 0.002
    circuit: MeasurementCircuit = MeasurementCircuit()
    #: Calibration procedure parameters (kept small: a recalibration is
    #: ``len(levels) * repeats`` extra measurement cycles).
    calib_levels: Tuple[float, ...] = (0.1, 0.5, 0.9)
    calib_frame_samples: int = 256
    calib_repeats: int = 1

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("drift scenario needs at least one request")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        rates = dict(self.drift_rates)
        for tank_id, _level, kind in self.entries:
            if kind not in (KIND_MEASURE, KIND_CALIBRATE):
                raise ValueError(f"unknown entry kind {kind!r}")
            if tank_id not in rates:
                raise ValueError(f"tank {tank_id!r} has no drift rate")

    @property
    def n_requests(self) -> int:
        return len(self.entries)

    @property
    def tank_ids(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for tank_id, _level, _kind in self.entries:
            seen.setdefault(tank_id)
        return tuple(seen)

    def requests(self) -> List[MeasurementRequest]:
        """Fresh request objects, ids sequential in submission order."""
        return [
            MeasurementRequest(
                request_id=i,
                tank_id=tank_id,
                level=level,
                pipeline=STANDARD_PIPELINE,
                kind=kind,
            )
            for i, (tank_id, level, kind) in enumerate(self.entries)
        ]

    def calibrate_ids(self) -> List[int]:
        return [
            i
            for i, (_t, _l, kind) in enumerate(self.entries)
            if kind == KIND_CALIBRATE
        ]

    def to_dict(self) -> dict:
        return {
            "family": "drift",
            "seed": self.seed,
            "n_requests": self.n_requests,
            "n_tanks": len(self.tank_ids),
            "n_calibrations": len(self.calibrate_ids()),
            "max_batch": self.max_batch,
            "noise_rms": self.noise_rms,
            "drift_rates": {tank: rate for tank, rate in self.drift_rates},
            "circuit": {
                "c_empty_pf": self.circuit.tank.c_empty_pf,
                "c_full_pf": self.circuit.tank.c_full_pf,
                "r_loss_ohm": self.circuit.tank.r_loss_ohm,
                "r_series_ohm": self.circuit.r_series_ohm,
                "c_ref_pf": self.circuit.c_ref_pf,
            },
            "entries": [
                {"tank_id": tank_id, "level": level, "kind": kind}
                for tank_id, level, kind in self.entries
            ],
        }

    def shrink_candidates(self) -> List["DriftScenario"]:
        """Strictly-simpler variants for the greedy shrinker."""
        candidates: List[DriftScenario] = []
        n = self.n_requests
        if n > 1:
            half = n // 2
            candidates.append(dataclasses.replace(self, entries=self.entries[:half]))
            candidates.append(dataclasses.replace(self, entries=self.entries[half:]))
            for i in range(n):
                kept = self.entries[:i] + self.entries[i + 1 :]
                candidates.append(dataclasses.replace(self, entries=kept))
        if len(self.tank_ids) > 1:
            first = self.entries[0][0]
            candidates.append(
                dataclasses.replace(
                    self,
                    entries=tuple((first, lv, kind) for _t, lv, kind in self.entries),
                )
            )
        if any(rate != 0.0 for _t, rate in self.drift_rates):
            candidates.append(
                dataclasses.replace(
                    self, drift_rates=tuple((t, 0.0) for t, _r in self.drift_rates)
                )
            )
        if self.max_batch > 1:
            candidates.append(dataclasses.replace(self, max_batch=1))
        if self.noise_rms > 0:
            candidates.append(dataclasses.replace(self, noise_rms=0.0))
        return candidates


def _calibration_seed(seed: int, tank_id: str, timestamp: int) -> int:
    """Deterministic front-end seed for one recalibration run: distinct
    per (scenario, tank, time) so repeated recalibrations draw fresh —
    but replayable — calibration noise."""
    return (seed << 20) ^ (timestamp << 8) ^ zlib.crc32(tank_id.encode())


class DriftCorrector:
    """Live drift distortion + calibration correction at delivery time.

    Plugs into ``FleetService(corrector=...)``.  State is per-tank (the
    tank's current :class:`CalibrationTable` and last recalibration
    time); the drift law depends only on each response's own
    ``request_id``, so the corrected values are independent of cross-tank
    delivery interleaving — the property the differential oracle relies
    on.  Thread-safe: workers deliver concurrently in a multi-worker
    fleet.
    """

    def __init__(self, scenario: DriftScenario):
        self.scenario = scenario
        self.rates = dict(scenario.drift_rates)
        self._schedule = {
            i: (tank_id, kind)
            for i, (tank_id, _level, kind) in enumerate(scenario.entries)
        }
        self._lock = threading.Lock()
        self.recalibrations = 0
        self.last_recal: Dict[str, int] = {}
        self.tables: Dict[str, CalibrationTable] = {}
        for tank_id in scenario.tank_ids:
            # Installation-time calibration: time 0, no accumulated drift.
            self.tables[tank_id] = self._build_table(tank_id, 0)
            self.last_recal[tank_id] = 0

    def gain(self, tank_id: str, timestamp: int) -> float:
        """The drift law: relative gain of the tank's analog chain."""
        return 1.0 + self.rates[tank_id] * timestamp

    def _build_table(self, tank_id: str, timestamp: int) -> CalibrationTable:
        """Run the real calibration procedure as the field tech would at
        ``timestamp``: the known-truth readings come out of the drifted
        chain, so the fitted table corrects drifted raws back to truth."""
        frontend = AnalogFrontEnd(
            self.scenario.circuit,
            seed=_calibration_seed(self.scenario.seed, tank_id, timestamp),
            noise_rms=self.scenario.noise_rms,
        )
        base = calibrate(
            frontend,
            levels=self.scenario.calib_levels,
            frame_samples=self.scenario.calib_frame_samples,
            repeats=self.scenario.calib_repeats,
        )
        g = self.gain(tank_id, timestamp)
        return CalibrationTable(
            [
                CalibrationPoint(raw_pf=point.raw_pf * g, true_pf=point.true_pf)
                for point in base.points
            ]
        )

    def __call__(self, response: MeasurementResponse) -> MeasurementResponse:
        entry = self._schedule.get(response.request_id)
        if entry is None or response.status != STATUS_OK:
            return response
        tank_id, kind = entry
        timestamp = response.request_id
        if kind == KIND_CALIBRATE:
            # The response itself carries the *device cost* of the
            # recalibration; the table rebuild is its delivery effect.
            table = self._build_table(tank_id, timestamp)
            with self._lock:
                self.tables[tank_id] = table
                self.last_recal[tank_id] = timestamp
                self.recalibrations += 1
            return response
        drifted = response.capacitance_pf * self.gain(tank_id, timestamp)
        with self._lock:
            table = self.tables[tank_id]
        corrected_pf = table.apply(drifted)
        corrected_level = self.scenario.circuit.tank.level_from_capacitance(
            corrected_pf
        )
        return dataclasses.replace(
            response, capacitance_pf=corrected_pf, level_measured=corrected_level
        )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "recalibrations": self.recalibrations,
                "last_recal": dict(self.last_recal),
            }


def generate_drift_scenario(
    seed: int,
    max_requests: int = 36,
    recalibrate: bool = True,
) -> DriftScenario:
    """Derive a drift scenario entirely from one seed: tank geometry,
    per-tank drift rates, fill trajectories, and a recalibration cadence
    interleaving ``calibrate`` requests with the measurement stream.

    ``recalibrate=False`` drops the calibrate entries (same drift, same
    measurement schedule) — the control arm the benchmark compares
    against to price recalibration's accuracy payoff.

    Raises
    ------
    ValueError
        If ``max_requests`` leaves no room for a single request.
    """
    if max_requests < 1:
        raise ValueError(f"max_requests must be >= 1, got {max_requests}")
    rng = random.Random(seed)
    n_tanks = rng.randint(2, 4)
    n_requests = rng.randint(max(n_tanks, (2 * max_requests) // 3), max_requests)
    recal_every = rng.randint(4, 7)

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

    tanks = [f"tank-{t:03d}" for t in range(n_tanks)]
    drift_rates = tuple(
        # Per-step relative gain drift; signed, up to ~0.4%/step so a
        # 30-step horizon accumulates a clearly measurable error.
        (tank, rng.uniform(0.0005, 0.004) * rng.choice([-1.0, 1.0]))
        for tank in tanks
    )
    fill = {tank: rng.uniform(0.15, 0.85) for tank in tanks}
    entries: List[Tuple[str, float, str]] = []
    since_recal = {tank: 0 for tank in tanks}
    for _ in range(n_requests):
        tank = tanks[rng.randrange(n_tanks)]
        if recalibrate and since_recal[tank] >= recal_every:
            entries.append((tank, 0.5, KIND_CALIBRATE))
            since_recal[tank] = 0
            continue
        fill[tank] = min(0.95, max(0.05, fill[tank] + rng.uniform(-0.1, 0.1)))
        entries.append((tank, fill[tank], KIND_MEASURE))
        since_recal[tank] += 1
    if recalibrate and not any(kind == KIND_CALIBRATE for _t, _l, kind in entries):
        # Small fleets can dodge the cadence; the family's coverage gate
        # (>= 1 recalibration served) needs at least one per scenario.
        entries.append((tanks[0], 0.5, KIND_CALIBRATE))

    return DriftScenario(
        seed=seed,
        entries=tuple(entries),
        drift_rates=drift_rates,
        max_batch=rng.randint(2, 6),
        noise_rms=rng.choice([0.0, 0.001, 0.002]),
        circuit=circuit,
    )
