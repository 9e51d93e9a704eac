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
from repro.serve.requests import KIND_CALIBRATE, STATUS_OK, MeasurementResponse
from repro.verifylab.scenarios import Entry, Scenario, random_circuit


@dataclass(frozen=True)
class DriftScenario(Scenario):
    """One seed-determined calibration-drift workload."""

    #: Per-tank relative gain drift per time step.
    drift_rates: Tuple[Tuple[str, float], ...] = ()
    #: Calibration procedure parameters (kept small: a recalibration is
    #: ``len(levels) * repeats`` extra measurement cycles).
    calib_levels: Tuple[float, ...] = (0.1, 0.5, 0.9)
    calib_frame_samples: int = 256
    calib_repeats: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        rates = dict(self.drift_rates)
        for tank_id in self.tank_ids:
            if tank_id not in rates:
                raise ValueError(f"tank {tank_id!r} has no drift rate")

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "drift_rates": dict(self.drift_rates),
            "calibration": {
                "levels": list(self.calib_levels),
                "frame_samples": self.calib_frame_samples,
                "repeats": self.calib_repeats,
            },
        }

    def shrink_candidates(self) -> List[Scenario]:
        """The shared moves, then: stop every tank drifting."""
        candidates = super().shrink_candidates()
        if any(rate != 0.0 for _t, rate in self.drift_rates):
            still = tuple((tank, 0.0) for tank, _r in self.drift_rates)
            candidates.append(dataclasses.replace(self, drift_rates=still))
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
            i: (entry.tank_id, entry.kind) for i, entry in enumerate(scenario.entries)
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


def generate_drift_scenario(seed: int, max_requests: int = 36) -> DriftScenario:
    """Derive a drift scenario entirely from one seed: tank geometry,
    per-tank drift rates, fill trajectories, and a recalibration cadence
    interleaving ``calibrate`` requests with the measurement stream.

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
    circuit = random_circuit(rng)

    tanks = [f"tank-{t:03d}" for t in range(n_tanks)]
    drift_rates = tuple(
        # Per-step relative gain drift; signed, up to ~0.4%/step so a
        # 30-step horizon accumulates a clearly measurable error.
        (tank, rng.uniform(0.0005, 0.004) * rng.choice([-1.0, 1.0]))
        for tank in tanks
    )
    fill = {tank: rng.uniform(0.15, 0.85) for tank in tanks}
    entries = []
    since_recal = {tank: 0 for tank in tanks}
    for _ in range(n_requests):
        tank = tanks[rng.randrange(n_tanks)]
        if since_recal[tank] >= recal_every:
            entries.append(Entry(tank, 0.5, kind=KIND_CALIBRATE))
            since_recal[tank] = 0
            continue
        fill[tank] = min(0.95, max(0.05, fill[tank] + rng.uniform(-0.1, 0.1)))
        entries.append(Entry(tank, fill[tank]))
        since_recal[tank] += 1
    if not any(entry.kind == KIND_CALIBRATE for entry in entries):
        # Small fleets can dodge the cadence; the family's coverage gate
        # (>= 1 recalibration served) needs at least one per scenario.
        entries.append(Entry(tanks[0], 0.5, kind=KIND_CALIBRATE))

    return DriftScenario(
        seed=seed,
        entries=tuple(entries),
        drift_rates=drift_rates,
        max_batch=rng.randint(2, 6),
        noise_rms=rng.choice([0.0, 0.001, 0.002]),
        circuit=circuit,
    )
