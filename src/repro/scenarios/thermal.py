"""Thermal-derating scenario family.

PAPERS.md's cryogenic-FPGA characterization (Homulle et al.) makes
temperature a first-class operating axis; the power model already scales
leakage with ``temperature_c`` (doubling per 25 °C,
:func:`repro.power.model.static_power_w`).  This family runs a sustained
measurement stream through a fleet wearing a
:class:`repro.serve.thermal.ThermalGovernor`: every batch's simulated
dissipation heats the worker's junction, hot leakage feeds back into the
energy accounting and pricing, and crossing the derate knee shrinks the
batch ceiling and hardware clock.

Derating is *value-neutral* — it changes when and how fast measurements
run, never what they compute — so the differential oracle holds this
family to the same exactness as the plain serving path: every measured
level/capacitance must match the single-system replay bit for bit, while
the coverage gate separately requires that the run actually got hot
(junction past the knee, at least one derate event).  A thermal
trajectory that silently changed a measurement value is exactly the bug
this family exists to catch.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from repro.serve.thermal import DeratingPolicy, ThermalGovernor, ThermalParams
from repro.verifylab.scenarios import Scenario, random_circuit, random_walk


@dataclass(frozen=True)
class ThermalScenario(Scenario):
    """One seed-determined sustained-load thermal workload."""

    #: Thermal network of each worker's device.
    thermal: ThermalParams = ThermalParams(
        ambient_c=50.0, r_theta_c_per_w=200.0, tau_s=0.02
    )
    #: Derating knees.
    derating: DeratingPolicy = DeratingPolicy()

    def governor(self) -> ThermalGovernor:
        """A fresh governor configured for this scenario."""
        return ThermalGovernor(params=self.thermal, derating=self.derating)

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "thermal": asdict(self.thermal),
            "derating": asdict(self.derating),
        }


def generate_thermal_scenario(seed: int, max_requests: int = 32) -> ThermalScenario:
    """Derive a thermal scenario entirely from one seed.

    The thermal network randomizes within ranges chosen so a sustained
    run *always* traverses the derate knee (hot cabinet ambient, a small
    convection-starved package, a time constant a few batches long) —
    the coverage gate depends on it.

    Raises
    ------
    ValueError
        If ``max_requests`` leaves no room for a single request.
    """
    if max_requests < 1:
        raise ValueError(f"max_requests must be >= 1, got {max_requests}")
    rng = random.Random(seed)
    n_tanks = rng.randint(1, 3)
    n_requests = rng.randint(max(n_tanks, (3 * max_requests) // 4), max_requests)
    circuit = random_circuit(rng)
    return ThermalScenario(
        seed=seed,
        entries=random_walk(rng, n_tanks, n_requests, step=0.1),
        max_batch=rng.randint(4, 8),
        noise_rms=rng.choice([0.0, 0.001, 0.002]),
        circuit=circuit,
        thermal=ThermalParams(
            ambient_c=rng.uniform(45.0, 55.0),
            r_theta_c_per_w=rng.uniform(150.0, 300.0),
            tau_s=rng.uniform(0.01, 0.04),
        ),
    )
