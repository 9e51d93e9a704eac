"""Long-horizon fleet scenario families.

The app layer carries the paper's §4.1 parametrizable calibration stage
(:mod:`repro.app.calibration`), its failure-detection future work
(:mod:`repro.app.failsafe`) and a power model with a temperature axis
(:mod:`repro.power.model`) — but short oracle workloads never stress
them.  This package adds the *long-horizon* axes as first-class, seeded
scenario families, each threaded through the full serving stack and each
with the verifylab treatment (differential oracle family, shrinking,
golden trace, CI bench):

* :mod:`repro.scenarios.drift` — per-tank calibration drift over
  simulated time with periodic recalibration requests (request kind
  ``"calibrate"``) competing with measurements in the broker/batcher;
  responses carry drift-corrected levels.
* :mod:`repro.scenarios.thermal` — per-worker junction-temperature
  trajectories (:mod:`repro.serve.thermal`) feeding leakage-aware energy
  accounting and batch/clock derating.
* :mod:`repro.scenarios.priority` — priority tiers on the request path
  (alarm readings overtake routine polls, never shed first) with
  per-class latency histograms.

Every family builds on the one scenario model,
:class:`repro.verifylab.scenarios.Scenario`, re-exported here with its
:class:`~repro.verifylab.scenarios.Entry`.  A priority scenario is a plain
``Scenario`` (each entry carries its tier); :class:`DriftScenario` and
:class:`ThermalScenario` are thin subclasses that add the drift rates
and calibration settings, or the thermal network and derating policy.

``repro verifylab oracle --family drift|thermal|priority`` gates all
three differentially (:data:`repro.verifylab.oracle.FAMILIES` holds
their references and coverage gates).
"""

# The model is imported first: loading repro.verifylab imports its oracle,
# which imports the family modules below, and those subclass the model.
from repro.verifylab.scenarios import Entry, Scenario

from repro.scenarios.drift import (
    DriftCorrector,
    DriftScenario,
    generate_drift_scenario,
)
from repro.scenarios.priority import generate_priority_scenario
from repro.scenarios.thermal import ThermalScenario, generate_thermal_scenario

__all__ = [
    "DriftCorrector",
    "DriftScenario",
    "Entry",
    "Scenario",
    "ThermalScenario",
    "generate_drift_scenario",
    "generate_priority_scenario",
    "generate_thermal_scenario",
]
