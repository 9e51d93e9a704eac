"""Per-worker junction-temperature model and thermal derating.

PAPERS.md's cryogenic-FPGA work (Homulle et al.) motivates temperature as
a first-class operating axis: leakage on the Spartan-3 family roughly
doubles per 25 °C (exactly the ``temperature_c`` scaling already inside
:func:`repro.power.model.static_power_w`), and timing/derating headroom
shrinks as the junction heats.  This module closes the loop at fleet
scale:

* :class:`ThermalModel` — a first-order RC junction model per worker,
  advanced by each batch's *simulated* device energy over its simulated
  device time, so the trajectory is deterministic and engine-independent
  (wall-clock never enters).
* :class:`DeratingPolicy` — maps junction temperature to a [min, 1.0]
  derating factor applied to the fleet's batch ceiling and each worker's
  hardware clock.  Derating is value-neutral: it changes *when and how
  fast* measurements run, never what they compute.
* :class:`ThermalGovernor` — the wiring: after every batch it advances
  the owning worker's model, publishes the new junction temperature into
  that worker's ``system.params``, applies the derating policy, and
  reprices the worker's and the energy policy's cost model, so charges
  and predictions both see hot leakage.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class ThermalParams:
    """First-order thermal network of one packaged device."""

    #: Ambient (and power-on junction) temperature.
    ambient_c: float = 25.0
    #: Junction-to-ambient thermal resistance.  Spartan-3 VQ100/TQ144
    #: packages sit around 35–50 °C/W without airflow.
    r_theta_c_per_w: float = 40.0
    #: Thermal time constant of the package+board node, in *simulated*
    #: seconds.  Small relative to real silicon so long-horizon scenario
    #: runs (seconds of simulated device time) actually traverse the
    #: thermal range.
    tau_s: float = 0.5
    #: Over-temperature clamp: the junction never models past this point
    #: (real FPGAs shut down near it, and the exponential leakage law
    #: would otherwise run away — hotter silicon leaks more, more leakage
    #: heats it further — until ``2**((T-25)/25)`` overflows).
    shutdown_c: float = 125.0

    def __post_init__(self) -> None:
        if self.r_theta_c_per_w <= 0 or self.tau_s <= 0:
            raise ValueError(f"invalid thermal params {self}")
        if self.shutdown_c <= self.ambient_c:
            raise ValueError(
                f"shutdown_c must exceed ambient_c, got {self.shutdown_c} "
                f"<= {self.ambient_c}"
            )


class ThermalModel:
    """One worker's junction temperature, advanced batch by batch.

    ``T_j`` relaxes toward ``ambient + P * R_theta`` with time constant
    ``tau``: the exact solution of the first-order RC node over a
    constant-power interval, so step size never changes the trajectory
    (two half-batches land exactly where one whole batch does).
    """

    def __init__(self, params: Optional[ThermalParams] = None):
        self.params = params or ThermalParams()
        self.temperature_c = self.params.ambient_c
        self.device_time_s = 0.0

    def advance(self, power_w: float, dt_s: float) -> float:
        """Apply ``power_w`` dissipation for ``dt_s`` simulated seconds;
        returns the new junction temperature."""
        if dt_s <= 0:
            return self.temperature_c
        target = self.params.ambient_c + max(0.0, power_w) * self.params.r_theta_c_per_w
        target = min(target, self.params.shutdown_c)
        blend = 1.0 - math.exp(-dt_s / self.params.tau_s)
        self.temperature_c += (target - self.temperature_c) * blend
        self.device_time_s += dt_s
        return self.temperature_c


@dataclass(frozen=True)
class DeratingPolicy:
    """Linear derating factor between two junction-temperature knees."""

    #: No derating at or below this junction temperature.
    derate_at_c: float = 60.0
    #: Full derating (the floor fraction) at or above this temperature —
    #: the Spartan-3 commercial-grade junction ceiling.
    max_at_c: float = 85.0
    #: Batch-size and clock floor as a fraction of their cold values.
    min_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not self.derate_at_c < self.max_at_c:
            raise ValueError("derate_at_c must be below max_at_c")
        if not 0.0 < self.min_fraction <= 1.0:
            raise ValueError(f"min_fraction must be in (0, 1], got {self.min_fraction}")

    def scale(self, temperature_c: float) -> float:
        """Derating factor in [min_fraction, 1.0] for a junction temp."""
        if temperature_c <= self.derate_at_c:
            return 1.0
        if temperature_c >= self.max_at_c:
            return self.min_fraction
        span = self.max_at_c - self.derate_at_c
        frac = (temperature_c - self.derate_at_c) / span
        return 1.0 - frac * (1.0 - self.min_fraction)


class ThermalGovernor:
    """Thermal feedback loop over a :class:`~repro.serve.pool.FleetService`.

    Pass one to ``FleetService(thermal=...)``; the service binds it after
    building the workers, and every worker reports each executed batch's
    simulated ``(energy_j, device_time_s)`` here.  The governor then:

    1. advances the worker's :class:`ThermalModel`;
    2. writes the new junction temperature into that worker's
       ``system.params`` (leakage scaling);
    3. derates the shared batch ceiling off the *hottest* worker and the
       worker's own hardware clock off its own temperature;
    4. reprices the worker's cost model, so the *next* batch is charged
       at hot leakage and the derated clock, and the energy policy's
       model (when the service runs one), so batch-formation decisions
       see the same prices.

    Everything is driven by simulated quantities, so a scenario replay is
    bit-reproducible regardless of host speed or engine.
    """

    def __init__(
        self,
        params: Optional[ThermalParams] = None,
        derating: Optional[DeratingPolicy] = None,
    ):
        self.params = params or ThermalParams()
        self.derating = derating or DeratingPolicy()
        self.models: Dict[int, ThermalModel] = {}
        self._lock = threading.Lock()
        self._service = None
        self._base_max_batch: Optional[int] = None
        self._base_clock_mhz: Dict[int, float] = {}
        self.derate_events = 0
        self.restore_events = 0

    # ------------------------------------------------------------- wiring

    def bind(self, service) -> None:
        """Attach to a built service (called by ``FleetService``)."""
        self._service = service
        self._base_max_batch = service.scheduler.max_batch

    def _model(self, worker_id: int) -> ThermalModel:
        model = self.models.get(worker_id)
        if model is None:
            model = ThermalModel(self.params)
            self.models[worker_id] = model
        return model

    # ------------------------------------------------------------ queries

    def temperature_c(self, worker_id: int) -> float:
        with self._lock:
            model = self.models.get(worker_id)
            return model.temperature_c if model else self.params.ambient_c

    def hottest_c(self) -> float:
        with self._lock:
            return self._hottest_locked()

    def _hottest_locked(self) -> float:
        if not self.models:
            return self.params.ambient_c
        return max(m.temperature_c for m in self.models.values())

    # ----------------------------------------------------------- feedback

    def on_batch(self, worker_id: int, energy_j: float, device_time_s: float) -> None:
        """One executed batch's simulated dissipation, reported by its
        worker.  Advances the model and applies the feedback (no-op until
        :meth:`bind`)."""
        if self._service is None or device_time_s <= 0:
            return
        with self._lock:
            model = self._model(worker_id)
            power_w = energy_j / device_time_s
            temp_c = model.advance(power_w, device_time_s)
            self._apply_locked(worker_id, temp_c)

    def _apply_locked(self, worker_id: int, temp_c: float) -> None:
        service = self._service
        worker = next(
            (w for w in service.workers if w.worker_id == worker_id), None
        )
        if worker is not None:
            system = worker.system
            # Leakage follows the junction: the executor reads params live.
            system.params = dataclasses.replace(system.params, temperature_c=temp_c)
            base_clock = self._base_clock_mhz.setdefault(worker_id, system.hw_clock_mhz)
            system.hw_clock_mhz = base_clock * self.derating.scale(temp_c)
            # The worker charges, and the energy policy predicts, through
            # an ``EnergyModel``: reprice both at the new operating point.
            worker.executor.costs.reprice(system)
            policy = getattr(service.scheduler, "policy", None)
            model = getattr(policy, "model", None)
            if model is not None:
                model.reprice(system)
        # The batch ceiling is shared by every worker: size it for the
        # hottest one (the one a too-large batch would push past the knee).
        if self._base_max_batch is not None:
            scale = self.derating.scale(self._hottest_locked())
            derated = max(1, int(round(self._base_max_batch * scale)))
            current = service.scheduler.max_batch
            if derated < current:
                self.derate_events += 1
            elif derated > current:
                self.restore_events += 1
            service.scheduler.max_batch = derated

    # ----------------------------------------------------------- reporting

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "ambient_c": self.params.ambient_c,
                "hottest_c": self._hottest_locked(),
                "workers": {
                    wid: {
                        "temperature_c": m.temperature_c,
                        "device_time_s": m.device_time_s,
                    }
                    for wid, m in sorted(self.models.items())
                },
                "derate_events": self.derate_events,
                "restore_events": self.restore_events,
                "max_batch": (
                    self._service.scheduler.max_batch
                    if self._service is not None
                    else None
                ),
            }
