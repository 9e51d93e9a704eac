"""Measurement-as-a-service runtime (the fleet-serving subsystem).

The paper builds *one* capacity-based level-measurement device: one tank,
one Spartan-3, one reconfigurable slot.  This package scales that design
point out: many simulated tanks are multiplexed onto a pool of simulated
:class:`repro.app.system.FpgaReconfigSystem` instances behind a bounded
request broker.  The two levers that make that economical are exactly the
ones the reconfiguration literature points at:

* **Batching** (:mod:`repro.serve.batching`) — slot reconfiguration
  overhead dominates per-request serving (Nafkha & Louet), so the
  scheduler groups requests that need the same module pipeline and walks
  the pipeline *stage-major*: the slot is reconfigured once per batch and
  stage instead of once per request and stage.
* **Caching** (:mod:`repro.serve.cache`) — partial bitstreams and
  placed-and-routed slot implementations are pure functions of
  (module, device, slot); an LRU artifact cache shares them across the
  worker pool instead of regenerating them per worker.
* **Vectorization** (:mod:`repro.kernels`) — the stage-major executor
  hands each whole-batch stage to fused batch kernels instead of looping
  per request; results are bit-identical to the per-request module
  behaviours that :class:`repro.verifylab.ReferenceExecutor` replays.

* **Energy-aware scheduling** (:mod:`repro.serve.energy`) — the paper's
  power model priced into batch formation: an :class:`EnergyModel`
  charges every executed batch and predicts joules/request for candidate
  batches with the same function, the ``policy="energy"``
  scheduler seam (the default) picks group, batch size and fill wait to
  minimize it within deadline SLOs, and a :class:`DeviceMixPlanner` recommends a
  device mix (few big dies vs many small) for an offered load.

* **Supervision** (:mod:`repro.serve.supervisor`) — the runtime survives
  its own component death the way the paper's device survives bit flips:
  per-worker heartbeats with crash restart (in-flight requests
  re-delivered, systems rebuilt from the shared cache), per-worker
  circuit breakers quarantining a persistently faulting executor, and
  overload shedding (expired requests answered at batch assembly, doomed
  submits rejected early).  Chaos-tested by :mod:`repro.chaos`.

The remaining pieces: :mod:`repro.serve.requests` (request/response model,
bounded FIFO broker with deadlines, backpressure and exponential-backoff
retry on transient device faults), :mod:`repro.serve.pool` (thread-based
worker pool with per-worker energy accounting and graceful shutdown),
:mod:`repro.serve.metrics` (cheap counters and histograms), and
:mod:`repro.serve.loadgen` (synthetic fleet workloads).
"""

from repro.serve.batching import (
    STANDARD_PIPELINE,
    Batch,
    BatchExecutor,
    BatchScheduler,
    FifoPolicy,
)
from repro.serve.cache import ArtifactCache, CachingBitstreamGenerator
from repro.serve.energy import (
    BatchEnergyEstimate,
    DeviceMixPlanner,
    DevicePlan,
    EnergyDecision,
    EnergyModel,
    EnergyPolicy,
    offered_load_from_admission,
)
from repro.serve.loadgen import synthetic_load
from repro.serve.metrics import Counter, Histogram, Metrics
from repro.serve.pool import DEFAULT_POLICY, POLICIES, FleetService, FleetWorker
from repro.serve.requests import (
    KIND_CALIBRATE,
    KIND_MEASURE,
    PRIORITY_ALARM,
    PRIORITY_ROUTINE,
    BrokerFullError,
    MeasurementRequest,
    MeasurementResponse,
    OverloadShedError,
    RequestBroker,
    RetryPolicy,
    TransientDeviceFault,
    priority_class,
)
from repro.serve.supervisor import (
    AdmissionController,
    CircuitBreaker,
    SupervisorConfig,
    WorkerSupervisor,
)
from repro.serve.thermal import (
    DeratingPolicy,
    ThermalGovernor,
    ThermalModel,
    ThermalParams,
)

__all__ = [
    "AdmissionController",
    "ArtifactCache",
    "Batch",
    "BatchEnergyEstimate",
    "BatchExecutor",
    "BatchScheduler",
    "BrokerFullError",
    "CachingBitstreamGenerator",
    "CircuitBreaker",
    "Counter",
    "DEFAULT_POLICY",
    "DeratingPolicy",
    "DeviceMixPlanner",
    "DevicePlan",
    "EnergyDecision",
    "EnergyModel",
    "EnergyPolicy",
    "FifoPolicy",
    "FleetService",
    "FleetWorker",
    "Histogram",
    "KIND_CALIBRATE",
    "KIND_MEASURE",
    "MeasurementRequest",
    "MeasurementResponse",
    "Metrics",
    "OverloadShedError",
    "POLICIES",
    "PRIORITY_ALARM",
    "PRIORITY_ROUTINE",
    "RequestBroker",
    "RetryPolicy",
    "STANDARD_PIPELINE",
    "SupervisorConfig",
    "ThermalGovernor",
    "ThermalModel",
    "ThermalParams",
    "TransientDeviceFault",
    "WorkerSupervisor",
    "offered_load_from_admission",
    "priority_class",
    "synthetic_load",
]
