"""Correctness tooling for the fleet runtime (the verification backstop).

The paper's central §4.2 claim is an *equivalence* claim — moving the
measurement software into time-multiplexed hardware modules preserves
results — and the serving layer (:mod:`repro.serve`) stacks more on top:
batching, sharding, the TCP edge, caching and fault-retry must not change
any answer.  This package checks them five ways:

* :mod:`repro.verifylab.oracle` — the differential oracle: seeded
  scenarios of each workload family (plain, faults, drift, thermal,
  priority) served over each transport (in process, sharded, TCP) and
  replayed on the single-system reference path must agree exactly, with
  a per-family coverage gate.
* :mod:`repro.verifylab.fuzz` — deterministic scenario fuzzer (geometry,
  trajectories, noise, interleaving, batch size) with greedy shrinking to
  a minimal failing reproducer.
* :mod:`repro.verifylab.campaign` — SEU fault campaigns: burst-size and
  strike-rate sweeps over the reconfigure/scrub/retry path, reporting
  recovery rate, retries consumed and post-recovery result integrity.
* :mod:`repro.verifylab.golden` — golden-trace regression: canonical
  seeds of every family frozen to committed JSON snapshots with a loud
  diff on drift.
* :mod:`repro.verifylab.chaos` — runtime chaos campaigns: seeded worker
  crashes, executor exceptions and clock skew (:mod:`repro.chaos`) served
  by a supervised fleet, gated on terminal-response recovery rate and
  post-recovery result integrity.

:mod:`repro.verifylab.scenarios` holds the seeded scenario model they
share.  Run from the CLI as ``repro verifylab {oracle,fuzz,campaign,golden}``
(``oracle --family F --transport T``) or ``repro chaos`` for the runtime
chaos campaign.
"""

from repro.verifylab.campaign import (
    DEFAULT_INTENSITIES,
    FaultIntensity,
    campaign_scenario,
    run_campaign,
    write_report,
)
from repro.verifylab.chaos import run_chaos_campaign, run_shard_chaos_campaign
from repro.verifylab.fuzz import FuzzFailure, FuzzReport, run_fuzz, shrink
from repro.verifylab.golden import (
    CANONICAL_SEEDS,
    build_trace,
    check_golden,
    default_golden_dir,
    write_golden,
)
from repro.verifylab.oracle import (
    FAMILIES,
    TRANSPORTS,
    UNSUPPORTED,
    Check,
    ReferenceExecutor,
    ReferenceResult,
    Report,
    ToleranceSpec,
    check_cell,
    check_scenario,
    integrity,
    run_oracle,
)
from repro.verifylab.scenarios import (
    Entry,
    Scenario,
    generate_fault_scenario,
    generate_scenario,
    retarget_single_tank,
)

__all__ = [
    "CANONICAL_SEEDS",
    "Check",
    "DEFAULT_INTENSITIES",
    "Entry",
    "FAMILIES",
    "FaultIntensity",
    "FuzzFailure",
    "FuzzReport",
    "ReferenceExecutor",
    "ReferenceResult",
    "Report",
    "Scenario",
    "TRANSPORTS",
    "ToleranceSpec",
    "UNSUPPORTED",
    "build_trace",
    "campaign_scenario",
    "check_cell",
    "check_golden",
    "check_scenario",
    "default_golden_dir",
    "generate_fault_scenario",
    "generate_scenario",
    "integrity",
    "retarget_single_tank",
    "run_campaign",
    "run_chaos_campaign",
    "run_fuzz",
    "run_oracle",
    "run_shard_chaos_campaign",
    "shrink",
    "write_golden",
    "write_report",
]
