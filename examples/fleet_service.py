#!/usr/bin/env python3
"""Scenario: one measurement service, many tanks, few FPGAs.

The paper sizes a single reconfigurable Spartan-3 for a single tank.
This example multiplexes a whole tank farm onto a small pool of
simulated devices with ``repro.serve``: requests are queued with
deadlines and backpressure, grouped into same-pipeline batches so the
slot is reconfigured once per stage per batch (not once per stage per
request), and partial bitstreams are generated once and shared through
an LRU artifact cache.  A transient-fault run shows the SEU
scrub-and-retry path.  Per-request serving is the same service at
``max_batch=1``.

Run:  python examples/fleet_service.py [TRACE_FILE]

Given ``TRACE_FILE``, the batched run records its request spans there
as JSONL; ``repro trace-report TRACE_FILE`` renders them.
"""

import sys

from repro.serve import FleetService, synthetic_load
from repro.trace import JsonlExporter, TraceSink, Tracer


def serve_fleet(max_batch: int, fault_rate: float = 0.0, tracer=None) -> dict:
    service = FleetService(
        workers=2,
        max_batch=max_batch,
        fault_rate=fault_rate,
        seed=0,
        tracer=tracer,
    ).start()
    accepted, rejected = service.submit_many(synthetic_load(24, n_tanks=6))
    assert not rejected, "queue sized for the whole burst"
    service.await_responses(accepted, timeout_s=120)
    service.shutdown()
    return service.metrics_snapshot()


def main(trace_file=None) -> None:
    tracer = None
    if trace_file:
        tracer = Tracer(sink=TraceSink(exporter=JsonlExporter(trace_file)))
    print("serving 24 measurements across 6 tanks on 2 simulated FPGAs...\n")
    snapshots = {
        "per-request": serve_fleet(max_batch=1),
        "batched": serve_fleet(max_batch=8, tracer=tracer),
    }
    if tracer is not None:
        tracer.close()
        print(f"traces written to {trace_file}\n")

    header = f"{'metric':<24}" + "".join(f"{m:>14}" for m in snapshots)
    print(header)
    print("-" * len(header))
    rows = [
        ("requests/s", lambda s: f"{s['service']['requests_per_s']:.1f}"),
        ("p95 latency", lambda s: f"{s['histograms']['latency_s']['p95'] * 1e3:.0f} ms"),
        ("slot reconfigurations", lambda s: str(s["service"]["reconfigurations"])),
        ("reconfigs avoided", lambda s: str(s["service"]["reconfigurations_avoided"])),
        ("mJ per measurement", lambda s: f"{s['service']['joules_per_request'] * 1e3:.3f}"),
        ("bitstream cache hits", lambda s: str(s["cache"]["hits"])),
    ]
    for label, render in rows:
        print(f"{label:<24}" + "".join(f"{render(s):>14}" for s in snapshots.values()))

    b = snapshots["batched"]["service"]
    u = snapshots["per-request"]["service"]
    print(
        f"\nbatching: {u['reconfigurations'] / max(1, b['reconfigurations']):.0f}x "
        f"fewer slot reconfigurations, "
        f"{b['requests_per_s'] / u['requests_per_s']:.2f}x requests/s"
    )

    print("\nnow with SEU faults on every first attempt (rate=1.0)...")
    faulty = serve_fleet(max_batch=8, fault_rate=1.0)
    counters = faulty["counters"]
    print(
        f"faults injected {counters['faults_injected']}, "
        f"scrubbed {counters['faults_scrubbed']}, "
        f"requests retried {counters['requests_retried']} — "
        f"all {counters['requests_served']} measurements still served"
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
