"""Per-request span tracing and profiling for the fleet runtime.

The paper's power optimization is driven by *measured attribution*:
post-PAR VCD activity tells the flow which nets burn the power budget
(Section 4.2-4.3), and the measured 7 ms -> 7 us module speedup justifies
running the fabric at a lower clock.  This package gives the serving
runtime the same kind of evidence at request granularity: every request
carries a :class:`Trace` of timestamped spans — admit, queue, schedule,
batch assembly, per-stage execution (vector kernel),
reconfiguration, SEU scrub, respond — each annotated with wall time,
simulated device cycles, and per-stage energy from the existing power
model.

* :mod:`repro.trace.spans` — the depth-encoded :class:`Span`/:class:`Trace`
  model.
* :mod:`repro.trace.tracer` — the zero-cost-when-disabled :class:`Tracer`
  seam the serve components emit through, and the bounded
  :class:`TraceSink` ring with its slow-exemplar sampler.
* :mod:`repro.trace.export` — JSONL export/import.
* :mod:`repro.trace.report` — per-stage latency/energy breakdown tables
  and a text flamegraph (the ``repro trace-report`` CLI).
"""

from repro.trace.export import JsonlExporter, read_traces, write_traces
from repro.trace.report import (
    render_exemplars,
    render_flamegraph,
    render_stage_table,
    stage_breakdown,
    stage_compute_means,
    trace_report,
)
from repro.trace.spans import Span, Trace
from repro.trace.tracer import NULL_TRACER, Tracer, TraceSink

__all__ = [
    "JsonlExporter",
    "NULL_TRACER",
    "Span",
    "Trace",
    "TraceSink",
    "Tracer",
    "read_traces",
    "render_exemplars",
    "render_flamegraph",
    "render_stage_table",
    "stage_breakdown",
    "stage_compute_means",
    "trace_report",
    "write_traces",
]
