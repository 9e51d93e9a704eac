"""Per-layer metrics of the traced pass, computed from its spans.

Every time below is wall time inside the timed public call, waits for the
interpreter lock included.  A layer the workload does not put on the
request path records no spans, and its metrics read 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

import numpy as np

from spans import Span, self_times

STAGES = ("frontend", "amp_phase", "capacity", "filter")


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def p99(values: Sequence[float]) -> float:
    return float(np.percentile(values, 99)) if len(values) else 0.0


def _total(spans: Sequence[Span]) -> float:
    return sum(s.duration for s in spans)


def _per(spans: Sequence[Span], count: int, scale: float) -> float:
    return _total(spans) / count * scale if count else 0.0


def span_metrics(
    spans: Sequence[Span],
    traced: Sequence[Tuple[float, float]],
    workers: int,
    latency_by_key: Dict[Hashable, float],
    key_of: Callable[[int, float], Hashable],
) -> Dict[str, float]:
    """The span-derived layer metrics.

    ``traced`` lists the traced segments, ``workers`` is the service's
    worker count, and ``latency_by_key`` the client-observed latency of each request, keyed
    the way ``key_of(request_id, level)`` keys the requests the service
    saw.
    """
    by: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by[span.name].append(span)
    m: Dict[str, float] = {}

    decoded = by["net.request_from_wire"]
    m["net.decode_us_per_req"] = _per(by["net.feed"] + decoded, len(decoded), 1e6)
    encoded = by["net.response_to_wire"]
    m["net.encode_us_per_resp"] = _per(
        encoded + by["net.encode_message"], len(encoded), 1e6
    )

    waits = [w for s in by["serve.take"] for w in s.attrs["waits"]]
    m["serve.queue_wait_ms_mean"] = mean([w for _, _, w in waits]) * 1e3
    m["serve.queue_wait_ms_p99"] = p99([w for _, _, w in waits]) * 1e3
    m["serve.batch_size_mean"] = mean(
        [s.attrs["size"] for s in by["serve.next_batch"] if s.attrs]
    )
    executes = by["serve.execute"]
    selfs = self_times(spans)
    m["serve.execute_ms_mean"] = mean([s.duration for s in executes]) * 1e3
    m["serve.execute_ms_p99"] = p99([s.duration for s in executes]) * 1e3
    m["serve.execute_self_ms"] = mean([selfs[s.span_id] for s in executes]) * 1e3
    # A call that starts in a traced segment may run past its end (the
    # segment's open spans finish before the originals are restored), so
    # busy time is counted up to the end of the segment it started in.
    busy = 0.0
    for span in executes:
        for t0, t1 in traced:
            if t0 <= span.t0 < t1:
                busy += min(span.t1, t1) - span.t0
    traced_s = sum(t1 - t0 for t0, t1 in traced)
    m["serve.busy_frac"] = busy / (traced_s * workers) if traced_s else 0.0
    m["serve.submit_us_per_req"] = mean([s.duration for s in by["serve.submit"]]) * 1e6

    # Queue wait plus the execute span of the batch that carried the
    # request, against the client-observed latency of the same request:
    # what is left over is time no layer metric sees.
    execute_of: Dict[Hashable, float] = {}
    for span in executes:
        for request_id, level in span.attrs["requests"]:
            execute_of[key_of(request_id, level)] = span.duration
    accounted = observed = 0.0
    for request_id, level, wait in waits:
        key = key_of(request_id, level)
        if key in execute_of and key in latency_by_key:
            accounted += wait + execute_of[key]
            observed += latency_by_key[key]
    m["serve.accounted_frac"] = accounted / observed if observed else 0.0

    loads = by["reconfig.load"]
    configured = [s for s in loads if s.attrs["configured"]]
    m["reconfig.load_host_ms"] = mean([s.duration for s in configured]) * 1e3
    m["reconfig.loads_per_batch"] = len(configured) / len(executes) if executes else 0.0
    executed = sum(len(s.attrs["requests"]) for s in executes)
    m["reconfig.device_ms_per_req"] = (
        sum(s.attrs["device_s"] for s in loads) / executed * 1e3 if executed else 0.0
    )

    stage_spans: Dict[str, List[Span]] = defaultdict(list)
    for span in by["kernels.run_stage"]:
        stage_spans[span.attrs["stage"]].append(span)
    for stage in STAGES:
        m[f"kernels.{stage}_ms"] = mean([s.duration for s in stage_spans[stage]]) * 1e3
    frontend = stage_spans["frontend"]
    m["kernels.frontend_us_per_req"] = _per(
        frontend, sum(s.attrs["n"] for s in frontend), 1e6
    )
    return m


def stage_agreement(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Mean ``kernels.run_stage`` span against the program's own
    ``stage_<stage>_s`` observation of the same call, per stage, in ms.

    The executor observes a stage's compute time right after the kernel
    call returns, on the same thread, so each run_stage span pairs with
    the next stage observation its thread makes.
    """
    pending: Dict[str, Span] = {}
    sums: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in sorted(spans, key=lambda s: s.t0):
        if span.name == "kernels.run_stage":
            pending[span.thread] = span
        elif span.name == "metrics.observe" and span.attrs and span.thread in pending:
            kernel = pending.pop(span.thread)
            stage = kernel.attrs["stage"]
            if span.attrs["metric"] == f"stage_{stage}_s":
                total = sums[stage]
                total[0] += 1
                total[1] += kernel.duration
                total[2] += span.attrs["value"]
    return {
        stage: {"kernel": k / n * 1e3, "stage": v / n * 1e3}
        for stage, (n, k, v) in sums.items()
    }
