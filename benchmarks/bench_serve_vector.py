"""Vector kernels vs the per-request module behaviours, stage by stage.

The paper's headline DSP number — a Goertzel + capacitance evaluation in
7 ms of softcore time, reduced to ~7 us once moved into fabric — is an
argument about *fusing the inner loop into hardware*.  ``repro.kernels``
replays that argument in software: each pipeline stage of a batch runs
as one fused (B, N) numpy/C kernel call instead of a per-request loop.

This bench feeds the same batches of 8 and 16 ``(session, level)``
entries through the four :meth:`VectorEngine.run_stage` calls and
through the per-request primitives the reference replay runs
(:meth:`AnalogFrontEnd.sample_cycle` plus the ``amp_phase``,
``capacity`` and ``filter`` module behaviours), from identically seeded
tank sessions.  It asserts that every ``level``/``c_pf`` is equal and
that the kernels clear the speedup floor.
"""

import time
from typing import NamedTuple

from _util import show

from repro.app.system import FpgaReconfigSystem
from repro.kernels import VectorEngine, native_available, native_status
from repro.serve import synthetic_load
from repro.serve.batching import STANDARD_PIPELINE, TankStateStore
from repro.serve.respbuf import LaneBuffers

#: (label, n_requests, n_tanks, batch) — batch >= 8.
LOADS = [
    ("batch8", 32, 4, 8),
    ("batch16", 48, 6, 16),
]

#: Speedup floor at batch >= 8.  The compiled C ADC kernel carries most
#: of it; when no C compiler is present the fused pure-Python fallback
#: still has to beat the per-request path, just by a smaller margin.
SPEEDUP_FLOOR = 5.0 if native_available() else 1.2

SEED = 0


class Entry(NamedTuple):
    """One lane: what :meth:`VectorEngine.run_stage` reads of a request."""

    request_id: int
    tank_id: str
    level: float


def batches(n_requests: int, n_tanks: int, size: int):
    load = synthetic_load(n_requests, n_tanks=n_tanks)
    entries = [Entry(i, r.tank_id, r.level) for i, r in enumerate(load)]
    return [entries[i : i + size] for i in range(0, len(entries), size)]


def run_vector(system, store, work):
    """Every batch through the four kernel calls; (results, stage seconds)."""
    engine = VectorEngine(system)
    results, seconds = [], dict.fromkeys(STANDARD_PIPELINE, 0.0)
    for batch in work:
        lanes = LaneBuffers(len(batch))
        contexts = {
            e.request_id: {"session": store.session(e.tank_id), "row": row}
            for row, e in enumerate(batch)
        }
        for stage in STANDARD_PIPELINE:
            started = time.perf_counter()
            engine.run_stage(stage, batch, contexts, lanes)
            seconds[stage] += time.perf_counter() - started
        results.extend(zip(lanes.level.tolist(), lanes.c_pf.tolist()))
    return results, seconds


def run_per_request(system, store, work):
    """Every batch stage-major through the per-request primitives."""
    modules = system.modules
    frame = system.config.frame_samples
    results, seconds = [], dict.fromkeys(STANDARD_PIPELINE, 0.0)
    for batch in work:
        sessions = [store.session(e.tank_id) for e in batch]
        started = time.perf_counter()
        cycles = [s.frontend.sample_cycle(e.level, frame) for s, e in zip(sessions, batch)]
        seconds["frontend"] += time.perf_counter() - started
        started = time.perf_counter()
        phasors = [
            modules["amp_phase"].behavior(c.meas, c.ref, c.sample_rate_hz, c.tone_hz)
            for c in cycles
        ]
        seconds["amp_phase"] += time.perf_counter() - started
        started = time.perf_counter()
        c_pf = [modules["capacity"].behavior(*p) for p in phasors]
        seconds["capacity"] += time.perf_counter() - started
        started = time.perf_counter()
        for session, c in zip(sessions, c_pf):
            level, session.filter_state = modules["filter"].behavior(
                c, session.filter_state
            )
            results.append((level, c))
        seconds["filter"] += time.perf_counter() - started
    return results, seconds


def fresh_store(system) -> TankStateStore:
    return TankStateStore(circuit=system.config.circuit, seed=SEED)


def run_all() -> dict:
    system = FpgaReconfigSystem()
    results = {}
    for label, n, tanks, size in LOADS:
        work = batches(n, tanks, size)
        # Warm both paths (native compile, level-keyed kernel caches).
        run_vector(system, fresh_store(system), work)
        run_per_request(system, fresh_store(system), work)
        results[label] = {
            "requests": n,
            "vector": run_vector(system, fresh_store(system), work),
            "per-request": run_per_request(system, fresh_store(system), work),
        }
    return results


def test_serve_vector(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    header = (
        f"{'load':<9}{'path':<13}{'us/req':>10}"
        + "".join(f"{stage:>11}" for stage in STANDARD_PIPELINE)
    )
    lines = [
        header,
        "-" * len(header),
        f"native ADC kernel: {native_status()}  (stage columns: ms per batch)",
    ]
    speedups = {}
    for label, run in results.items():
        n = run["requests"]
        n_batches = -(-n // dict((l, b) for l, _, _, b in LOADS)[label])
        for path in ("vector", "per-request"):
            _, seconds = run[path]
            lines.append(
                f"{label:<9}{path:<13}{sum(seconds.values()) / n * 1e6:>10.0f}"
                + "".join(
                    f"{seconds[stage] / n_batches * 1e3:>11.2f}"
                    for stage in STANDARD_PIPELINE
                )
            )
        speedups[label] = sum(run["per-request"][1].values()) / max(
            1e-9, sum(run["vector"][1].values())
        )
        lines.append(f"{label:<9}{'speedup':<13}{speedups[label]:>9.1f}x")
    show("Pipeline stages: vector kernels vs per-request behaviours", "\n".join(lines))

    for label, run in results.items():
        # The kernels answer every lane exactly like the per-request path.
        assert run["vector"][0] == run["per-request"][0], label
        # >= 5x over the per-request path at batch >= 8 (relaxed to the
        # fused-Python floor when no C compiler exists).
        assert speedups[label] >= SPEEDUP_FLOOR, (label, speedups[label], native_status())

    batch8 = results["batch8"]
    benchmark.extra_info.update(
        {
            "native_kernel": native_status(),
            "vector_us_per_req": round(
                sum(batch8["vector"][1].values()) / batch8["requests"] * 1e6, 1
            ),
            "per_request_us_per_req": round(
                sum(batch8["per-request"][1].values()) / batch8["requests"] * 1e6, 1
            ),
            "speedup": round(speedups["batch8"], 1),
        }
    )
