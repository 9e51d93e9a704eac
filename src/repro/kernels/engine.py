"""The fleet's execution engine: one batched kernel call per stage.

:class:`VectorEngine` runs every pipeline stage of a
:class:`repro.serve.batching.BatchExecutor` batch.  Each stage runs as
one kernel over the whole batch, with the session locking discipline and
failure modes of the per-request module behaviours it replaces; results
are bit-identical to those behaviours, which the verifylab oracle checks
with ``==`` against :class:`repro.verifylab.ReferenceExecutor`.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Dict, List, Optional

import numpy as np

from repro.app.modules import DEFAULT_FILTER_ALPHA
from repro.kernels.cache import KERNEL_CACHE, ArtifactCache
from repro.kernels.dsp_kernels import (
    batch_amp_phase,
    batch_capacity,
    batch_filter_update,
)
from repro.kernels.frontend import batch_sample_cycles
from repro.serve.respbuf import LaneBuffers
from repro.trace.tracer import NULL_TRACER, Tracer


class VectorEngine:
    """Batched implementation of the four measurement pipeline stages.

    Bound to one simulated system (for the circuit, tone and frame
    configuration the module behaviours bake in) and a kernel
    cache shared fleet-wide by default.
    """

    def __init__(
        self,
        system,
        cache: Optional[ArtifactCache] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.system = system
        self.cache = cache if cache is not None else KERNEL_CACHE
        self.tracer = tracer or NULL_TRACER
        self.frame_samples = system.config.frame_samples
        self.circuit = system.config.circuit
        self.tone_hz = system.frontend.tone_hz
        self.filter_alpha = DEFAULT_FILTER_ALPHA

    def run_stage(
        self,
        stage: str,
        requests: List,
        contexts: Dict[int, dict],
        lanes: LaneBuffers,
    ) -> None:
        """Run one pipeline stage for every request of the batch.

        ``requests`` lists the still-runnable requests in batch order;
        ``contexts`` maps request id to the per-request context dict the
        executor threads through the pipeline (``session``, ``row``, and
        the ``cycle``/``phasors`` intermediates).  The ``capacity`` and
        ``filter`` stages scatter their results into ``lanes`` at each
        request's ``row``.

        Raises
        ------
        ValueError
            On an unknown stage name, or propagated from the kernels
            (same failure modes as the module behaviours).
        """
        if not requests:
            return
        if stage == "frontend":
            kernel = self._frontend
        elif stage == "amp_phase":
            kernel = self._amp_phase
        elif stage == "capacity":
            kernel = self._capacity
        elif stage == "filter":
            kernel = self._filter
        else:
            raise ValueError(f"unknown pipeline stage {stage!r}")
        if self.tracer.enabled:
            t0 = self.tracer.clock()
            kernel(requests, contexts, lanes)
            self.tracer.emit(
                f"kernel:{stage}", t0, self.tracer.clock(), requests=len(requests)
            )
        else:
            kernel(requests, contexts, lanes)

    @staticmethod
    def _rows(requests: List, contexts: Dict[int, dict]) -> np.ndarray:
        """Lane indices of the runnable requests, batch order."""
        return np.fromiter(
            (contexts[r.request_id]["row"] for r in requests),
            dtype=np.intp,
            count=len(requests),
        )

    def _frontend(self, requests: List, contexts: Dict[int, dict], lanes) -> None:
        entries = [
            (contexts[r.request_id]["session"], r.level) for r in requests
        ]
        cycles = batch_sample_cycles(entries, self.frame_samples, self.cache)
        for request, cycle in zip(requests, cycles):
            contexts[request.request_id]["cycle"] = cycle

    def _amp_phase(self, requests: List, contexts: Dict[int, dict], lanes) -> None:
        # A homogeneous fleet lands in one group; grouping keeps mixed
        # frame/rate configurations correct rather than assuming.
        groups: Dict[tuple, List] = {}
        for request in requests:
            cycle = contexts[request.request_id]["cycle"]
            key = (cycle.meas.size, cycle.sample_rate_hz, cycle.tone_hz)
            groups.setdefault(key, []).append(request)
        for (_, rate, tone), group in groups.items():
            meas = np.stack([contexts[r.request_id]["cycle"].meas for r in group])
            ref = np.stack([contexts[r.request_id]["cycle"].ref for r in group])
            phasors = batch_amp_phase(meas, ref, rate, tone, cache=self.cache)
            for request, tup in zip(group, phasors):
                contexts[request.request_id]["phasors"] = tup

    def _capacity(self, requests: List, contexts: Dict[int, dict], lanes) -> None:
        phasors = [contexts[r.request_id]["phasors"] for r in requests]
        lanes.c_pf[self._rows(requests, contexts)] = batch_capacity(
            phasors, self.circuit, self.tone_hz
        )

    def _filter(self, requests: List, contexts: Dict[int, dict], lanes) -> None:
        sessions = {}
        for request in requests:
            sessions[request.tank_id] = contexts[request.request_id]["session"]
        rows = self._rows(requests, contexts)
        # Lock every touched session in a canonical order (no deadlock
        # against a sibling worker locking the same tanks), gather the
        # filter states, run the batched update, scatter them back.
        with ExitStack() as stack:
            for tank_id in sorted(sessions):
                stack.enter_context(sessions[tank_id].lock)
            states = {
                tank_id: session.filter_state
                for tank_id, session in sessions.items()
            }
            keys = [r.tank_id for r in requests]
            levels, new_states = batch_filter_update(
                lanes.c_pf[rows], keys, states, self.circuit, self.filter_alpha
            )
            for tank_id, session in sessions.items():
                session.filter_state = new_states[tank_id]
        lanes.level[rows] = levels
