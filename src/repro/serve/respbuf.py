"""Preallocated per-batch result lanes of the vector engine.

:class:`LaneBuffers` holds dense ``(lanes,)`` float64 arrays the vector
engine scatters stage results into (capacitance from the ``capacity``
kernel, smoothed level from the ``filter`` kernel), one lane per planned
attempt of the batch.  A lane left untouched (the attempt faulted out
before the stage) stays NaN, which the executor's response builder maps
to ``None`` — the vector kernels themselves can never produce a NaN
because ``quantize_array`` rejects non-finite input.  Responses leave
the process through the per-response codec
(:func:`repro.shard.wire.response_to_wire`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["LaneBuffers"]


class LaneBuffers:
    """Per-batch stage-result lanes the vector engine writes into."""

    __slots__ = ("c_pf", "level")

    def __init__(self, lanes: int):
        self.c_pf = np.full(lanes, np.nan, dtype=np.float64)
        self.level = np.full(lanes, np.nan, dtype=np.float64)
