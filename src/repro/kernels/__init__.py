"""Vectorized batch execution kernels: the fleet's only execution path.

The per-request module behaviours (:mod:`repro.app.modules`, replayed by
:class:`repro.verifylab.ReferenceExecutor`) are the software baseline of
the paper's 7 ms → 7 µs narrative.  This package is the "hardware" side
of that analogy for the fleet runtime: per pipeline stage, all live
requests of a batch are processed as arrays through fused kernels,
bit-identical to that reference, which the verifylab oracle checks with
``==``.  Without a C compiler (or with ``REPRO_NO_NATIVE_KERNELS=1``) the
fused converter chain runs as pure Python: same bits, slower.

Modules
-------
``native``
    The fused delta-sigma converter chain with its counter-keyed noise
    generated inline, a vector's worth of lanes per step, compiled to C
    once per host and cached (pure-Python fused fallback when no
    compiler is present).
``cache``
    The kernel-side :class:`~repro.serve.cache.ArtifactCache` holding
    request-invariant arrays (excitation, spectra, Goertzel bases).
``frontend``
    Batched analog front-end sampling (``batch_sample_cycles``).
``dsp_kernels``
    Batched Goertzel / phasor / capacitance / IIR-filter stages.
``engine``
    :class:`~repro.kernels.engine.VectorEngine`, the per-stage dispatch
    the :class:`~repro.serve.batching.BatchExecutor` drives.
"""

from repro.kernels.cache import KERNEL_CACHE, cached_goertzel_basis, goertzel_basis_key
from repro.kernels.dsp_kernels import (
    batch_amp_phase,
    batch_capacity,
    batch_filter_update,
    batch_goertzel,
)
from repro.kernels.engine import VectorEngine
from repro.kernels.frontend import batch_sample_cycles
from repro.kernels.native import (
    DISABLE_ENV,
    adc_chain_batch,
    native_available,
    native_status,
)

__all__ = [
    "KERNEL_CACHE",
    "DISABLE_ENV",
    "VectorEngine",
    "adc_chain_batch",
    "batch_amp_phase",
    "batch_capacity",
    "batch_filter_update",
    "batch_goertzel",
    "batch_sample_cycles",
    "cached_goertzel_basis",
    "goertzel_basis_key",
    "native_available",
    "native_status",
]
