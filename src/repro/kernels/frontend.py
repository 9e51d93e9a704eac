"""Batched analog-front-end sampling, bit-exact with the scalar path.

The scalar ``AnalogFrontEnd.sample_cycle`` spends almost all of its time
in the delta-sigma converter chains.  This kernel produces the same
:class:`repro.app.frontend.SampledCycle` objects — same bits — for a
whole batch at a fraction of the cost, by splitting the work into what
can be shared and what cannot:

* The DAC excitation, its spectrum, the FFT bin grid and the reference
  channel's noise-free shaped waveform do not depend on the request at
  all; they are built once and served from the kernel cache.
* The measurement channel's shaped waveform depends only on (circuit,
  level); it is LRU-cached per level.
* The noise is counter-keyed (see :mod:`repro.app.frontend`): each
  request claims its session's next cycle under the session lock, in
  batch order, exactly where the scalar path claims it, and hands the
  cycle's two stream keys to the kernel — so the fleet and the
  per-request reference replay with the same seeds observe identical
  noise per tank.
* The converter chain (anti-alias RC, one-bit modulator, decimator) is a
  chaotic per-sample recursion that cannot be shared or approximated; all
  ``2B`` lanes go through :func:`repro.kernels.native.adc_chain_batch`
  in one call, which reads the cached shaped waveforms in place,
  generates the noise and the channel gain inline, and advances a
  vector's worth of lanes per step (compiled when a C compiler is
  present, fused pure Python otherwise — bit-exact either way).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.app.frontend import AnalogFrontEnd, SampledCycle
from repro.kernels.cache import KERNEL_CACHE, ArtifactCache
from repro.kernels.native import adc_chain_batch


def _excitation_key(fe: AnalogFrontEnd, n_in: int) -> Tuple:
    dac = fe.dac
    return (
        "excitation",
        fe.sinus.amplitude,
        fe.sinus.sample_rate_hz,
        n_in,
        dac.modulator_hz,
        dac.input_rate_hz,
        dac.reconstruction.cutoff_hz,
    )


def _shared_arrays(
    fe: AnalogFrontEnd, frame_samples: int, cache: ArtifactCache
) -> Tuple[Tuple, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The request-invariant arrays of one front-end configuration:
    (excitation key, spectrum, bin frequencies, nonzero mask, noise-free
    reference waveform)."""
    n_in = fe.input_sample_count(frame_samples)
    exc_key = _excitation_key(fe, n_in)
    excitation = cache.get_or_build(
        exc_key, lambda: fe.dac.convert(fe.sinus.normalized_samples(n_in))
    )
    n = excitation.size
    spectrum = cache.get_or_build(
        ("spectrum",) + exc_key[1:], lambda: np.fft.rfft(excitation)
    )

    def build_freqs() -> Tuple[np.ndarray, np.ndarray]:
        freqs = np.fft.rfftfreq(n, 1.0 / fe.dac.modulator_hz)
        return freqs, freqs > 0

    freqs, nonzero = cache.get_or_build(
        ("rfreqs", n, fe.dac.modulator_hz), build_freqs
    )

    def build_ref() -> np.ndarray:
        # Same op sequence as AnalogFrontEnd._apply_channel before the
        # noise add: H(0)=1, per-bin transfer above DC, inverse FFT.
        h = np.ones_like(spectrum)
        h[nonzero] = fe.circuit.reference_transfer(freqs[nonzero])
        return np.fft.irfft(spectrum * h, n=n)

    ref_shaped = cache.get_or_build(
        ("ref-shaped",) + exc_key[1:] + (fe.circuit,), build_ref
    )
    return exc_key, spectrum, freqs, nonzero, ref_shaped


def _meas_shaped(
    fe: AnalogFrontEnd,
    level: float,
    n_analog: int,
    exc_key: Tuple,
    spectrum: np.ndarray,
    freqs: np.ndarray,
    nonzero: np.ndarray,
    cache: ArtifactCache,
) -> np.ndarray:
    def build() -> np.ndarray:
        h = np.ones_like(spectrum)
        h[nonzero] = fe.circuit.tank_transfer(level, freqs[nonzero])
        return np.fft.irfft(spectrum * h, n=n_analog)

    return cache.get_or_build(
        ("meas-shaped",) + exc_key[1:] + (fe.circuit, level), build
    )


def batch_sample_cycles(
    entries: Sequence[Tuple[object, float]],
    frame_samples: int,
    cache: Optional[ArtifactCache] = None,
) -> List[SampledCycle]:
    """Sample one cycle for every ``(session, level)`` entry, in order.

    Returns one :class:`SampledCycle` per entry, bit-identical to calling
    ``session.frontend.sample_cycle(level, frame_samples)`` sequentially
    in the same order.

    Raises
    ------
    ValueError
        Propagated from the scalar path's validations (frame too short,
        level out of range) or when a converter yields too few samples.
    """
    cache = cache if cache is not None else KERNEL_CACHE
    if not entries:
        return []

    shaped: List[np.ndarray] = []
    gains: List[float] = []
    keys: List[int] = []
    fes: List[AnalogFrontEnd] = []
    for session, level in entries:
        fe: AnalogFrontEnd = session.frontend
        exc_key, spectrum, freqs, nonzero, ref_shaped = _shared_arrays(
            fe, frame_samples, cache
        )
        n = ref_shaped.size
        meas_shaped = _meas_shaped(
            fe, level, n, exc_key, spectrum, freqs, nonzero, cache
        )
        with session.lock:
            keys.extend(fe.next_noise_keys())
        shaped += [meas_shaped, ref_shaped]
        gains += [fe.meas_gain, fe.ref_gain]
        fes.append(fe)

    # Group lanes by converter parameters so a (normally homogeneous)
    # fleet runs as one kernel call, while mixed configurations stay
    # correct lane by lane.
    groups: Dict[Tuple, List[int]] = {}
    for i, lane in enumerate(shaped):
        fe = fes[i // 2]
        adc = fe.adc_meas if i % 2 == 0 else fe.adc_ref
        key = (
            lane.size, adc.antialias.alpha, adc.antialias.order, adc.decimation,
            fe.noise_scale,
        )
        groups.setdefault(key, []).append(i)
    decimated: List[Optional[np.ndarray]] = [None] * len(shaped)
    for (size, alpha, order, dec, noise_scale), indices in groups.items():
        block = adc_chain_batch(
            [shaped[i] for i in indices],
            alpha,
            order,
            dec,
            gains=[gains[i] for i in indices],
            keys=[keys[i] for i in indices],
            noise_scale=noise_scale,
        )
        for row, i in enumerate(indices):
            decimated[i] = block[row]

    cycles: List[SampledCycle] = []
    for j, (session, level) in enumerate(entries):
        fe = fes[j]
        meas = decimated[2 * j] / fe.meas_gain
        ref = decimated[2 * j + 1] / fe.ref_gain
        if meas.size < frame_samples or ref.size < frame_samples:
            raise ValueError("internal error: converter produced too few samples")
        cycles.append(
            SampledCycle(
                meas=meas[-frame_samples:],
                ref=ref[-frame_samples:],
                sample_rate_hz=fe.adc_meas.output_rate_hz,
                tone_hz=fe.tone_hz,
            )
        )
    return cycles
