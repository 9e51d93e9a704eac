"""Batched DSP stages: Goertzel, phasor quantisation, capacitance, IIR.

Each kernel processes one pipeline stage for a whole batch and returns
values bit-identical to running the scalar module behaviours
(:mod:`repro.app.modules`) request by request:

* The Goertzel projection is one strict left-to-right MAC shared with
  the reference: :func:`batch_goertzel` runs
  :func:`repro.app.dsp.goertzel_mac` over the whole batch against the
  cached basis, so the batch and the scalar path are one definition.
* The capacitance solve runs :func:`repro.app.dsp.capacity_from_phasors`
  per lane (the complex divide chain would round differently in NumPy)
  and quantises the batch once.
* All real elementwise arithmetic (level linearisation, IIR update,
  fixed-point rounding) vectorizes exactly and does.
"""

from __future__ import annotations

import cmath
import functools
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.app import dsp
from repro.app.modules import (
    CAP_FRAC_BITS,
    DEFAULT_FILTER_ALPHA,
    LEVEL_FRAC_BITS,
    PHASOR_FRAC_BITS,
)
from repro.app.tank import MeasurementCircuit
from repro.kernels import native
from repro.kernels.cache import ArtifactCache, cached_goertzel_basis


def batch_goertzel(
    blocks: np.ndarray,
    frequency_hz: float,
    sample_rate_hz: float,
    cache: Optional[ArtifactCache] = None,
) -> np.ndarray:
    """Single-bin DFT of every row of a ``(B, N)`` sample array: the
    reference :func:`repro.app.dsp.goertzel_mac` projection against the
    cached basis, so each element equals ``dsp.goertzel(row, f, fs)`` bit
    for bit and the argument checks are the scalar path's own.

    Raises
    ------
    ValueError
        On a non-2-D input, zero-length rows, a non-positive sample rate,
        or non-finite samples.
    """
    return dsp.goertzel_mac(
        blocks, frequency_hz, sample_rate_hz,
        basis=functools.partial(cached_goertzel_basis, cache=cache),
    )


def batch_amp_phase(
    meas_blocks: np.ndarray,
    ref_blocks: np.ndarray,
    sample_rate_hz: float,
    tone_hz: float,
    frac_bits: int = PHASOR_FRAC_BITS,
    cache: Optional[ArtifactCache] = None,
) -> List[Tuple[float, float, float, float]]:
    """Quantised (m_amp, m_ph, r_amp, r_ph) per batch lane — the batched
    form of :func:`repro.app.modules.amp_phase_behavior`.

    The magnitude/phase extraction and fixed-point rounding run per lane
    with the scalar functions (``abs``/``cmath.phase``/``dsp.quantize``)
    so every tuple matches the scalar module's output exactly; only the
    Goertzel projection itself is batched.

    Raises
    ------
    ValueError
        Propagated from :func:`batch_goertzel` or from quantisation
        overflow, and on mismatched measurement/reference batch sizes.
    """
    m_phasors = batch_goertzel(meas_blocks, tone_hz, sample_rate_hz, cache)
    r_phasors = batch_goertzel(ref_blocks, tone_hz, sample_rate_hz, cache)
    if m_phasors.size != r_phasors.size:
        raise ValueError(
            f"measurement batch ({m_phasors.size}) and reference batch "
            f"({r_phasors.size}) differ in size"
        )
    out: List[Tuple[float, float, float, float]] = []
    for pm, pr in zip(m_phasors, r_phasors):
        pm = complex(pm)
        pr = complex(pr)
        out.append(
            (
                dsp.quantize(abs(pm), frac_bits),
                dsp.quantize(cmath.phase(pm), frac_bits),
                dsp.quantize(abs(pr), frac_bits),
                dsp.quantize(cmath.phase(pr), frac_bits),
            )
        )
    return out


def batch_capacity(
    phasors: Sequence[Tuple[float, float, float, float]],
    circuit: MeasurementCircuit,
    frequency_hz: float,
    frac_bits: int = CAP_FRAC_BITS,
) -> np.ndarray:
    """Quantised tank capacitance (pF) per batch lane — the batched form
    of the module behaviour built by
    :func:`repro.app.modules.make_capacity_behavior`.

    Raises
    ------
    ValueError
        On non-finite phasors, a non-positive reference amplitude, a
        degenerate transfer, or quantisation overflow — the same failure
        modes as the scalar path.
    """
    if len(phasors) == 0:
        return np.empty(0, dtype=np.float64)
    arr = np.asarray(phasors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"phasors must be (B, 4), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite phasor in batch")
    c_pf = [
        dsp.capacity_from_phasors(m_amp, m_ph, r_amp, r_ph, circuit, frequency_hz)
        for m_amp, m_ph, r_amp, r_ph in arr.tolist()
    ]
    return dsp.quantize_array(c_pf, frac_bits)


def batch_filter_update(
    c_pf: np.ndarray,
    tank_keys: Sequence[Hashable],
    states: Dict[Hashable, Optional[float]],
    circuit: MeasurementCircuit,
    alpha: float = DEFAULT_FILTER_ALPHA,
    frac_bits: int = LEVEL_FRAC_BITS,
) -> Tuple[np.ndarray, Dict[Hashable, Optional[float]]]:
    """Linearise and IIR-smooth a batch of capacitances with per-tank
    state — the batched form of the behaviour built by
    :func:`repro.app.modules.make_filter_behavior`.

    ``tank_keys[i]`` names the tank of lane ``i``; ``states`` maps tank
    key to its current filter state (None before the first measurement).
    Lanes of the same tank chain through the filter in lane order, as the
    scalar path would.  Smoothing runs in "rounds" — the k-th occurrence
    of every tank forms one vectorized update — so a batch mixing many
    tanks is one array op per chain depth, not per lane.

    Returns ``(levels, new_states)``; the input ``states`` dict is not
    mutated.

    Raises
    ------
    ValueError
        On shape mismatch, non-finite capacitances, an out-of-range
        ``alpha``, or quantisation overflow.
    """
    c = np.asarray(c_pf, dtype=np.float64)
    if c.ndim != 1:
        raise ValueError(f"capacitances must be 1-D, got shape {c.shape}")
    if len(tank_keys) != c.size:
        raise ValueError(
            f"{len(tank_keys)} tank keys for {c.size} capacitances"
        )
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    new_states: Dict[Hashable, Optional[float]] = dict(states)
    if c.size == 0:
        return np.empty(0, dtype=np.float64), new_states
    if not np.all(np.isfinite(c)):
        raise ValueError("non-finite capacitance in batch")
    tank = circuit.tank

    # Fused C path: linearise + per-tank IIR chain + quantise in one
    # pass (bit-identical op sequence).  Each distinct tank gets a state
    # slot; the kernel chains same-tank lanes in lane order, exactly as
    # the rounds below do.  A None return (library unavailable, or a
    # lane failed quantisation) falls through to the numpy path, which
    # either succeeds identically or raises the scalar-path error.
    slot_of: Dict[Hashable, int] = {}
    slots = np.empty(c.size, dtype=np.int64)
    slot_keys: List[Hashable] = []
    for i, key in enumerate(tank_keys):
        s = slot_of.get(key)
        if s is None:
            s = slot_of[key] = len(slot_keys)
            slot_keys.append(key)
        slots[i] = s
    slot_state = np.array(
        [0.0 if states.get(k) is None else states.get(k) for k in slot_keys],
        dtype=np.float64,
    )
    slot_fresh = np.array(
        [states.get(k) is None for k in slot_keys], dtype=np.uint8
    )
    fused = native.level_filter_chain_batch(
        c,
        slots,
        slot_state,
        slot_fresh,
        tank.c_empty_pf,
        tank.c_full_pf - tank.c_empty_pf,
        alpha,
        frac_bits,
    )
    if fused is not None:
        for j, key in enumerate(slot_keys):
            new_states[key] = float(slot_state[j])
        return fused, new_states

    raw = (c - tank.c_empty_pf) / (tank.c_full_pf - tank.c_empty_pf)
    levels = np.minimum(1.0, np.maximum(0.0, raw))

    # Round k holds the k-th occurrence of each tank: within a round every
    # lane belongs to a distinct tank, so one vectorized update is safe,
    # and consecutive rounds realise the per-tank state chain.
    rounds: List[List[int]] = []
    occurrence: Dict[Hashable, int] = {}
    for i, key in enumerate(tank_keys):
        k = occurrence.get(key, 0)
        occurrence[key] = k + 1
        if k == len(rounds):
            rounds.append([])
        rounds[k].append(i)

    out = np.empty_like(levels)
    for lanes in rounds:
        idx = np.asarray(lanes, dtype=np.intp)
        lv = levels[idx]
        prior = [new_states.get(tank_keys[i]) for i in lanes]
        fresh = np.array([s is None for s in prior])
        state = np.array([0.0 if s is None else s for s in prior])
        smoothed = state + alpha * (lv - state)
        smoothed[fresh] = lv[fresh]
        smoothed = dsp.quantize_array(smoothed, frac_bits)
        out[idx] = smoothed
        for j, i in enumerate(lanes):
            new_states[tank_keys[i]] = float(smoothed[j])
    return out, new_states
