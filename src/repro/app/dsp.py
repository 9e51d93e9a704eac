"""Reference DSP chain (numpy, double precision).

This is the algorithmic ground truth both implementations must match:
the soft-core assembly program (:mod:`repro.app.software`) and the System
Generator hardware modules (:mod:`repro.app.modules`) each re-implement
this pipeline, and the tests assert functional equivalence within their
arithmetic precision.

Pipeline (paper Figure 4): single-bin DFT (Goertzel) extracts amplitude and
phase of the measurement and reference signals; the complex ratio yields
the tank capacitance (see :class:`repro.app.tank.MeasurementCircuit`); an
IIR low-pass smooths the level estimate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.app.tank import MeasurementCircuit


def goertzel_basis(n: int, frequency_hz: float, sample_rate_hz: float) -> np.ndarray:
    """Complex-exponential analysis basis ``exp(-j*2*pi*f*n/fs)`` of
    length ``n`` — the single DFT bin :func:`goertzel` projects onto.

    Kept as a standalone function so the batch kernels
    (:mod:`repro.kernels`) and the scalar reference build *identical*
    basis arrays (same ops, same values) when caching them per
    ``(n, f, fs)``.

    Raises
    ------
    ValueError
        On a non-positive length or sample rate.
    """
    if n <= 0:
        raise ValueError(f"basis length must be positive, got {n}")
    if sample_rate_hz <= 0:
        raise ValueError(f"sample rate must be positive, got {sample_rate_hz}")
    w = 2.0 * math.pi * frequency_hz / sample_rate_hz
    return np.exp(-1j * w * np.arange(n))


def goertzel_mac(
    rows: np.ndarray,
    frequency_hz: float,
    sample_rate_hz: float,
    basis: Callable[[int, float, float], np.ndarray] = goertzel_basis,
) -> np.ndarray:
    """Single-bin DFT of every row of a ``(B, N)`` sample array, summed
    the way the amp_phase module's MAC against ROM sums it.

    Row ``r`` yields ``sum x[r, n] * exp(-j*2*pi*f*n/fs)`` divided by
    ``N/2``, where the sum is a strict left-to-right accumulation over
    ``n``: the last column of ``np.add.accumulate``, whose order is fixed
    by the definition of a running sum, not by the BLAS build or the CPU
    kernel it picks.  Every row therefore equals, bit for bit and for
    any B, a plain Python loop ``re += x*c; im += x*s`` over the basis's
    real and imaginary parts, followed by the same division.

    ``basis(n, f, fs)`` supplies the :func:`goertzel_basis` array; the
    batch kernels pass a cached one.

    Raises
    ------
    ValueError
        On a non-2-D input, zero-length rows, a non-positive sample rate
        or a non-finite sample.  The checks run before an empty batch
        returns, so a degenerate configuration fails with or without
        rows in flight.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"rows must be 2-D (B, N), got shape {x.shape}")
    n = x.shape[1]
    if n == 0:
        raise ValueError("goertzel of empty input")
    if sample_rate_hz <= 0:
        raise ValueError(f"sample rate must be positive, got {sample_rate_hz}")
    if not np.all(np.isfinite(x)):
        raise ValueError("goertzel of non-finite samples")
    products = x * basis(n, frequency_hz, sample_rate_hz)
    return np.add.accumulate(products, axis=1)[:, -1] / (n / 2.0)


def goertzel(samples: np.ndarray, frequency_hz: float, sample_rate_hz: float) -> complex:
    """Single-bin DFT at ``frequency_hz`` of one sample block: the
    :func:`goertzel_mac` projection of a single row.

    Returns the complex phasor ``sum x[n] * exp(-j*2*pi*f*n/fs)``,
    summed strictly left to right over ``n`` and normalised by ``N/2``
    so a full-scale sine of amplitude A yields magnitude ~A.  The sum
    order is fixed, so the result does not depend on the BLAS build.
    Mathematically identical to the classic :func:`goertzel_recursive`
    formulation (they agree to ~1e-13 relative); the MAC form is what
    the hardware amp_phase module's datapath computes.

    Raises
    ------
    ValueError
        On an empty input, a non-positive sample rate or a non-finite
        sample.
    """
    x = np.asarray(samples, dtype=np.float64)
    return complex(goertzel_mac(x[None], frequency_hz, sample_rate_hz)[0])


def goertzel_recursive(
    samples: np.ndarray, frequency_hz: float, sample_rate_hz: float
) -> complex:
    """Single-bin DFT via the per-sample Goertzel recursion — the form the
    soft-core assembly program implements, kept as an independent
    cross-check of :func:`goertzel`.

    Raises
    ------
    ValueError
        On an empty input or a non-positive sample rate.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("goertzel of empty input")
    if sample_rate_hz <= 0:
        raise ValueError(f"sample rate must be positive, got {sample_rate_hz}")
    w = 2.0 * math.pi * frequency_hz / sample_rate_hz
    coeff = 2.0 * math.cos(w)
    s1 = 0.0
    s2 = 0.0
    for value in x:
        s0 = value + coeff * s1 - s2
        s2 = s1
        s1 = s0
    phasor = s1 - s2 * cmath.exp(-1j * w)
    # Undo the recursion's final rotation so phase is referenced to n=0.
    phasor *= cmath.exp(-1j * w * (x.size - 1))
    return phasor / (x.size / 2.0)


def amplitude_phase(
    samples: np.ndarray, frequency_hz: float, sample_rate_hz: float
) -> Tuple[float, float]:
    """Amplitude and phase (radians) of the tone in a sample block."""
    phasor = goertzel(samples, frequency_hz, sample_rate_hz)
    return abs(phasor), cmath.phase(phasor)


def capacity_from_phasors(
    meas_amplitude: float,
    meas_phase: float,
    ref_amplitude: float,
    ref_phase: float,
    circuit: MeasurementCircuit,
    frequency_hz: float,
) -> float:
    """Tank capacitance (pF) from the measured and reference phasors.

    The reference channel calibrates out the excitation amplitude, the
    converter chain's gain and any common phase offset: the complex ratio
    ``G = P_meas / P_ref`` equals ``H_tank / H_ref``, and ``H_ref`` is
    known analytically.

    Raises
    ------
    ValueError
        If the reference amplitude is zero (broken reference channel).
    """
    if ref_amplitude <= 0:
        raise ValueError("reference channel amplitude is zero")
    g = (meas_amplitude / ref_amplitude) * cmath.exp(1j * (meas_phase - ref_phase))
    h_tank = g * complex(circuit.reference_transfer(frequency_hz))
    return circuit.capacitance_from_transfer(h_tank, frequency_hz)


def level_from_capacity(capacitance_pf: float, circuit: MeasurementCircuit) -> float:
    """Fill level in [0, 1] from the tank capacitance."""
    return circuit.tank.level_from_capacitance(capacitance_pf)


class LevelFilter:
    """First-order IIR smoothing of the level estimate (the paper's final
    'filtering and calculates the level' stage)."""

    def __init__(self, alpha: float = 0.25, initial: Optional[float] = None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.state = initial

    def update(self, level: float) -> float:
        """Feed one raw level estimate; returns the smoothed level."""
        if self.state is None:
            self.state = level
        else:
            self.state += self.alpha * (level - self.state)
        return self.state


@dataclass(frozen=True)
class MeasurementOutcome:
    """Everything one processed measurement cycle produces."""

    meas_amplitude: float
    meas_phase: float
    ref_amplitude: float
    ref_phase: float
    capacitance_pf: float
    level: float


def process_measurement(
    meas_samples: np.ndarray,
    ref_samples: np.ndarray,
    sample_rate_hz: float,
    frequency_hz: float,
    circuit: MeasurementCircuit,
    level_filter: Optional[LevelFilter] = None,
) -> MeasurementOutcome:
    """Run the full reference pipeline on one cycle's samples."""
    m_amp, m_ph = amplitude_phase(meas_samples, frequency_hz, sample_rate_hz)
    r_amp, r_ph = amplitude_phase(ref_samples, frequency_hz, sample_rate_hz)
    c_pf = capacity_from_phasors(m_amp, m_ph, r_amp, r_ph, circuit, frequency_hz)
    level = level_from_capacity(c_pf, circuit)
    if level_filter is not None:
        level = level_filter.update(level)
    return MeasurementOutcome(m_amp, m_ph, r_amp, r_ph, c_pf, level)


def quantize(value: float, fractional_bits: int, total_bits: int = 32) -> float:
    """Round to a signed fixed-point grid — used to model the hardware
    modules' arithmetic precision.

    Raises
    ------
    ValueError
        If the value overflows the representable range.
    """
    scale = 1 << fractional_bits
    raw = round(value * scale)
    limit = 1 << (total_bits - 1)
    if not -limit <= raw < limit:
        raise ValueError(f"{value} overflows Q{total_bits - fractional_bits}.{fractional_bits}")
    return raw / scale


def quantize_array(
    values: np.ndarray, fractional_bits: int, total_bits: int = 32
) -> np.ndarray:
    """Vectorized :func:`quantize`: element-for-element the same grid.

    ``np.rint`` rounds half-to-even exactly like Python's ``round``, and
    the integer codes stay below 2**31, so dividing back by the
    power-of-two scale is exact — every element equals what the scalar
    :func:`quantize` would return.

    Raises
    ------
    ValueError
        If any element is non-finite or overflows the representable
        range (matching the scalar function's overflow behaviour).
    """
    x = np.asarray(values, dtype=np.float64)
    scale = 1 << fractional_bits
    with np.errstate(invalid="ignore"):
        raw = np.rint(x * scale)
    limit = float(1 << (total_bits - 1))
    if not np.all(np.isfinite(raw)):
        raise ValueError("quantize_array of non-finite input")
    if np.any(raw < -limit) or np.any(raw >= limit):
        q = f"Q{total_bits - fractional_bits}.{fractional_bits}"
        raise ValueError(f"input overflows {q}")
    return raw / scale
