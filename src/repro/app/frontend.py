"""Analog front end: DAC -> divider/tank -> ADC, plus the reference path.

One sampling phase of a measurement cycle (Figure 4, first task): the sinus
generator feeds the delta-sigma DAC, the reconstructed analog excitation
drives the tank divider and the reference divider, and two delta-sigma ADC
channels digitise the returned signals.  The tank/divider is a linear
circuit, so it is applied in the frequency domain (per-FFT-bin complex
transfer) — amplitude *and* phase shifts, harmonics and converter noise all
propagate exactly as in the physical loop.

Converter noise is counter-keyed: sample ``k`` of channel ``c``
(0 = measurement, 1 = reference) in a front end's ``j``-th sampled cycle
is a pure function of ``(seed, j, c, k)``.  The channel's stream key is
``mix64(mix64(seed mod 2**64) ^ (2j + c))``; sample ``k`` hashes
``h = mix64(key + (k + 1) * GOLDEN64)`` (SplitMix64) and sums its four
16-bit fields, centred, times ``noise_rms / NOISE_SIGMA``.  The noise is
therefore Irwin–Hall(4) shaped: mean 0, standard deviation ``noise_rms``,
excess kurtosis -0.3 and hard tails at ``131070 / NOISE_SIGMA`` ≈ 2√3
times ``noise_rms``, against an unbounded Gaussian's.  Integer hashing
and one scale multiply, no libm call: the compiled converter kernel
(:mod:`repro.kernels.native`) generates the same bits inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.app.tank import MeasurementCircuit
from repro.ip.delta_sigma import DeltaSigmaAdc, DeltaSigmaDac
from repro.ip.sinus import LUT_DEPTH, SinusGenerator


#: SplitMix64's increment: 2**64 over the golden ratio, odd.
GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
#: Mean and standard deviation of the sum of four uniform 16-bit fields.
NOISE_MEAN = 4 * 65535 // 2
NOISE_SIGMA = math.sqrt(4 * (65536**2 - 1) / 12)


def mix64(z):
    """SplitMix64's finaliser, on a Python int in [0, 2**64) or a
    ``uint64`` array (which wraps its products modulo 2**64 itself)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def noise_stream_key(seed: int, cycle: int, channel: int) -> int:
    """Key of channel ``channel``'s noise stream in cycle ``cycle``."""
    return mix64(mix64(seed & _MASK64) ^ ((2 * cycle + channel) & _MASK64))


def converter_noise(key: int, n: int, scale: float) -> np.ndarray:
    """Samples ``0..n-1`` of one noise stream, ``scale`` per integer step
    (``noise_rms / NOISE_SIGMA`` gives standard deviation ``noise_rms``)."""
    k = np.arange(1, n + 1, dtype=np.uint64)
    h = mix64(np.uint64(key) + k * np.uint64(GOLDEN64))
    fields = (h & 0xFFFF) + ((h >> 16) & 0xFFFF) + ((h >> 32) & 0xFFFF) + (h >> 48)
    return (fields.astype(np.int64) - NOISE_MEAN) * scale


@dataclass(frozen=True)
class SampledCycle:
    """Digitised data of one sampling phase."""

    meas: np.ndarray
    ref: np.ndarray
    sample_rate_hz: float
    tone_hz: float

    @property
    def duration_s(self) -> float:
        return self.meas.size / self.sample_rate_hz


class AnalogFrontEnd:
    """The full excitation/acquisition loop of Figure 1.

    Each sampled cycle adds converter noise of rms ``noise_rms`` to both
    channels from the cycle's two counter-keyed streams (module
    docstring): Irwin–Hall(4) shaped, so unlike a Gaussian it never
    exceeds ±2√3 ``noise_rms``.  ``cycle`` counts the cycles sampled.
    """

    def __init__(
        self,
        circuit: Optional[MeasurementCircuit] = None,
        excitation_scale: float = 0.75,
        noise_rms: float = 0.002,
        seed: int = 0,
        meas_gain: float = 4.0,
        ref_gain: float = 3.0,
    ):
        if not 0.0 < excitation_scale <= 0.9:
            raise ValueError(
                f"excitation scale must be in (0, 0.9] to keep the DAC stable, got {excitation_scale}"
            )
        if meas_gain <= 0 or ref_gain <= 0:
            raise ValueError("channel gains must be positive")
        self.circuit = circuit or MeasurementCircuit()
        self.sinus = SinusGenerator(amplitude=excitation_scale)
        self.dac = DeltaSigmaDac()
        self.adc_meas = DeltaSigmaAdc()
        self.adc_ref = DeltaSigmaAdc()
        self.noise_rms = noise_rms
        #: Noise per integer step of the generator; 0 disables the noise.
        self.noise_scale = noise_rms / NOISE_SIGMA if noise_rms > 0 else 0.0
        # Fixed-gain input amplifiers bring both channels near ADC full
        # scale; a one-bit delta-sigma modulator's effective gain depends
        # on its input amplitude, so running both channels at comparable,
        # large amplitudes keeps that error common-mode (it then cancels
        # in the measurement/reference ratio).  The known gains are divided
        # out of the digital samples, as the DSP's input scaling would.
        self.meas_gain = meas_gain
        self.ref_gain = ref_gain
        self.seed = seed
        #: Index of the next cycle to sample: the noise streams' counter.
        self.cycle = 0

    @property
    def tone_hz(self) -> float:
        return self.sinus.tone_hz

    @property
    def output_rate_hz(self) -> float:
        return self.adc_meas.output_rate_hz

    def next_noise_keys(self) -> Tuple[int, int]:
        """Claim the next cycle: its (measurement, reference) noise stream
        keys.  Callers sharing a front end across threads hold its
        session's lock."""
        cycle = self.cycle
        self.cycle = cycle + 1
        return (
            noise_stream_key(self.seed, cycle, 0),
            noise_stream_key(self.seed, cycle, 1),
        )

    def _apply_channel(self, analog: np.ndarray, transfer) -> np.ndarray:
        """Run a waveform through a linear channel given its H(f)."""
        spectrum = np.fft.rfft(analog)
        freqs = np.fft.rfftfreq(analog.size, 1.0 / self.dac.modulator_hz)
        # DC bin: H(0) of a capacitive divider is 1 (no DC current, no drop
        # across the series resistor at equilibrium); avoid 1/0 in Z(f).
        h = np.ones_like(spectrum)
        nonzero = freqs > 0
        h[nonzero] = transfer(freqs[nonzero])
        return np.fft.irfft(spectrum * h, n=analog.size)

    def _add_noise(self, shaped: np.ndarray, noise_key: int) -> np.ndarray:
        if not self.noise_scale:
            return shaped
        return shaped + converter_noise(noise_key, shaped.size, self.noise_scale)

    def input_sample_count(self, frame_samples: int) -> int:
        """Sinus-generator samples needed for one acquisition of
        ``frame_samples`` ADC outputs: the ADC frame duration at the DAC's
        input rate, plus settling margin for the converters' filters,
        rounded up to whole LUT sweeps.

        Shared by :meth:`sample_cycle` and the batched sampling kernel
        (:mod:`repro.kernels.frontend`) so both paths excite the channel
        with the identical waveform.

        Raises
        ------
        ValueError
            If the frame is too short to hold at least one tone period.
        """
        adc_rate = self.adc_meas.output_rate_hz
        if frame_samples < adc_rate / self.tone_hz:
            raise ValueError(
                f"frame of {frame_samples} samples at {adc_rate:.0f} Hz holds "
                f"less than one {self.tone_hz:.0f} Hz period"
            )
        duration_s = frame_samples / adc_rate
        settle_s = 4.0 / self.tone_hz
        n_in = int(np.ceil((duration_s + settle_s) * self.sinus.sample_rate_hz))
        return ((n_in + LUT_DEPTH - 1) // LUT_DEPTH) * LUT_DEPTH

    def sample_cycle(self, level: float, frame_samples: int = 512) -> SampledCycle:
        """Acquire one cycle's data at a given tank fill level.

        Parameters
        ----------
        level:
            True fill level in [0, 1].
        frame_samples:
            ADC output samples to collect per channel.

        Raises
        ------
        ValueError
            If the level is out of range or the frame is too short to hold
            at least one tone period.
        """
        n_in = self.input_sample_count(frame_samples)
        excitation = self.dac.convert(self.sinus.normalized_samples(n_in))
        meas_shaped = self._apply_channel(
            excitation, lambda f: self.circuit.tank_transfer(level, f)
        )
        ref_shaped = self._apply_channel(excitation, self.circuit.reference_transfer)
        # The cycle is claimed once both channels are shaped: a level the
        # tank model rejects consumes no cycle.
        meas_key, ref_key = self.next_noise_keys()
        meas_analog = self.meas_gain * self._add_noise(meas_shaped, meas_key)
        ref_analog = self.ref_gain * self._add_noise(ref_shaped, ref_key)

        meas = self.adc_meas.convert(meas_analog) / self.meas_gain
        ref = self.adc_ref.convert(ref_analog) / self.ref_gain
        # Drop the settling prefix, keep the last `frame_samples`.
        if meas.size < frame_samples or ref.size < frame_samples:
            raise ValueError("internal error: converter produced too few samples")
        return SampledCycle(
            meas=meas[-frame_samples:],
            ref=ref[-frame_samples:],
            sample_rate_hz=self.adc_meas.output_rate_hz,
            tone_hz=self.tone_hz,
        )
