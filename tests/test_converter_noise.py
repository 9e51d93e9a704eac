"""Tests of the counter-keyed converter noise (repro.app.frontend).

The generator has three implementations that must agree bit for bit:
the numpy reference (``converter_noise``, which the scalar path and the
pure-Python kernel fallback run), the compiled converter kernel, and the
per-sample integer definition spelled out below.  Its statistics must be
those of its documented distribution, and the fleet must claim one cycle
per sampled request.
"""

import sys

import numpy as np
import pytest

from repro.app.frontend import (
    GOLDEN64,
    NOISE_MEAN,
    NOISE_SIGMA,
    AnalogFrontEnd,
    converter_noise,
    mix64,
    noise_stream_key,
)
from repro.app.system import SystemConfig
from repro.ip.delta_sigma import DeltaSigmaAdc
from repro.kernels.native import DISABLE_ENV, adc_chain_batch, native_available
from repro.serve import FleetService, MeasurementRequest
from repro.serve.loadgen import tank_level

MASK64 = (1 << 64) - 1
#: Stream keys at the edges of the key space: the first cycle, a cycle
#: past 2**32, the largest seed and a negative seed (taken mod 2**64).
EDGE_KEYS = (
    noise_stream_key(0, 0, 0),
    noise_stream_key(0, 0, 1),
    noise_stream_key(2**64 - 1, 2**32 + 1, 0),
    noise_stream_key(2**64 - 1, 2**32 + 1, 1),
    noise_stream_key(-7, 3, 1),
)
SAMPLES = 10**6


def scalar_noise(key: int, n: int, scale: float) -> list:
    """The generator's definition, one Python int sample at a time."""
    out = []
    for k in range(n):
        h = mix64((key + (k + 1) * GOLDEN64) & MASK64)
        fields = sum((h >> shift) & 0xFFFF for shift in (0, 16, 32, 48))
        out.append((fields - NOISE_MEAN) * scale)
    return out


def unit_noise(seed: int, cycle: int, channel: int) -> np.ndarray:
    return converter_noise(noise_stream_key(seed, cycle, channel), SAMPLES, 1 / NOISE_SIGMA)


def test_mix64_is_the_splitmix64_finaliser():
    """Stepping a zero state reproduces SplitMix64's published outputs."""
    outputs = [mix64(k * GOLDEN64 & MASK64) for k in (1, 2, 3)]
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_stream_key_takes_the_seed_mod_2_64():
    assert noise_stream_key(-1, 5, 0) == noise_stream_key(2**64 - 1, 5, 0)
    assert noise_stream_key(3, 5, 0) != noise_stream_key(3, 5, 1)
    assert noise_stream_key(3, 5, 1) != noise_stream_key(3, 6, 1)


@pytest.mark.parametrize("key", EDGE_KEYS)
def test_numpy_generator_matches_the_definition(key):
    scale = 0.002 / NOISE_SIGMA
    assert converter_noise(key, 300, scale).tolist() == scalar_noise(key, 300, scale)


def chain_reference(lanes, gains, keys, scale):
    """Scalar ground truth: the analog input the scalar path forms, then
    ``DeltaSigmaAdc.convert``."""
    adc = DeltaSigmaAdc()
    return np.stack(
        [
            adc.convert(gain * (lane + converter_noise(key, lane.size, scale)))
            for lane, gain, key in zip(lanes, gains, keys)
        ]
    )


@pytest.mark.parametrize("native", [True, False], ids=["native", "fallback"])
def test_kernel_noise_is_bit_exact_at_edge_keys(native, monkeypatch):
    """The compiled kernel and the pure-Python fallback generate the same
    noise as the numpy reference: the chaotic modulator would turn a
    one-ulp difference into flipped bits within a few samples."""
    if native and not native_available():
        pytest.skip("no native kernel")
    if not native:
        monkeypatch.setenv(DISABLE_ENV, "1")
    rng = np.random.default_rng(5)
    lanes = [0.2 * np.sin(0.31 * np.arange(1024) + p) for p in rng.uniform(0, 6, 5)]
    gains = [4.0, 3.0, 4.0, 3.0, 2.5]
    scale = 0.05 / NOISE_SIGMA
    adc = DeltaSigmaAdc()
    out = adc_chain_batch(
        lanes, adc.antialias.alpha, adc.antialias.order, adc.decimation,
        gains=gains, keys=EDGE_KEYS, noise_scale=scale,
    )
    np.testing.assert_array_equal(out, chain_reference(lanes, gains, EDGE_KEYS, scale))


def test_noisy_lanes_need_keys():
    with pytest.raises(ValueError, match="keys"):
        adc_chain_batch(np.zeros((1, 64)), 0.1, 2, 16, noise_scale=1e-6)
    with pytest.raises(ValueError, match="one gain and one key"):
        adc_chain_batch(np.zeros((2, 64)), 0.1, 2, 16, gains=[1.0])


def test_zero_noise_stays_exact():
    """At ``noise_rms == 0`` no noise enters either path: every cycle of
    one level is the same, and the counter still advances."""
    fe = AnalogFrontEnd(noise_rms=0.0, seed=9)
    assert fe.noise_scale == 0.0
    first = fe.sample_cycle(0.4, 512)
    second = fe.sample_cycle(0.4, 512)
    np.testing.assert_array_equal(first.meas, second.meas)
    np.testing.assert_array_equal(first.ref, second.ref)
    assert fe.cycle == 2


def test_noise_statistics():
    """Irwin-Hall(4) at unit scale over 10**6 samples: mean 0 and std 1
    within 5 standard errors, excess kurtosis -0.3, bounded by 2*sqrt(3),
    and no correlation between neighbouring samples, between the two
    channels of a cycle, or between consecutive cycles of a channel (each
    within 5/sqrt(n))."""
    z = unit_noise(seed=123, cycle=0, channel=0)
    bound = 5 / np.sqrt(SAMPLES)
    assert abs(z.mean()) < bound
    assert abs(z.std() - 1.0) < 0.004
    kurtosis = np.mean((z - z.mean()) ** 4) / z.var() ** 2 - 3
    assert abs(kurtosis + 0.3) < 0.02
    assert np.abs(z).max() <= 2 * np.sqrt(3)
    assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) < bound
    assert abs(np.corrcoef(z, unit_noise(seed=123, cycle=0, channel=1))[0, 1]) < bound
    assert abs(np.corrcoef(z, unit_noise(seed=123, cycle=1, channel=0))[0, 1]) < bound


@pytest.mark.parametrize("workers", [2, 4])
def test_fleet_claims_one_cycle_per_request(workers):
    """Workers serving one tank concurrently advance its counter once per
    request: a lost update under the session lock would leave it short."""
    n = 64
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    service = FleetService(workers=workers, max_batch=4, queue_capacity=n + 8).start()
    try:
        accepted, rejected = service.submit_many(
            [MeasurementRequest(request_id=i, tank_id="t", level=0.5) for i in range(n)]
        )
        assert not rejected
        assert service.await_responses(accepted, timeout_s=120)
    finally:
        assert service.shutdown()
        sys.setswitchinterval(interval)
    assert all(r.ok for r in service.responses())
    assert service.tanks.session("t").frontend.cycle == n


def test_capacitance_error_spread_at_closed_loop_levels():
    """The noise's shape is statistical detail only: over 2,048 fleet
    responses on 16 tanks at the closed-loop benchmark's fill/drain
    levels, the capacitance error's standard deviation stays within 10 %
    of 2.27 %, its value with Gaussian noise of the same rms."""
    tank = SystemConfig().circuit.tank
    requests = []
    for i in range(2048):
        step, k = divmod(i, 16)
        requests.append(
            MeasurementRequest(request_id=i, tank_id=f"tank-{k:03d}", level=tank_level(k, step))
        )
    level = {r.request_id: r.level for r in requests}
    service = FleetService(queue_capacity=len(requests) + 8).start()
    try:
        accepted, rejected = service.submit_many(requests)
        assert not rejected
        assert service.await_responses(accepted, timeout_s=300)
    finally:
        assert service.shutdown()
    errors = np.array(
        [
            r.capacitance_pf / tank.capacitance_pf(level[r.request_id]) - 1
            for r in service.responses()
        ]
    )
    assert errors.size == len(requests)
    assert 0.9 * 0.0227 <= errors.std() <= 1.1 * 0.0227
