"""Tests of the vectorized batch kernels (repro.kernels) and the fleet
serving path they run.

The contract under test is strict: every kernel must be *bit-identical*
to the per-request module behaviour it replaces, not merely close — the
verifylab oracle compares the fleet with the reference replay using
``==``, and the fixed-point quantization would surface any last-ulp
drift.
"""

import numpy as np
import pytest

from repro.app import dsp
from repro.app.modules import standard_modules
from repro.app.tank import MeasurementCircuit
from repro.ip.delta_sigma import DeltaSigmaAdc
from repro.kernels import (
    adc_chain_batch,
    batch_amp_phase,
    batch_capacity,
    batch_filter_update,
    batch_goertzel,
    batch_sample_cycles,
    native_status,
)
from repro.kernels.cache import ArtifactCache
from repro.kernels.native import DISABLE_ENV, _adc_chain_python, native_available
from repro.app.system import SystemConfig
from repro.serve import FleetService, synthetic_load
from repro.serve.batching import FaultInjector, TankStateStore
from repro.verifylab import ReferenceExecutor
from repro.verifylab.scenarios import Scenario

CIRCUIT = MeasurementCircuit()
TONE = 500_000.0
RATE = 4_000_000.0


def tones(b, n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    return np.stack(
        [
            np.sin(2 * np.pi * TONE * t + rng.uniform(0, 2 * np.pi))
            + 0.01 * rng.normal(size=n)
            for _ in range(b)
        ]
    )


# ------------------------------------------------------ reference goertzel


def test_goertzel_dot_matches_recursive():
    """The closed-form dot-product Goertzel agrees with the classic
    recursive form to near machine precision."""
    for row in tones(4, 512, seed=3):
        direct = dsp.goertzel(row, TONE, RATE)
        recursive = dsp.goertzel_recursive(row, TONE, RATE)
        assert abs(direct - recursive) <= 1e-12 * max(1.0, abs(direct))


def test_goertzel_recursive_validations_match():
    with pytest.raises(ValueError):
        dsp.goertzel_recursive(np.array([]), TONE, RATE)
    with pytest.raises(ValueError):
        dsp.goertzel_recursive(np.ones(8), TONE, 0.0)


# --------------------------------------------------------- batch_goertzel


def test_batch_goertzel_empty_batch():
    out = batch_goertzel(np.empty((0, 64)), TONE, RATE)
    assert out.shape == (0,) and out.dtype == np.complex128


def python_mac(row, f, fs):
    """The amp_phase module's MAC against ROM in plain Python floats:
    one left-to-right accumulation per part, then the ``N/2`` scale."""
    basis = dsp.goertzel_basis(len(row), f, fs)
    re = im = 0.0
    for x, c, s in zip(row.tolist(), basis.real.tolist(), basis.imag.tolist()):
        re += x * c
        im += x * s
    half = len(row) / 2.0
    return complex(re / half, im / half)


def tail_view(b, n):
    """Rows that are the tail of longer rows, as ``sample_cycle``'s
    ``[-frame_samples:]`` slice takes them: a non-contiguous block."""
    view = tones(b, n + 37, seed=n)[:, -n:]
    assert not view.flags.c_contiguous
    return view


@pytest.mark.parametrize(
    "blocks",
    [
        pytest.param(tones(1, 1), id="1x1"),
        pytest.param(tones(1, 64), id="1x64"),
        pytest.param(tones(1, 512), id="1x512"),
        pytest.param(tones(3, 480, seed=3), id="3x480"),
        pytest.param(tones(5, 256, seed=9), id="5x256"),
        pytest.param(tones(16, 512, seed=16), id="16x512"),
        pytest.param(tones(7, 1024, seed=7)[:, ::2], id="7x512-strided"),
        pytest.param(tail_view(3, 480), id="3x480-tail"),
    ],
)
def test_goertzel_is_a_left_to_right_mac(blocks):
    """``dsp.goertzel`` and every row of ``batch_goertzel`` equal a plain
    left-to-right float MAC bit for bit: the sum order is the module's,
    not whatever order a BLAS build picks."""
    out = batch_goertzel(blocks, TONE, RATE, cache=ArtifactCache(4))
    assert out.shape == (blocks.shape[0],)
    for i, row in enumerate(blocks):
        expected = python_mac(row, TONE, RATE)
        assert dsp.goertzel(row, TONE, RATE) == expected  # exact, not approx
        assert out[i] == expected


def test_batch_goertzel_guards():
    with pytest.raises(ValueError):
        batch_goertzel(np.ones(8), TONE, RATE)  # 1-D
    with pytest.raises(ValueError):
        batch_goertzel(np.empty((2, 0)), TONE, RATE)  # empty rows
    with pytest.raises(ValueError):
        batch_goertzel(np.ones((2, 8)), TONE, 0.0)  # bad rate
    bad = np.ones((2, 8))
    bad[1, 3] = np.nan
    with pytest.raises(ValueError):
        batch_goertzel(bad, TONE, RATE)


def test_batch_goertzel_validates_before_empty_return():
    """A degenerate configuration raises even when no request is in
    flight — validation precedes the empty-batch early return."""
    with pytest.raises(ValueError, match="empty input"):
        batch_goertzel(np.empty((0, 0)), TONE, RATE)
    with pytest.raises(ValueError, match="sample rate"):
        batch_goertzel(np.empty((0, 8)), TONE, -1.0)
    out = batch_goertzel(np.empty((0, 8)), TONE, RATE)
    assert out.shape == (0,) and out.dtype == np.complex128


# -------------------------------------------------------- batch_amp_phase


def test_batch_amp_phase_matches_scalar_module():
    modules = standard_modules(CIRCUIT, TONE)
    meas, ref = tones(3, 512, seed=1), tones(3, 512, seed=2)
    out = batch_amp_phase(meas, ref, RATE, TONE, cache=ArtifactCache(4))
    for i in range(3):
        scalar = modules["amp_phase"].behavior(meas[i], ref[i], RATE, TONE)
        assert out[i] == scalar  # tuple equality, bit for bit


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("path", ["module", "batch"])
def test_amp_phase_rejects_non_finite_samples_alike(path, bad):
    """A non-finite sample fails with the same error on the reference
    module and on the batch kernel."""
    meas, ref = tones(2, 64, seed=1), tones(2, 64, seed=2)
    meas[1, 5] = bad
    with pytest.raises(ValueError, match="^goertzel of non-finite samples$"):
        if path == "module":
            modules = standard_modules(CIRCUIT, TONE)
            modules["amp_phase"].behavior(meas[1], ref[1], RATE, TONE)
        else:
            batch_amp_phase(meas, ref, RATE, TONE, cache=ArtifactCache(4))


def test_batch_amp_phase_size_mismatch():
    with pytest.raises(ValueError, match="differ in size"):
        batch_amp_phase(tones(2, 64), tones(3, 64), RATE, TONE)


# --------------------------------------------------------- batch_capacity


def scalar_phasors(level, seed=0):
    """Realistic quantised phasors via the scalar frontend + module."""
    store = TankStateStore(circuit=CIRCUIT, seed=seed)
    session = store.session("tank-x")
    modules = standard_modules(CIRCUIT, session.frontend.tone_hz)
    cycle = session.frontend.sample_cycle(level, 512)
    return (
        modules,
        modules["amp_phase"].behavior(
            cycle.meas, cycle.ref, cycle.sample_rate_hz, cycle.tone_hz
        ),
    )


def test_batch_capacity_empty():
    out = batch_capacity([], CIRCUIT, TONE)
    assert out.shape == (0,)


def test_batch_capacity_matches_scalar_module():
    modules, p1 = scalar_phasors(0.3)
    _, p2 = scalar_phasors(0.8, seed=4)
    out = batch_capacity([p1, p2], CIRCUIT, TONE)
    assert out[0] == modules["capacity"].behavior(*p1)
    assert out[1] == modules["capacity"].behavior(*p2)


def test_batch_capacity_guards():
    with pytest.raises(ValueError, match="amplitude is zero"):
        batch_capacity([(1.0, 0.1, 0.0, 0.0)], CIRCUIT, TONE)
    with pytest.raises(ValueError, match="non-finite"):
        batch_capacity([(np.nan, 0.0, 1.0, 0.0)], CIRCUIT, TONE)
    with pytest.raises(ValueError, match=r"\(B, 4\)"):
        batch_capacity([(1.0, 0.0, 1.0)], CIRCUIT, TONE)


# ---------------------------------------------------- batch_filter_update


def test_batch_filter_empty():
    levels, states = batch_filter_update(
        np.empty(0), [], {"a": 0.5}, CIRCUIT
    )
    assert levels.size == 0 and states == {"a": 0.5}


def test_batch_filter_single_lane_matches_scalar():
    modules = standard_modules(CIRCUIT, TONE)
    c = 150.0
    levels, states = batch_filter_update(np.array([c]), ["a"], {}, CIRCUIT)
    want_level, want_state = modules["filter"].behavior(c, None)
    assert levels[0] == want_level
    assert states["a"] == want_state


def test_batch_filter_mixed_tanks_chain_in_lane_order():
    """Lanes of the same tank chain through the filter exactly as the
    scalar module would process them sequentially."""
    modules = standard_modules(CIRCUIT, TONE)
    c_pf = np.array([150.0, 210.0, 180.0, 165.0, 230.0])
    keys = ["a", "b", "a", "a", "b"]
    initial = {"a": None, "b": 0.4}
    levels, states = batch_filter_update(c_pf, keys, dict(initial), CIRCUIT)

    scalar_states = dict(initial)
    for i, (c, key) in enumerate(zip(c_pf, keys)):
        level, scalar_states[key] = modules["filter"].behavior(
            float(c), scalar_states[key]
        )
        assert levels[i] == level, i
    assert states == scalar_states


def test_batch_filter_does_not_mutate_input_states():
    states = {"a": 0.25}
    batch_filter_update(np.array([170.0]), ["a"], states, CIRCUIT)
    assert states == {"a": 0.25}


def test_batch_filter_guards():
    with pytest.raises(ValueError, match="alpha"):
        batch_filter_update(np.array([150.0]), ["a"], {}, CIRCUIT, alpha=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        batch_filter_update(np.array([np.nan]), ["a"], {}, CIRCUIT)
    with pytest.raises(ValueError, match="tank keys"):
        batch_filter_update(np.array([150.0, 160.0]), ["a"], {}, CIRCUIT)
    with pytest.raises(ValueError, match="1-D"):
        batch_filter_update(np.ones((2, 2)), ["a"], {}, CIRCUIT)


def test_batch_filter_fused_native_matches_python_rounds(monkeypatch):
    """The fused C chain (linearise + IIR + quantise in one pass) is
    bit-identical to the numpy rounds path over randomized mixed-tank
    batches, including the states dict it hands back."""
    if not native_available():
        pytest.skip(f"no native kernel: {native_status()}")
    rng = np.random.default_rng(0xF1)
    pool = ["a", "b", "c", "d"]
    span = CIRCUIT.tank.c_full_pf - CIRCUIT.tank.c_empty_pf
    for _trial in range(40):
        n = int(rng.integers(1, 13))
        keys = [pool[int(k)] for k in rng.integers(0, len(pool), n)]
        c = CIRCUIT.tank.c_empty_pf + span * rng.uniform(-0.2, 1.2, n)
        states = {
            k: (None if rng.random() < 0.4 else float(rng.random())) for k in pool
        }
        fused_out, fused_states = batch_filter_update(c, keys, dict(states), CIRCUIT)
        with monkeypatch.context() as m:
            m.setenv(DISABLE_ENV, "1")
            py_out, py_states = batch_filter_update(c, keys, dict(states), CIRCUIT)
        np.testing.assert_array_equal(fused_out, py_out)
        assert fused_states == py_states


def test_batch_filter_fused_chain_matches_scalar_module():
    """Long same-tank chains exercise the C kernel's sequential state
    update; every lane must match the scalar module run in order."""
    modules = standard_modules(CIRCUIT, TONE)
    c_pf = np.linspace(150.0, 420.0, 17)
    keys = ["t"] * 17
    levels, states = batch_filter_update(c_pf, keys, {}, CIRCUIT)
    state = None
    for i, c in enumerate(c_pf):
        level, state = modules["filter"].behavior(float(c), state)
        assert levels[i] == level, i
    assert states["t"] == state


# ----------------------------------------------------------- adc kernels


def adc_reference(lanes):
    """Scalar DeltaSigmaAdc.convert per lane (the ground truth)."""
    adc = DeltaSigmaAdc()
    return np.stack([adc.convert(lane) for lane in lanes])


def test_adc_chain_python_fallback_bit_exact(monkeypatch):
    monkeypatch.setenv(DISABLE_ENV, "1")
    adc = DeltaSigmaAdc()
    lanes = tones(3, 2048, seed=7)
    out = adc_chain_batch(
        lanes, adc.antialias.alpha, adc.antialias.order, adc.decimation
    )
    np.testing.assert_array_equal(out, adc_reference(lanes))
    assert "disabled" in native_status()


def test_adc_chain_native_bit_exact_when_available():
    if not native_available():
        pytest.skip(f"no native kernel: {native_status()}")
    adc = DeltaSigmaAdc()
    lanes = tones(4, 2048, seed=8)
    out = adc_chain_batch(
        lanes, adc.antialias.alpha, adc.antialias.order, adc.decimation
    )
    np.testing.assert_array_equal(out, adc_reference(lanes))
    # And the two fallback tiers agree with each other.
    py = np.stack(
        [
            _adc_chain_python(
                lane, adc.antialias.alpha, adc.antialias.order, adc.decimation, 0.9
            )
            for lane in lanes
        ]
    )
    np.testing.assert_array_equal(out, py)


def test_adc_chain_guards():
    with pytest.raises(ValueError, match="2-D"):
        adc_chain_batch(np.ones(16), 0.1, 2, 4)
    with pytest.raises(ValueError, match="order"):
        adc_chain_batch(np.ones((1, 16)), 0.1, 9, 4)
    with pytest.raises(ValueError, match="decimation"):
        adc_chain_batch(np.ones((1, 16)), 0.1, 2, 1)
    assert adc_chain_batch(np.empty((0, 16)), 0.1, 2, 4).shape == (0, 4)


# ----------------------------------------------------- batched frontend


def test_batch_sample_cycles_bit_exact_with_scalar():
    """Mixed tanks, a repeated tank (two RNG draws from one generator),
    noise on: the batch must replay the scalar path exactly."""
    entries_spec = [("a", 0.3), ("b", 0.7), ("a", 0.35), ("c", 0.5)]

    scalar_store = TankStateStore(circuit=CIRCUIT, seed=11)
    expected = [
        scalar_store.session(t).frontend.sample_cycle(lv, 512)
        for t, lv in entries_spec
    ]

    vector_store = TankStateStore(circuit=CIRCUIT, seed=11)
    entries = [(vector_store.session(t), lv) for t, lv in entries_spec]
    got = batch_sample_cycles(entries, 512, cache=ArtifactCache(16))

    for want, have in zip(expected, got):
        np.testing.assert_array_equal(have.meas, want.meas)
        np.testing.assert_array_equal(have.ref, want.ref)
        assert have.sample_rate_hz == want.sample_rate_hz
        assert have.tone_hz == want.tone_hz


def test_batch_sample_cycles_zero_noise_and_empty():
    assert batch_sample_cycles([], 512) == []
    scalar_store = TankStateStore(circuit=CIRCUIT, seed=2, noise_rms=0.0)
    want = scalar_store.session("a").frontend.sample_cycle(0.6, 512)
    vector_store = TankStateStore(circuit=CIRCUIT, seed=2, noise_rms=0.0)
    (have,) = batch_sample_cycles(
        [(vector_store.session("a"), 0.6)], 512, cache=ArtifactCache(16)
    )
    np.testing.assert_array_equal(have.meas, want.meas)
    np.testing.assert_array_equal(have.ref, want.ref)


# --------------------------------------------------- engine integration


def run_service(requests, **kwargs):
    kwargs.setdefault("queue_capacity", len(requests) + 8)
    service = FleetService(**kwargs).start()
    accepted, rejected = service.submit_many(requests)
    assert not rejected
    assert service.await_responses(accepted, timeout_s=120)
    assert service.shutdown()
    return service


def by_id(service):
    return {r.request_id: r for r in service.responses()}


def serve_and_replay(scenario, **kwargs):
    """Serve ``scenario`` on a one-worker fleet and replay it on the
    per-request reference path (module behaviours, same sessions)."""
    service = run_service(
        scenario.requests(),
        workers=1,
        max_batch=scenario.max_batch,
        seed=scenario.seed,
        noise_rms=scenario.noise_rms,
        config=SystemConfig(circuit=scenario.circuit),
        **kwargs,
    )
    reference = ReferenceExecutor(scenario).run(kwargs.get("fault_injector"))
    return service, reference


def assert_matches_reference(service, reference):
    served = by_id(service)
    assert set(served) == set(reference)
    for request_id, want in reference.items():
        have = served[request_id]
        assert (have.status, have.attempts) == (want.status, want.attempts)
        assert have.level_measured == want.level
        assert have.capacitance_pf == want.capacitance_pf


def test_batched_fleet_equals_reference_replay():
    """The whole point: same seeds, same answers as the per-request
    module behaviours, to the bit."""
    scenario = Scenario(
        seed=7,
        tank_levels=tuple((f"t{i % 3}", 0.1 + 0.08 * i) for i in range(10)),
    )
    service, reference = serve_and_replay(scenario)
    assert all(r.ok for r in service.responses())
    assert max(r.batch_size for r in service.responses()) > 1
    assert_matches_reference(service, reference)


def test_per_request_mode_runs_the_vector_engine_bit_exactly():
    """Per-request serving is a batch of one on the same kernels, with
    responses identical to the reference replay."""
    scenario = Scenario(
        seed=7,
        tank_levels=tuple((f"t{i % 2}", 0.2 + 0.1 * i) for i in range(6)),
        max_batch=1,
    )
    service, reference = serve_and_replay(scenario)
    assert {r.batch_size for r in service.responses()} == {1}
    assert_matches_reference(service, reference)


def test_engine_validation():
    """The fleet has one engine; the ``engine`` keyword accepts only it."""
    for engine in ("scalar", "simd"):
        with pytest.raises(ValueError, match="engine must be 'vector'"):
            FleetService(workers=1, engine=engine)
    assert FleetService(workers=1, engine="vector").workers


def test_snapshot_reports_engine_stage_times_and_kernel_cache():
    for max_batch in (4, 1):
        service = run_service(
            synthetic_load(6, n_tanks=2), workers=1, max_batch=max_batch
        )
        snap = service.metrics_snapshot()
        assert "engine" not in snap["service"]
        assert "kernel_cache" in snap
        for stage in ("frontend", "amp_phase", "capacity", "filter"):
            hist = snap["histograms"][f"stage_{stage}_s"]
            assert hist["count"] > 0
            assert hist["p50"] >= 0.0


def test_per_request_mode_also_times_stages():
    service = run_service(synthetic_load(4, n_tanks=2), workers=1, max_batch=1)
    snap = service.metrics_snapshot()
    for stage in ("frontend", "amp_phase", "capacity", "filter"):
        assert snap["histograms"][f"stage_{stage}_s"]["count"] > 0


def test_counter_mode_sweeps_match_the_reference():
    """Counter-mode injection keeps faulted requests *in* the batch: they
    retry as extra kernel lanes, match the reference replay of the same
    fault schedule, and never touch the broker's requeue path."""
    scenario = Scenario(
        seed=9,
        tank_levels=tuple((f"t{i:02d}", 0.05 + 0.07 * i) for i in range(12)),
        max_batch=6,
    )
    service, reference = serve_and_replay(
        scenario, fault_injector=FaultInjector(0.4, seed=3, retry_rate=0.2)
    )
    assert_matches_reference(service, reference)
    assert any(r.attempts > 1 for r in reference.values())
    # Every retry happened inside its batch — none via the broker.
    assert service.metrics.counter("retries_in_batch") > 0
    assert service.metrics.counter("retries_in_batch") == service.metrics.counter(
        "requests_retried"
    )


def test_blocking_workers_do_not_spin():
    """Satellite 1: with the condition-variable default, idle workers wake
    only on work arrival or shutdown — not thousands of empty polls."""
    service = run_service(
        synthetic_load(8, n_tanks=2), workers=2, max_batch=4, seed=1
    )
    # Each worker may see a handful of spurious wakeups (batch races,
    # close notification) but nothing like a poll loop's idle churn.
    assert service.metrics.counter("worker_idle_wakeups") <= 16
