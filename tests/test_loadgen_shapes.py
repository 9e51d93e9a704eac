"""Loadgen v2: traffic-shape arrival schedules, tail percentiles, and
the end-to-end TCP differential oracle.

The shapes are deterministic quantile inversions, so their defining
features are directly assertable: a flash crowd concentrates mass in its
burst window, the diurnal sine peaks mid-run, the ramp's arrivals
densify toward the end — and every shape yields exactly ``n`` sorted
offsets inside ``[0, duration]``.
"""

import pytest

from repro.serve.loadgen import SHAPES, shape_arrivals
from repro.serve.metrics import Histogram


def _in_window(arrivals, lo, hi):
    return sum(1 for t in arrivals if lo <= t <= hi)


@pytest.mark.parametrize("shape", SHAPES)
def test_every_shape_is_sorted_bounded_and_complete(shape):
    arrivals = shape_arrivals(shape, 500, 10.0, seed=3)
    assert len(arrivals) == 500
    assert arrivals == sorted(arrivals)
    assert all(0.0 <= t <= 10.0 for t in arrivals)


def test_steady_is_even_and_slow_matches_it():
    """``slow`` is steady arrivals by construction — the misbehaviour is
    in the client, not the clock."""
    steady = shape_arrivals("steady", 100, 10.0)
    assert steady == shape_arrivals("slow", 100, 10.0)
    gaps = [b - a for a, b in zip(steady, steady[1:])]
    assert max(gaps) - min(gaps) < 1e-9


def test_flash_concentrates_mass_in_the_burst_window():
    arrivals = shape_arrivals(
        "flash", 1000, 10.0, flash_at=0.5, flash_width=0.08, flash_fraction=0.5
    )
    in_burst = _in_window(arrivals, 5.0 - 0.4, 5.0 + 0.4)
    # 50% burst mass + the ~8% of baseline that falls there anyway.
    assert in_burst >= 500
    outside_rate = (1000 - in_burst) / 9.2  # requests per second elsewhere
    burst_rate = in_burst / 0.8
    assert burst_rate > 5 * outside_rate


def test_diurnal_peaks_mid_run_and_troughs_at_the_edges():
    arrivals = shape_arrivals("diurnal", 1000, 10.0, diurnal_depth=0.8)
    first_tenth = _in_window(arrivals, 0.0, 1.0)
    middle_tenth = _in_window(arrivals, 4.5, 5.5)
    assert middle_tenth > 3 * first_tenth


def test_ramp_densifies_toward_the_end():
    arrivals = shape_arrivals("ramp", 1000, 10.0)
    assert _in_window(arrivals, 9.0, 10.0) > 3 * _in_window(arrivals, 0.0, 1.0)


def test_jitter_is_seeded_and_bounded():
    base = shape_arrivals("steady", 200, 10.0)
    jittered = shape_arrivals("steady", 200, 10.0, seed=5, jitter=0.4)
    assert jittered != base
    assert jittered == shape_arrivals("steady", 200, 10.0, seed=5, jitter=0.4)
    assert all(0.0 <= t <= 10.0 for t in jittered)


def test_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        shape_arrivals("tsunami", 10, 1.0)
    with pytest.raises(ValueError):
        shape_arrivals("steady", 0, 1.0)
    with pytest.raises(ValueError):
        shape_arrivals("steady", 10, 0.0)
    with pytest.raises(ValueError):
        shape_arrivals("diurnal", 10, 1.0, diurnal_depth=1.0)
    with pytest.raises(ValueError):
        shape_arrivals("flash", 10, 1.0, flash_fraction=1.5)


# ---------------------------------------------------------- percentiles


def test_histogram_percentiles_digest():
    hist = Histogram()
    for i in range(1, 1001):
        hist.observe(float(i))
    digest = hist.percentiles((50.0, 99.0, 99.9))
    assert set(digest) == {"p50", "p99", "p999"}
    assert digest["p50"] == pytest.approx(500.5)
    assert digest["p99"] == pytest.approx(990.01, rel=1e-3)
    assert digest["p999"] > digest["p99"] > digest["p50"]


def test_histogram_percentiles_empty_is_none_not_raise():
    assert Histogram().percentiles() == {
        "p50": None,
        "p95": None,
        "p99": None,
        "p999": None,
    }


# ------------------------------------------------- end-to-end TCP oracle


def test_tcp_edge_is_bit_identical_to_in_process():
    """The ISSUE's acceptance gate: N concurrent TCP clients produce
    responses bit-identical to the in-process FleetService for the same
    seeded scenarios."""
    from repro.verifylab import run_oracle

    report = run_oracle([0, 7], transport="net").to_dict()
    assert report["ok"], report["violations"]
    assert report["requests_checked"] >= 2
    assert report["seeds_checked"] == 2


def test_driver_replays_a_shape_end_to_end():
    """Loadgen v2 against a live socket: every request settles, the
    report carries reservoir-backed p99/p999, and accounting closes."""
    from repro.net import NetConfig, NetServer, run_shape
    from repro.serve.pool import FleetService

    service = FleetService(workers=2, max_batch=8, queue_capacity=128)
    service.start()
    server = NetServer(service, NetConfig()).start()
    try:
        report = run_shape(
            "127.0.0.1",
            server.port,
            shape="flash",
            n_requests=60,
            duration_s=0.5,
            n_clients=3,
            n_tanks=4,
            timeout_s=60.0,
        )
    finally:
        server.stop()
        service.shutdown()
    counts = report["counts"]
    assert counts["lost"] == 0 and not report["client_errors"]
    assert counts["ok"] + counts["expired"] + counts["failed"] + counts["rejected"] == 60
    assert report["latency_s"]["count"] == counts["ok"]
    assert report["latency_s"]["p999"] >= report["latency_s"]["p99"] > 0.0
