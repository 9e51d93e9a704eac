"""Property-based tests of the counter-based fault RNG.

The in-batch retry sweeps and the mixed faulty/clean oracle both stand
on one claim: every fault draw is a pure function
of ``(seed, request_id, attempt)`` — independent of call order, batch
composition, interleaving and engine.  These tests state that claim as
properties and let hypothesis hunt for a composition that breaks it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import MeasurementRequest
from repro.serve.batching import STANDARD_PIPELINE, FaultInjector
from repro.serve.faultrng import CounterRng

ids = st.integers(min_value=0, max_value=2**31)
seeds = st.integers(min_value=0, max_value=2**31)
attempts = st.integers(min_value=1, max_value=6)


def _request(request_id, n_attempts=1):
    request = MeasurementRequest(
        request_id=request_id,
        tank_id=f"tank-{request_id % 5:03d}",
        level=0.5,
        pipeline=STANDARD_PIPELINE,
    )
    request.attempts = n_attempts
    return request


# ----------------------------------------------------------- CounterRng


@given(seed=seeds, request_id=ids, attempt=attempts)
@settings(max_examples=200, deadline=None)
def test_uniform_is_pure_and_in_unit_interval(seed, request_id, attempt):
    rng = CounterRng(seed)
    u = rng.uniform("strike", request_id, attempt)
    assert 0.0 <= u < 1.0
    # Pure: a fresh instance over the same key reproduces the draw.
    assert CounterRng(seed).uniform("strike", request_id, attempt) == u


@given(seed=seeds, request_id=ids, attempt=attempts, n=st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_randbelow_range_and_purity(seed, request_id, attempt, n):
    rng = CounterRng(seed)
    value = rng.randbelow(n, "stage", request_id, attempt)
    assert 0 <= value < n
    assert CounterRng(seed).randbelow(n, "stage", request_id, attempt) == value


def test_randbelow_rejects_non_positive_bounds():
    rng = CounterRng(0)
    with pytest.raises(ValueError):
        rng.randbelow(0, "stage", 1, 1)
    with pytest.raises(ValueError):
        rng.randbelow(-3, "stage", 1, 1)


@given(seed=seeds, request_id=ids, attempt=attempts)
@settings(max_examples=100, deadline=None)
def test_labels_are_domain_separated(seed, request_id, attempt):
    rng = CounterRng(seed)
    assert rng.digest("strike", request_id, attempt) != rng.digest(
        "stage", request_id, attempt
    )


@given(seed=seeds, request_id=ids, attempt=attempts, k=st.integers(1, 16))
@settings(max_examples=100, deadline=None)
def test_stream_replays_identically(seed, request_id, attempt, k):
    rng = CounterRng(seed)
    first = [rng.stream("burst", request_id, attempt).random() for _ in range(k)]
    again = [rng.stream("burst", request_id, attempt).random() for _ in range(k)]
    assert first == again
    assert len(set(first)) == 1  # each stream restarts from the same key


# -------------------------------------------------------- FaultInjector


@given(
    seed=seeds,
    rate=st.floats(0.0, 1.0),
    retry_rate=st.floats(0.0, 1.0),
    request_id=ids,
    attempt=attempts,
)
@settings(max_examples=200, deadline=None)
def test_predict_stage_range_and_purity(seed, rate, retry_rate, request_id, attempt):
    injector = FaultInjector(rate, seed=seed, retry_rate=retry_rate)
    stage = injector.predict_stage(request_id, attempt, len(STANDARD_PIPELINE))
    assert stage is None or 0 <= stage < len(STANDARD_PIPELINE)
    # predict consumes nothing: asking again (or about other requests
    # in between) never changes the answer.
    injector.predict_stage(request_id + 1, attempt, len(STANDARD_PIPELINE))
    assert injector.predict_stage(request_id, attempt, len(STANDARD_PIPELINE)) == stage


@given(
    seed=seeds,
    rate=st.floats(0.05, 1.0),
    data=st.lists(st.tuples(ids, attempts), min_size=2, max_size=12, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_schedule_is_independent_of_draw_order(seed, rate, data):
    """The whole-fleet fault schedule is a set, not a sequence: two
    injectors asked about the same (request, attempt) keys in different
    orders agree on every draw."""
    forward = FaultInjector(rate, seed=seed, retry_rate=rate / 2)
    backward = FaultInjector(rate, seed=seed, retry_rate=rate / 2)
    schedule = {
        (rid, att): forward.fault_stage(_request(rid, att)) for rid, att in data
    }
    for rid, att in reversed(data):
        assert backward.fault_stage(_request(rid, att)) == schedule[(rid, att)]
    assert forward.fired == backward.fired


@given(seed=seeds, data=st.lists(st.tuples(ids, attempts), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_scrub_streams_are_independent_between_events(seed, data):
    """Each fault event's burst draws depend only on its own key, not on
    how many other scrub events ran before it."""
    injector = FaultInjector(1.0, seed=seed)
    expected = {}
    for rid, att in data:
        expected[(rid, att)] = [
            injector.scrub_rng(_request(rid, att)).randrange(1 << 20)
            for _ in range(3)
        ]
    shuffled = list(data)
    random.Random(seed).shuffle(shuffled)
    for rid, att in shuffled:
        draws = [
            injector.scrub_rng(_request(rid, att)).randrange(1 << 20)
            for _ in range(3)
        ]
        assert draws == expected[(rid, att)]


def test_predict_stage_validates_stage_count():
    injector = FaultInjector(0.5)
    with pytest.raises(ValueError):
        injector.predict_stage(0, 1, 0)


@given(seed=seeds)
@settings(max_examples=50, deadline=None)
def test_counter_strike_rate_tracks_configured_rate(seed):
    """Sanity on the digest-to-uniform mapping: over many keys the
    realized first-attempt strike fraction lands near ``rate``."""
    injector = FaultInjector(0.3, seed=seed)
    hits = sum(
        injector.predict_stage(rid, 1, len(STANDARD_PIPELINE)) is not None
        for rid in range(400)
    )
    assert 0.2 < hits / 400 < 0.4
