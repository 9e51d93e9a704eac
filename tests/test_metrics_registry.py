"""The metrics registry builds each counter, gauge and histogram once.

``Metrics`` sits on every batch's deliver path, so a call on a name that
already exists must only look the object up; building a throwaway
``Histogram`` (and its seeded ``random.Random``) per observation is pure
overhead.  The snapshot pin checks that creating objects lazily changed
no recorded value and no reservoir draw.
"""

import hashlib
import json

import pytest

from repro.serve import metrics as metrics_mod
from repro.serve.metrics import Metrics


def _counting(monkeypatch, name):
    """Replace ``metrics_mod.<name>`` by a subclass counting constructions."""
    base = getattr(metrics_mod, name)
    built = []

    class Counting(base):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(metrics_mod, name, Counting)
    return built


@pytest.mark.parametrize(
    "kind,call",
    [
        ("Histogram", lambda m, name, i: m.observe(name, float(i))),
        ("Counter", lambda m, name, i: m.inc(name)),
        ("Gauge", lambda m, name, i: m.add(name, 1.0)),
        ("Gauge", lambda m, name, i: m.set(name, float(i))),
    ],
    ids=["observe", "inc", "add", "set"],
)
def test_one_name_builds_one_object_over_many_calls(monkeypatch, kind, call):
    built = _counting(monkeypatch, kind)
    m = Metrics()
    for i in range(1000):
        call(m, "x", i)
    assert len(built) == 1
    # A second name builds a second object, and only one.
    for i in range(3):
        call(m, "y", i)
    assert len(built) == 2


def test_snapshot_of_a_fixed_call_sequence_is_pinned():
    # 5,000 observations overflow the 2,048-slot reservoir, so the pin
    # covers the seeded replacement draws as well as the summaries.
    m = Metrics()
    for i in range(5000):
        m.observe("lat_ms", (i * 7919 % 1000) / 10.0)
        if i < 100:
            m.observe("small", i / 3.0)
        m.inc("requests")
        m.inc("bytes", i % 3)
        m.add("joules", 0.125)
        m.set("depth", i % 17)
    snap = m.snapshot(include_reservoirs=True)
    assert snap["counters"] == {"bytes": 4999, "requests": 5000}
    assert snap["gauges"] == {"depth": 1, "joules": 625.0}
    assert snap["histograms"]["lat_ms"] == {
        "count": 5000,
        "mean": 49.95,
        "min": 0.0,
        "max": 99.9,
        "p50": 48.95,
        "p95": 94.36499999999998,
    }
    assert snap["histograms"]["small"]["p95"] == 31.349999999999998
    digest = hashlib.sha256(json.dumps(snap, sort_keys=True).encode()).hexdigest()
    assert digest == "ca9c3cc18f701780abfaa9ff46f62982617d5003fd81c5aa2c3a18c7353a8f2b"
