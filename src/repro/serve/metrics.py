"""Cheap service metrics: counters and reservoir histograms.

Deliberately minimal — no external dependencies, one lock per registry,
and a ``snapshot()`` that returns plain dicts so the CLI, benchmarks and
tests can assert on it directly.  The histogram keeps a bounded reservoir
(uniform Vitter's-R sampling once full), which is plenty for p50/p95 over
the workloads the benchmarks drive.
"""

from __future__ import annotations

import math
import random
import threading
from typing import Dict, Iterable, List, Optional, Sequence


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be non-negative, got {amount}")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that can move both ways (queue depth, joules, ...)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def add(self, amount: float) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bounded-reservoir histogram with percentile queries.

    Keeps the first ``reservoir`` observations verbatim; afterwards each
    new observation replaces a uniformly random slot, so the reservoir
    stays an unbiased sample of everything observed.
    """

    def __init__(self, reservoir: int = 2048, seed: int = 0):
        if reservoir <= 0:
            raise ValueError(f"reservoir size must be positive, got {reservoir}")
        self._samples: List[float] = []
        self._reservoir = reservoir
        self._rng = random.Random(seed)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._samples) < self._reservoir:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._reservoir:
                self._samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile ``p`` in [0, 100] of the sample.

        Raises
        ------
        ValueError
            If ``p`` is out of range or nothing was observed.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            raise ValueError("percentile of an empty histogram")
        ordered = sorted(self._samples)
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def percentiles(self, ps: Sequence[float] = (50.0, 95.0, 99.0, 99.9)) -> Dict[str, Optional[float]]:
        """Tail-latency digest: ``{"p50": ..., "p99": ..., "p999": ...}``
        with the key built from the percentile's digits (99.9 → ``p999``).
        Unlike :meth:`percentile`, an empty histogram answers ``None``
        per key instead of raising — this is the loadgen v2 reporting
        surface, and a shape that shed everything still needs a row."""
        keys = ["p" + f"{p:g}".replace(".", "") for p in ps]
        if not self._samples:
            return {key: None for key in keys}
        return {key: self.percentile(p) for key, p in zip(keys, ps)}

    def summary(self) -> Dict[str, float]:
        """Plain-dict digest; one fixed shape whether or not anything was
        observed, so snapshot consumers can index p50/p95 unconditionally."""
        if not self.count:
            return {
                "count": 0,
                "mean": 0.0,
                "min": None,
                "max": None,
                "p50": None,
                "p95": None,
            }
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
        }

    # ------------------------------------------------------------- merging

    def state(self) -> dict:
        """JSON-serializable full state (exact counts plus the reservoir),
        the unit cross-process aggregation ships over the wire.  Unlike
        :meth:`summary`, a histogram rebuilt from a state can still answer
        percentile queries and be merged with its siblings."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "reservoir": self._reservoir,
            "samples": list(self._samples),
        }

    @classmethod
    def from_state(cls, state: dict, seed: int = 0) -> "Histogram":
        """Rebuild a histogram from :meth:`state` output.

        Raises
        ------
        ValueError
            When the state's sample list is larger than its reservoir or
            claims samples it never observed.
        """
        reservoir = int(state.get("reservoir", 2048))
        samples = list(state.get("samples", ()))
        count = int(state.get("count", 0))
        if len(samples) > reservoir:
            raise ValueError(
                f"state has {len(samples)} samples for a reservoir of {reservoir}"
            )
        if count < len(samples):
            raise ValueError(f"state claims {count} observations but holds {len(samples)}")
        hist = cls(reservoir=reservoir, seed=seed)
        hist.count = count
        hist.total = float(state.get("total", 0.0))
        hist.min = state.get("min")
        hist.max = state.get("max")
        hist._samples = samples
        return hist

    @classmethod
    def merge(cls, states: Iterable[dict], reservoir: int = 2048, seed: int = 0) -> "Histogram":
        """Merge histogram states (from :meth:`state`) into one histogram.

        ``count``/``total``/``min``/``max`` merge exactly.  The merged
        reservoir is exact (a plain concatenation) while the combined
        samples fit; beyond that it is resampled with each source weighted
        by its *observation count* — not its reservoir length — so a shard
        that observed 10x the traffic contributes 10x the samples, which
        keeps the merged reservoir an (approximately) unbiased sample of
        the union stream.  Deterministic for a given ``seed`` and state
        order.  Empty states merge to an empty histogram whose
        :meth:`summary` keeps the fixed no-observation shape.
        """
        sources = [s for s in states if int(s.get("count", 0)) > 0]
        merged = cls(reservoir=reservoir, seed=seed)
        if not sources:
            return merged
        merged.count = sum(int(s["count"]) for s in sources)
        merged.total = sum(float(s.get("total", 0.0)) for s in sources)
        mins = [s["min"] for s in sources if s.get("min") is not None]
        maxes = [s["max"] for s in sources if s.get("max") is not None]
        merged.min = min(mins) if mins else None
        merged.max = max(maxes) if maxes else None
        pools = [list(s.get("samples", ())) for s in sources]
        combined = [v for pool in pools for v in pool]
        if len(combined) <= reservoir:
            merged._samples = combined
            return merged
        rng = random.Random(seed)
        weights = [int(s["count"]) for s in sources]
        total_weight = sum(weights)
        cumulative = []
        acc = 0
        for w in weights:
            acc += w
            cumulative.append(acc)
        samples: List[float] = []
        for _ in range(reservoir):
            pick = rng.randrange(total_weight)
            source = 0
            while cumulative[source] <= pick:
                source += 1
            pool = pools[source]
            samples.append(pool[rng.randrange(len(pool))])
        merged._samples = samples
        return merged


class Metrics:
    """A named registry of counters, gauges and histograms.

    All mutation goes through the registry lock so worker threads can
    share one instance.  A counter, gauge or histogram is created the
    first time its name is used and looked up on every later call.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._entry(self._counters, name, Counter).inc(amount)

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self._entry(self._gauges, name, Gauge).add(amount)

    def set(self, name: str, value: float) -> None:
        with self._lock:
            self._entry(self._gauges, name, Gauge).set(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self._entry(self._histograms, name, Histogram).observe(value)

    @staticmethod
    def _entry(table: dict, name: str, factory):
        """The table's object for ``name``, built on its first use only."""
        entry = table.get(name)
        if entry is None:
            entry = table[name] = factory()
        return entry

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            c = self._counters.get(name)
            return c.value if c else 0

    def gauge(self, name: str) -> float:
        with self._lock:
            g = self._gauges.get(name)
            return g.value if g else 0.0

    def snapshot(self, include_reservoirs: bool = False) -> dict:
        """Plain-dict view of everything recorded so far.

        ``include_reservoirs=True`` additionally emits a
        ``histogram_states`` section (full :meth:`Histogram.state` per
        histogram) so a remote aggregator can merge percentile reservoirs
        with :meth:`merge_snapshots` instead of guessing from summaries.
        """
        with self._lock:
            snap = {
                "counters": {name: c.value for name, c in sorted(self._counters.items())},
                "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
                "histograms": {
                    name: h.summary() for name, h in sorted(self._histograms.items())
                },
            }
            if include_reservoirs:
                snap["histogram_states"] = {
                    name: h.state() for name, h in sorted(self._histograms.items())
                }
            return snap

    @staticmethod
    def merge_snapshots(snapshots: Sequence[dict], seed: int = 0) -> dict:
        """Merge metric snapshots (e.g. one per shard) into one snapshot.

        Counters and gauges sum per name (every counter is a total and the
        gauges this runtime keeps — joules, device seconds — are additive
        across shards).  Histograms merge through
        :meth:`Histogram.merge` when the snapshots carry
        ``histogram_states``; a name lacking states in *any* source falls
        back to a summary-level combine (exact count/mean/min/max,
        ``None`` percentiles — quantiles cannot be recovered from
        summaries alone, and pretending otherwise would be worse than
        honesty).  Every histogram that degraded this way is listed in
        the merged snapshot's top-level ``merge_degraded`` key (absent
        when the merge was lossless), so a reader knows its percentiles
        were dropped rather than silently never existed.  The merged
        snapshot otherwise keeps the plain shape, so existing renderers
        work on it unchanged.
        """
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        for snap in snapshots:
            for name, value in snap.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in snap.get("gauges", {}).items():
                gauges[name] = gauges.get(name, 0.0) + value
        names: Dict[str, None] = {}
        for snap in snapshots:
            for name in snap.get("histograms", {}):
                names.setdefault(name)
        histograms: Dict[str, dict] = {}
        states: Dict[str, dict] = {}
        degraded: List[str] = []
        for name in names:
            with_hist = [s for s in snapshots if name in s.get("histograms", {})]
            if all(name in s.get("histogram_states", {}) for s in with_hist):
                merged = Histogram.merge(
                    [s["histogram_states"][name] for s in with_hist], seed=seed
                )
                histograms[name] = merged.summary()
                states[name] = merged.state()
                continue
            summaries = [
                s["histograms"][name] for s in with_hist if s["histograms"][name]["count"]
            ]
            count = sum(s["count"] for s in summaries)
            if not count:
                histograms[name] = dict(Histogram().summary())
                continue
            degraded.append(name)
            histograms[name] = {
                "count": count,
                "mean": sum(s["mean"] * s["count"] for s in summaries) / count,
                "min": min(s["min"] for s in summaries),
                "max": max(s["max"] for s in summaries),
                "p50": None,
                "p95": None,
            }
        merged_snap = {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }
        if states:
            merged_snap["histogram_states"] = dict(sorted(states.items()))
        if degraded:
            merged_snap["merge_degraded"] = sorted(degraded)
        return merged_snap
