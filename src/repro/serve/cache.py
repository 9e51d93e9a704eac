"""LRU artifact cache for implementation-time products.

Partial bitstreams and placed-and-routed slot implementations are pure
functions of (module, device, slot): every worker of a homogeneous fleet
would regenerate byte-identical artifacts.  This cache shares them.  Two
integration points:

* :class:`CachingBitstreamGenerator` drops into
  :class:`repro.reconfig.controller.ReconfigController` (via the
  ``generator_factory`` seam on :class:`repro.app.system.FpgaReconfigSystem`)
  and memoizes :meth:`partial_for_region` per (module, device, columns).
* :func:`cached_slot_implementation` memoizes the
  :func:`repro.par.slot_impl.implement_module_in_slot` flow.  The cached
  copy is held as a :mod:`repro.par.checkpoint` dict — the bit-exact
  serialised form — and rehydrated per hit, so no caller can mutate the
  shared artifact.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Tuple

from repro.fabric.bitstream import Bitstream, BitstreamGenerator
from repro.fabric.device import DeviceSpec
from repro.fabric.grid import Region
from repro.netlist.netlist import Netlist
from repro.par.checkpoint import design_from_dict, design_to_dict
from repro.par.placer import PlacerOptions
from repro.par.slot_impl import SlotImplementation, implement_module_in_slot
from repro.reconfig.slots import Floorplan


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ArtifactCache:
    """A thread-safe LRU cache for implementation artifacts.

    Keys are arbitrary hashables (conventionally tuples starting with an
    artifact kind); values are opaque.  ``get_or_build`` is the main
    entry point: it runs ``builder`` only on a miss.
    """

    def __init__(self, capacity: int = 64, tracer=None):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()
        #: Optional :class:`repro.trace.Tracer`; when enabled, every miss
        #: build is emitted as an ``artifact_build`` span (into the
        #: current batch segment, or the tracer's runtime trace for
        #: builds outside any batch, e.g. fleet construction).
        self.tracer = tracer

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """Look up a key, refreshing its recency; None on miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
            return None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the least recently used one
        beyond capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached artifact, building (and caching) it on miss.

        The builder runs outside the cache lock: concurrent misses on the
        same key may build twice, but never deadlock or block unrelated
        lookups on a slow build — the classic cache-stampede trade, taken
        towards availability.
        """
        value = self.get(key)
        if value is None:
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                t0 = tracer.clock()
                value = builder()
                kind = key[0] if isinstance(key, tuple) and key else "artifact"
                tracer.emit(
                    "artifact_build", t0, tracer.clock(), kind=str(kind), key=repr(key)
                )
            else:
                value = builder()
            self.put(key, value)
        return value

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "evictions": self.stats.evictions,
                "hit_rate": self.stats.hit_rate,
            }


def bitstream_key(module: str, device: DeviceSpec, region: Region) -> Tuple:
    """Cache key of a partial bitstream: identity of its column span."""
    return ("bitstream", module, device.name, region.x_min, region.x_max)


def slot_impl_key(module: str, device: DeviceSpec, slot_index: int) -> Tuple:
    return ("slot-impl", module, device.name, slot_index)


class CachingBitstreamGenerator(BitstreamGenerator):
    """A :class:`BitstreamGenerator` whose partial bitstreams are served
    from a shared :class:`ArtifactCache`.

    A :class:`Bitstream` is immutable, so every hit returns the one shared
    instance.
    """

    def __init__(self, device: DeviceSpec, cache: ArtifactCache):
        super().__init__(device)
        self.cache = cache

    def partial_for_region(self, region: Region, module_name: str) -> Bitstream:
        key = bitstream_key(module_name, self.device, region)
        return self.cache.get_or_build(
            key, lambda: super(CachingBitstreamGenerator, self).partial_for_region(region, module_name)
        )


def cached_slot_implementation(
    cache: ArtifactCache,
    netlist: Netlist,
    floorplan: Floorplan,
    slot_index: int = 0,
    placer_options: Optional[PlacerOptions] = None,
) -> SlotImplementation:
    """Memoized :func:`repro.par.slot_impl.implement_module_in_slot`.

    On a miss the full place-and-route flow runs and the result is cached
    as its checkpoint dict; on a hit the design is rehydrated from the
    checkpoint (bit-exact round trip, fresh object graph).
    """
    key = slot_impl_key(netlist.name, floorplan.device, slot_index)

    def build() -> dict:
        impl = implement_module_in_slot(
            netlist, floorplan, slot_index, placer_options=placer_options
        )
        return {
            "design": design_to_dict(impl.design),
            "anchor_count": impl.anchor_count,
            "routing_legal": impl.routing_legal,
        }

    entry = cache.get_or_build(key, build)
    return SlotImplementation(
        design=design_from_dict(entry["design"]),
        anchor_count=entry["anchor_count"],
        routing_legal=entry["routing_legal"],
    )
