"""Reconfiguration controller.

"An internal controller (e.g. a hard/soft-core microprocessor) is required
to manage the reconfiguration process (fetching the bitstreams from an
external memory and write them to the configuration port)" — here the
controller pairs an external-flash bitstream store with a configuration
port and tracks which module currently occupies each slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fabric.bitstream import Bitstream, BitstreamGenerator
from repro.fabric.device import DeviceSpec
from repro.fabric.faults import ConfigurationMemory
from repro.reconfig.ports import ConfigPort, ConfigurationEvent
from repro.reconfig.slots import Floorplan, Slot

#: Active read power of the external bitstream flash, watts.  Shared with
#: :func:`repro.power.model.reconfiguration_energy_j` so predicted and
#: measured reconfiguration energy agree.
FLASH_READ_POWER_W = 0.015


@dataclass
class BitstreamStore:
    """External low-power memory holding the partial bitstreams.

    "Dynamic and partial hardware reconfiguration allows functions that are
    not constantly required to be stored in a low-power memory and
    configured dynamically on-demand."

    Stored images never change once written, so an image is checked (sync
    word, packet structure, CRC) once, when it enters the store, and the
    parsed, immutable :class:`Bitstream` is kept beside the raw bytes for
    every later load to use by reference.
    """

    #: Sequential read bandwidth of the flash, bytes/second (16-bit
    #: parallel NOR in page mode).
    read_bytes_per_second: float = 20_000_000.0
    _images: Dict[str, bytes] = field(default_factory=dict)
    _checked: Dict[str, Bitstream] = field(default_factory=dict)

    def store(self, name: str, image: bytes) -> Bitstream:
        """Write a serialised image and return its checked, parsed form.

        Raises
        ------
        ValueError
            If the image fails the check (no sync word, a truncated or
            malformed packet, a missing or wrong CRC); nothing is stored.
        """
        checked = Bitstream.from_bytes(image)
        self._images[name] = bytes(image)
        self._checked[name] = checked
        return checked

    def fetch(self, name: str) -> bytes:
        """Read a stored image.

        Raises
        ------
        KeyError
            If no image of that name exists.
        """
        if name not in self._images:
            known = ", ".join(sorted(self._images)) or "(none)"
            raise KeyError(f"no bitstream {name!r} in store; have: {known}")
        return self._images[name]

    def bitstream(self, name: str) -> Bitstream:
        """The checked, parsed form of a stored image (shared, immutable).

        Raises
        ------
        KeyError
            If no image of that name exists.
        """
        self.fetch(name)
        return self._checked[name]

    def fetch_time_s(self, name: str) -> float:
        return len(self.fetch(name)) / self.read_bytes_per_second

    @property
    def total_bytes(self) -> int:
        """Memory footprint of all stored images."""
        return sum(len(img) for img in self._images.values())

    def names(self) -> List[str]:
        return sorted(self._images)


@dataclass(frozen=True)
class LoadRecord:
    """One completed module load."""

    module: str
    slot: int
    fetch_time_s: float
    config: ConfigurationEvent

    @property
    def total_time_s(self) -> float:
        # Fetch and configuration overlap only trivially on the paper's
        # system (single-ported flash, blocking controller loop): the
        # controller streams flash data directly into the port, so the
        # slower of the two paths dominates.
        return max(self.fetch_time_s, self.config.duration_s)

    @property
    def energy_j(self) -> float:
        return self.config.energy_j + self.fetch_time_s * FLASH_READ_POWER_W


class ReconfigController:
    """Manages module loads into the slots of a floorplan."""

    def __init__(
        self,
        floorplan: Floorplan,
        port: ConfigPort,
        store: Optional[BitstreamStore] = None,
        generator: Optional[BitstreamGenerator] = None,
        config_memory: Optional[ConfigurationMemory] = None,
    ):
        self.floorplan = floorplan
        self.port = port
        self.store = store or BitstreamStore()
        #: Injectable so a fleet can share memoized bitstreams across
        #: controllers (see ``repro.serve.cache.CachingBitstreamGenerator``).
        self.generator = generator or BitstreamGenerator(floorplan.device)
        #: Optional live configuration-SRAM mirror: every load also writes
        #: its frames here, giving fault injection and readback scrubbing
        #: (:mod:`repro.fabric.faults`) ground truth to work against.
        self.config_memory = config_memory
        self.resident: Dict[int, Optional[str]] = {s.index: None for s in floorplan.slots}
        #: Running totals over every load, kept instead of a load history
        #: so a long-running server holds constant state.
        self.total_reconfig_time_s = 0.0
        self.total_reconfig_energy_j = 0.0

    def prepare_module(self, name: str, slot_index: int) -> Bitstream:
        """Generate and store the partial bitstream of a module targeted at
        a slot (the design-time step)."""
        slot = self.floorplan.slot(slot_index)
        bitstream = self.generator.partial_for_region(slot.region, name)
        self.store.store(self._key(name, slot_index), bitstream.to_bytes())
        return bitstream

    def load(self, name: str, slot_index: int) -> LoadRecord:
        """Reconfigure a slot with a module (the run-time step).

        A no-op returning a zero-cost record when the module is already
        resident.

        Raises
        ------
        KeyError
            If the module was never prepared for this slot.
        """
        if self.resident.get(slot_index) == name:
            event = ConfigurationEvent(self.port.name, 0, 0, 0.0, 0.0, f"cached:{name}")
            return LoadRecord(name, slot_index, 0.0, event)
        key = self._key(name, slot_index)
        bitstream = self.store.bitstream(key)
        event = self.port.configure(
            len(self.store.fetch(key)), bitstream.frame_count, f"partial:{name}"
        )
        fetch_time = self.store.fetch_time_s(key)
        if self.config_memory is not None:
            self.config_memory.load(bitstream)
        self.resident[slot_index] = name
        record = LoadRecord(name, slot_index, fetch_time, event)
        self.total_reconfig_time_s += record.total_time_s
        self.total_reconfig_energy_j += record.energy_j
        return record

    def evict(self, slot_index: int) -> None:
        """Forget what is resident in a slot, forcing the next load to
        reconfigure (e.g. after configuration memory was found corrupted).

        Raises
        ------
        KeyError
            On an unknown slot index.
        """
        if slot_index not in self.resident:
            raise KeyError(f"no slot {slot_index} in floorplan")
        self.resident[slot_index] = None

    def golden_bitstream(self, slot_index: int) -> Optional[Bitstream]:
        """The stored (uncorrupted) bitstream of the module currently
        resident in a slot — the scrubber's reference; None when empty."""
        name = self.resident.get(slot_index)
        if name is None:
            return None
        return self.store.bitstream(self._key(name, slot_index))

    @staticmethod
    def _key(name: str, slot_index: int) -> str:
        return f"{name}@slot{slot_index}"
