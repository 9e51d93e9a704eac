"""Configuration-memory fault injection.

The paper's introduction motivates the FPGA move with upcoming
"requirements on failure detection and recovery".  SRAM-based FPGAs are
susceptible to single-event upsets (SEUs): a particle strike flips a bit
in configuration memory, silently changing a LUT equation or a routing
switch.  This module injects such faults into the frame-based
configuration model so the detection/recovery machinery in
:mod:`repro.reconfig.readback` has something real to find.

Frames are immutable tuples shared with the bitstreams they came from:
a load stores references, and an upset replaces only the frame it flips
with a new tuple (copy-on-upset), so a stored golden image can never be
changed through the memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fabric.bitstream import Bitstream, Frame


@dataclass(frozen=True)
class InjectedFault:
    """One injected configuration upset."""

    frame_address: int
    word_index: int
    bit_index: int

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"SEU@frame {self.frame_address:#x} word {self.word_index} bit {self.bit_index}"


class ConfigurationMemory:
    """The live configuration SRAM of one device region.

    Holds the *current* frame contents (loaded from bitstreams), supports
    fault injection, and serves readback.  This is the ground truth the
    readback scrubber compares against the golden bitstream.  Each frame
    is the loaded bitstream's own ``words`` tuple until an upset flips
    one of its bits; only then is that one frame copied.
    """

    def __init__(self):
        self._frames: Dict[int, Tuple[int, ...]] = {}

    def load(self, bitstream: Bitstream) -> None:
        """Write a (partial) bitstream into configuration memory.

        Stores each frame's immutable ``words`` by reference, in one
        ``dict.update`` from the image's cached address map; nothing is
        copied.
        """
        self._frames.update(bitstream.frame_words)

    @property
    def frame_count(self) -> int:
        return len(self._frames)

    def frame(self, address: int) -> Tuple[int, ...]:
        """Read back one frame.

        Raises
        ------
        KeyError
            If the frame was never configured.
        """
        if address not in self._frames:
            raise KeyError(f"frame {address:#x} not configured")
        return self._frames[address]

    def readback(self, addresses: Optional[List[int]] = None) -> List[Frame]:
        """Read back frames (all configured ones by default)."""
        if addresses is None:
            addresses = sorted(self._frames)
        return [Frame(addr, self.frame(addr)) for addr in addresses]

    def inject_seu(self, rng: Optional[random.Random] = None) -> InjectedFault:
        """Flip one random configuration bit.

        Raises
        ------
        ValueError
            If no frames are configured yet.
        """
        if not self._frames:
            raise ValueError("cannot inject a fault into empty configuration memory")
        rng = rng or random.Random()
        address = rng.choice(sorted(self._frames))
        word_index = rng.randrange(len(self._frames[address]))
        bit_index = rng.randrange(32)
        return self.inject_at(address, word_index, bit_index)

    def inject_burst(self, size: int, rng: Optional[random.Random] = None) -> List[InjectedFault]:
        """Flip ``size`` random configuration bits (a multi-bit upset).

        Heavy-ion strikes and accumulating radiation dose upset several
        bits per event; the fault campaigns sweep this burst size as their
        intensity axis.  Bits are drawn independently, so a burst may
        revisit (and thereby revert) an earlier flip — exactly like real
        back-to-back upsets.

        Raises
        ------
        ValueError
            On a non-positive size or empty configuration memory.
        """
        if size < 1:
            raise ValueError(f"burst size must be >= 1, got {size}")
        return [self.inject_seu(rng) for _ in range(size)]

    def inject_at(self, address: int, word_index: int, bit_index: int) -> InjectedFault:
        """Flip a specific configuration bit (deterministic tests).

        Copy-on-upset: the frame is replaced by a new tuple, so the
        bitstream it was loaded from keeps its bits.

        Raises
        ------
        KeyError / IndexError / ValueError
            On invalid coordinates.
        """
        words = list(self._frames[address])
        if not 0 <= bit_index < 32:
            raise ValueError(f"bit index {bit_index} outside 0..31")
        words[word_index] ^= 1 << bit_index
        self._frames[address] = tuple(words)
        return InjectedFault(address, word_index, bit_index)

    def corrupted_frames(self, golden: Bitstream) -> List[int]:
        """Frame addresses whose content differs from a golden bitstream
        (only frames the golden image covers are compared)."""
        bad = []
        for frame in golden.frames:
            if frame.address in self._frames and self._frames[frame.address] != frame.words:
                bad.append(frame.address)
        return bad
