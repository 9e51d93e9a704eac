"""Frame-based configuration model and bitstream generation.

Spartan-3 configuration memory is organised in *frames*, the atomic unit of
(re)configuration; one CLB column is covered by a fixed number of frames.
A *partial* bitstream therefore addresses whole columns, which is why
reconfigurable regions on Spartan-3 span full device columns.

The generated bitstreams are structurally faithful — sync word, type-1
packets writing the frame address register (FAR), frame data input (FDRI)
words, and a CRC — so that :class:`repro.reconfig.controller.BitstreamStore`
can check them like real configuration logic would.  The
frame *payload* is synthetic (derived from a seeded hash of the module name),
since the actual LUT equations do not influence any quantity the paper
evaluates; what matters is that sizes and timings come out right.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fabric.device import FRAMES_PER_CLB_COLUMN, DeviceSpec
from repro.fabric.grid import Region

#: Xilinx configuration sync word, common to the whole SelectMAP family.
SYNC_WORD = 0xAA995566

#: Configuration register addresses (subset of the Spartan-3 set).
REG_CMD = 0x0
REG_FAR = 0x1
REG_FDRI = 0x2
REG_CRC = 0x3

CMD_WCFG = 0x1  # write configuration
CMD_LFRM = 0x3  # last frame / flush
CMD_DESYNC = 0xD


def _type1_header(register: int, word_count: int) -> int:
    """Build a type-1 packet header word (write opcode)."""
    if word_count >= (1 << 11):
        raise ValueError(f"type-1 packet too long ({word_count} words)")
    return (0x1 << 29) | (0x2 << 27) | ((register & 0x3FFF) << 13) | word_count


def parse_type1_header(word: int) -> tuple:
    """Decode a type-1 header into (register, word_count).

    Raises
    ------
    ValueError
        If the word is not a type-1 write header.
    """
    if (word >> 29) != 0x1 or ((word >> 27) & 0x3) != 0x2:
        raise ValueError(f"not a type-1 write header: {word:#010x}")
    return ((word >> 13) & 0x3FFF, word & 0x7FF)


@dataclass(frozen=True)
class Frame:
    """One configuration frame: its address and payload words."""

    address: int
    words: tuple

    @property
    def byte_size(self) -> int:
        return 4 * len(self.words)


@dataclass(frozen=True)
class Bitstream:
    """A full or partial configuration bitstream.

    Immutable (frames are stored as a tuple of frozen :class:`Frame`), so
    one checked instance can be shared by every load of the same image.
    """

    device_name: str
    frames: Tuple[Frame, ...]
    partial: bool
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    @cached_property
    def frame_words(self) -> Dict[int, tuple]:
        """Frame address -> payload words, built on first use and kept:
        the image is immutable, so every load of it can share one map."""
        return {frame.address: frame.words for frame in self.frames}

    @property
    def payload_bytes(self) -> int:
        """Bytes of frame data (excluding packet overhead)."""
        return sum(frame.byte_size for frame in self.frames)

    @property
    def total_bytes(self) -> int:
        """Total on-the-wire size: payload plus packet/command overhead
        (``len(self.to_bytes())``, counted without serialising): ten
        framing words (dummy, sync, WCFG, LFRM, CRC and DESYNC packets)
        plus a FAR packet and an FDRI header per frame."""
        return 4 * (10 + sum(3 + len(frame.words) for frame in self.frames))

    def to_bytes(self) -> bytes:
        """Serialise to the on-the-wire word stream."""
        words: List[int] = [0xFFFFFFFF, SYNC_WORD]
        words.append(_type1_header(REG_CMD, 1))
        words.append(CMD_WCFG)
        for frame in self.frames:
            words.append(_type1_header(REG_FAR, 1))
            words.append(frame.address)
            words.append(_type1_header(REG_FDRI, len(frame.words)))
            words.extend(frame.words)
        words.append(_type1_header(REG_CMD, 1))
        words.append(CMD_LFRM)
        crc = zlib.crc32(struct.pack(f">{len(words)}I", *words)) & 0xFFFFFFFF
        words.append(_type1_header(REG_CRC, 1))
        words.append(crc)
        words.append(_type1_header(REG_CMD, 1))
        words.append(CMD_DESYNC)
        return struct.pack(f">{len(words)}I", *words)

    @classmethod
    def from_bytes(cls, raw: bytes, device_name: str = "?") -> "Bitstream":
        """Parse a serialised bitstream back into frames, verifying the CRC.

        Raises
        ------
        ValueError
            On malformed packets or CRC mismatch.
        """
        if len(raw) % 4:
            raise ValueError("bitstream length not word aligned")
        words = list(struct.unpack(f">{len(raw) // 4}I", raw))
        try:
            sync_at = words.index(SYNC_WORD)
        except ValueError:
            raise ValueError("sync word not found") from None
        i = sync_at + 1
        frames: List[Frame] = []
        far: Optional[int] = None
        crc_ok = False
        while i < len(words):
            reg, count = parse_type1_header(words[i])
            payload = words[i + 1 : i + 1 + count]
            if len(payload) != count:
                raise ValueError("truncated packet")
            if reg == REG_FAR:
                far = payload[0]
            elif reg == REG_FDRI:
                if far is None:
                    raise ValueError("FDRI write before FAR set")
                frames.append(Frame(far, tuple(payload)))
                far = None
            elif reg == REG_CRC:
                expect = zlib.crc32(raw[: 4 * i]) & 0xFFFFFFFF
                if payload[0] != expect:
                    raise ValueError(
                        f"CRC mismatch: stream {payload[0]:#010x} != computed {expect:#010x}"
                    )
                crc_ok = True
            i += 1 + count
        if not crc_ok:
            raise ValueError("bitstream carries no CRC record")
        return cls(device_name=device_name, frames=frames, partial=True)


class BitstreamGenerator:
    """Produces full and partial bitstreams for one device."""

    def __init__(self, device: DeviceSpec):
        self.device = device

    @property
    def frame_words(self) -> int:
        return self.device.frame_bits // 32

    def column_frame_addresses(self, column: int) -> List[int]:
        """Frame addresses covering one CLB column (FAR encoding: column in
        the upper bits, minor frame index in the lower)."""
        if not 0 <= column < self.device.clb_columns:
            raise ValueError(f"column {column} outside {self.device.name}")
        return [(column << 8) | minor for minor in range(FRAMES_PER_CLB_COLUMN)]

    def _frame_payload(self, seed: str, address: int) -> tuple:
        digest = hashlib.sha256(f"{seed}:{address}".encode()).digest()
        need = self.frame_words * 4
        blob = (digest * (need // len(digest) + 1))[:need]
        return tuple(struct.unpack(f">{self.frame_words}I", blob))

    def partial_for_region(self, region: Region, module_name: str) -> Bitstream:
        """Partial bitstream reconfiguring the columns a region spans.

        Raises
        ------
        ValueError
            If the region is not column aligned (Spartan-3 frames always
            configure full columns).
        """
        if not region.is_column_aligned(self.device):
            raise ValueError(
                f"{region} is not column aligned on {self.device.name}; "
                "Spartan-3 partial bitstreams must cover full columns"
            )
        frames = [
            Frame(addr, self._frame_payload(module_name, addr))
            for column in region.columns
            for addr in self.column_frame_addresses(column)
        ]
        return Bitstream(
            device_name=self.device.name,
            frames=frames,
            partial=True,
            description=f"partial:{module_name}",
        )

    def full(self, design_name: str = "top") -> Bitstream:
        """Full-device bitstream (initial configuration)."""
        frames = [
            Frame(addr, self._frame_payload(design_name, addr))
            for column in range(self.device.clb_columns)
            for addr in self.column_frame_addresses(column)
        ]
        # IOB/BRAM/GCLK columns beyond the CLB array, addressed past the
        # last CLB column.
        extra = self.device.frame_count - len(frames)
        base = self.device.clb_columns << 8
        for k in range(max(0, extra)):
            addr = base + k
            frames.append(Frame(addr, self._frame_payload(design_name, addr)))
        return Bitstream(
            device_name=self.device.name,
            frames=frames,
            partial=False,
            description=f"full:{design_name}",
        )
