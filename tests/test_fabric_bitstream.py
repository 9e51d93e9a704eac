"""Tests for the frame-based bitstream model."""

import pytest

from repro.fabric.bitstream import (
    SYNC_WORD,
    Bitstream,
    BitstreamGenerator,
    Frame,
    parse_type1_header,
    _type1_header,
)
from repro.fabric.device import FRAMES_PER_CLB_COLUMN, get_device
from repro.fabric.grid import Grid, Region


@pytest.fixture
def dev():
    return get_device("XC3S400")


@pytest.fixture
def gen(dev):
    return BitstreamGenerator(dev)


class TestPackets:
    def test_header_roundtrip(self):
        word = _type1_header(0x2, 85)
        assert parse_type1_header(word) == (0x2, 85)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="type-1"):
            parse_type1_header(0xDEADBEEF)

    def test_too_long_packet_rejected(self):
        with pytest.raises(ValueError, match="too long"):
            _type1_header(0x2, 1 << 11)


class TestPartialBitstreams:
    def test_frame_count_per_column(self, gen, dev):
        region = Grid(dev).column_region(5, 5)
        bs = gen.partial_for_region(region, "mod")
        assert bs.frame_count == FRAMES_PER_CLB_COLUMN
        assert bs.partial

    def test_multi_column(self, gen, dev):
        region = Grid(dev).column_region(4, 9)
        bs = gen.partial_for_region(region, "mod")
        assert bs.frame_count == 6 * FRAMES_PER_CLB_COLUMN

    def test_non_column_aligned_rejected(self, gen, dev):
        region = Region(4, 1, 9, dev.clb_rows - 1)
        with pytest.raises(ValueError, match="column aligned"):
            gen.partial_for_region(region, "mod")

    def test_size_scales_with_columns(self, gen, dev):
        grid = Grid(dev)
        small = gen.partial_for_region(grid.column_region(0, 3), "m").total_bytes
        large = gen.partial_for_region(grid.column_region(0, 7), "m").total_bytes
        assert large > 1.8 * small

    def test_deterministic_payload(self, gen, dev):
        region = Grid(dev).column_region(2, 4)
        a = gen.partial_for_region(region, "amp_phase").to_bytes()
        b = gen.partial_for_region(region, "amp_phase").to_bytes()
        assert a == b

    def test_different_modules_differ(self, gen, dev):
        region = Grid(dev).column_region(2, 4)
        a = gen.partial_for_region(region, "amp_phase").to_bytes()
        b = gen.partial_for_region(region, "filter").to_bytes()
        assert a != b


class TestSerialisation:
    def test_roundtrip(self, gen, dev):
        region = Grid(dev).column_region(10, 14)
        bs = gen.partial_for_region(region, "mod")
        back = Bitstream.from_bytes(bs.to_bytes(), dev.name)
        assert back.frame_count == bs.frame_count
        assert [f.address for f in back.frames] == [f.address for f in bs.frames]
        assert back.frames[0].words == bs.frames[0].words
        assert bs.total_bytes == len(bs.to_bytes())
        assert gen.full("top").total_bytes == len(gen.full("top").to_bytes())

    def test_sync_word_present(self, gen, dev):
        raw = gen.partial_for_region(Grid(dev).column_region(0, 0), "m").to_bytes()
        assert SYNC_WORD.to_bytes(4, "big") in raw

    def test_crc_detects_corruption(self, gen, dev):
        raw = bytearray(gen.partial_for_region(Grid(dev).column_region(0, 0), "m").to_bytes())
        raw[40] ^= 0xFF  # flip a payload byte
        with pytest.raises(ValueError, match="CRC"):
            Bitstream.from_bytes(bytes(raw))

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError, match="word aligned"):
            Bitstream.from_bytes(b"\x00" * 7)

    def test_missing_sync_rejected(self):
        with pytest.raises(ValueError, match="sync"):
            Bitstream.from_bytes(b"\x00" * 16)


class TestFullBitstream:
    def test_full_covers_frame_count(self, gen, dev):
        bs = gen.full("top")
        assert bs.frame_count == dev.frame_count
        assert not bs.partial

    def test_full_size_near_datasheet(self, gen, dev):
        """The full-device image should be close to the DS099 config size."""
        bs = gen.full("top")
        ratio = bs.payload_bytes / dev.config_bytes
        assert 0.9 < ratio < 1.2

    def test_partial_much_smaller_than_full(self, gen, dev):
        """The point of partial reconfiguration: a slot's bitstream is a
        fraction of the device's."""
        full = gen.full("top").total_bytes
        slot = gen.partial_for_region(Grid(dev).column_region(8, 27), "m").total_bytes
        assert slot < 0.75 * full
