"""Tests for the gate-level UART transmitter, plus smoke tests running
every example's main()."""

import runpy
from pathlib import Path

import pytest

from repro.ip.uart_gates import FRAME_BITS, build_uart_tx
from repro.netlist.logic import FunctionalNetlist
from repro.sim.netlist_sim import NetlistSimulator

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def _transmit(byte: int, cycles: int = 16):
    fn = FunctionalNetlist("uart")
    data = [fn.input(f"d{i}") for i in range(8)]
    load = fn.input("load")
    tx, busy = build_uart_tx(fn, "u", data, load)
    sim = NetlistSimulator(fn)
    for i in range(8):
        sim.drive(f"d{i}", lambda _c, k=i: (byte >> k) & 1)
    sim.drive("load", lambda c: 1 if c == 0 else 0)
    line = []
    busy_trace = []
    for _ in range(cycles):
        sim.step()
        line.append(sim.values[tx])
        busy_trace.append(sim.values[busy])
    return line, busy_trace


class TestUartTxGates:
    def test_frame_structure(self):
        line, busy = _transmit(0x55)
        # Start bit, 8 data bits LSB first, stop bit, then idle high.
        assert line[0] == 0
        assert line[1:9] == [1, 0, 1, 0, 1, 0, 1, 0]
        assert line[9] == 1
        assert all(bit == 1 for bit in line[10:])

    def test_various_bytes(self):
        for byte in (0x00, 0xFF, 0xA3, 0x01, 0x80):
            line, _busy = _transmit(byte)
            data_bits = line[1:9]
            received = sum(bit << i for i, bit in enumerate(data_bits))
            assert received == byte, hex(byte)
            assert line[0] == 0 and line[9] == 1

    def test_busy_covers_the_frame(self):
        _line, busy = _transmit(0x42)
        assert busy[:FRAME_BITS] == [1] * FRAME_BITS
        assert busy[FRAME_BITS] == 0

    def test_idle_line_is_high(self):
        fn = FunctionalNetlist("uart")
        data = [fn.input(f"d{i}") for i in range(8)]
        load = fn.input("load")
        tx, busy = build_uart_tx(fn, "u", data, load)
        sim = NetlistSimulator(fn)
        sim.run(5)
        assert sim.values[tx] == 1
        assert sim.values[busy] == 0

    def test_wrong_width_rejected(self):
        fn = FunctionalNetlist("uart")
        with pytest.raises(ValueError, match="8 data bits"):
            build_uart_tx(fn, "u", ["a"], "load")

    def test_mux2_primitive(self):
        fn = FunctionalNetlist("m")
        for net in ("s", "a", "b"):
            fn.input(net)
        mux = fn.mux2("y", "s", "a", "b")
        assert mux.evaluate({"s": 1, "a": 1, "b": 0}) == 1
        assert mux.evaluate({"s": 1, "a": 0, "b": 1}) == 0
        assert mux.evaluate({"s": 0, "a": 1, "b": 0}) == 0
        assert mux.evaluate({"s": 0, "a": 0, "b": 1}) == 1


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(example, capsys, monkeypatch):
    """Every shipped example executes end to end, with the command line
    it gets when run without arguments (not pytest's own)."""
    monkeypatch.setattr("sys.argv", [str(example)])
    runpy.run_path(str(example), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100  # produced real output