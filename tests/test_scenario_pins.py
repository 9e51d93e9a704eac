"""Pins every scenario generator's output for seeds 0-499.

The golden traces freeze only a few canonical seeds; these digests pin
what each ``generate_*`` draws for every other seed, so a refactor of the
scenario model that changes one seed's requests, circuit, batch size,
noise, thermal network or drift rates fails here.  Each digest is a
sha256 over a canonical text form built only from public members:
``requests()`` fields, ``circuit`` floats as ``float.hex``, ``max_batch``,
``noise_rms``, the thermal governor's parameters and the drift rates.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.scenarios import (
    generate_drift_scenario,
    generate_priority_scenario,
    generate_thermal_scenario,
)
from repro.verifylab import (
    campaign_scenario,
    generate_fault_scenario,
    generate_scenario,
)

SEEDS = range(500)


def _hex(value) -> str:
    return float(value).hex() if isinstance(value, float) else repr(value)


def _canonical(scenario) -> str:
    circuit = scenario.circuit
    parts = [
        "|".join(
            f"{r.tank_id},{r.level.hex()},{r.priority},{r.kind},{r.max_attempts}"
            for r in scenario.requests()
        ),
        ",".join(
            _hex(v)
            for v in (
                circuit.tank.c_empty_pf,
                circuit.tank.c_full_pf,
                circuit.tank.r_loss_ohm,
                circuit.r_series_ohm,
                circuit.c_ref_pf,
            )
        ),
        str(scenario.max_batch),
        _hex(scenario.noise_rms),
    ]
    if hasattr(scenario, "governor"):
        governor = scenario.governor()
        parts.append(",".join(_hex(v) for v in dataclasses.astuple(governor.params)))
        parts.append(
            ",".join(_hex(v) for v in dataclasses.astuple(governor.derating))
        )
    if hasattr(scenario, "drift_rates"):
        parts.append(",".join(f"{t}={_hex(r)}" for t, r in scenario.drift_rates))
    return ";".join(parts)


def _digest(make) -> str:
    sha = hashlib.sha256()
    for seed in SEEDS:
        sha.update(_canonical(make(seed)).encode())
        sha.update(b"\n")
    return sha.hexdigest()


#: name -> (generator of one seed, sha256 of seeds 0-499).
PINS = {
    "plain": (
        generate_scenario,
        "9ec889dfae7a48608b7c4e59ebbba6aa3242d5fcaa2c19863b7dcae47f8a2478",
    ),
    "faults": (
        generate_fault_scenario,
        "50c0f115701ccbea72164545afbf2573c24c2401202dff4b41175e3ca52085f4",
    ),
    "drift": (
        generate_drift_scenario,
        "356cafc0901ad19b130ec3a3e01fcbbef95bf088d9350c36229d2f5d75faf3be",
    ),
    "thermal": (
        generate_thermal_scenario,
        "8ce8e13983ff165721e2f733546a7a8239e66d8b27e9779812f8fc9d5b61deda",
    ),
    "priority": (
        generate_priority_scenario,
        "8732e71528cb04cbb8919684a07db1758272d9d0080479a5360a47bf28cf6a3f",
    ),
    "campaign": (
        lambda seed: campaign_scenario(1 + seed % 40, seed),
        "571bf90548c69f30edb84503d5b255550a230f681696b117c3faa43fbb67cb34",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_generator_stream_is_pinned(name):
    make, expected = PINS[name]
    assert _digest(make) == expected
