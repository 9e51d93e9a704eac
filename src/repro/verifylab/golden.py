"""Golden-trace regression: canonical seeds frozen to committed JSON.

The oracle and fuzzer check *internal* consistency (two live paths agree);
golden traces pin the numbers themselves, so a refactor that changes both
paths in lockstep — the failure mode a differential oracle is blind to —
still trips a loud diff.  Canonical seeds of every oracle family run
through the in-process serving path and their responses are snapshotted
under ``tests/golden/``; for the drift family the frozen values are the
*corrected* levels, so a silent change to the correction law (not just to
the measurement pipeline) trips the diff too.  A regression test and the
``repro verifylab golden`` CLI compare fresh runs against the committed
snapshots field by field, and each snapshot's ``scenario`` header against
the scenario's fresh ``to_dict()`` (so a header cannot go stale), with an
``--update`` mode to re-freeze after an *intentional* change.

Traces record only scheduling-independent fields (status, attempts,
level, capacitance) — batch composition and tier-reordered delivery order
may legally vary with thread timing, results may not.  Comparison uses
small absolute tolerances so a numpy point-release cannot fail CI, while
anything a code change could plausibly cause still does.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.verifylab.oracle import FAMILIES, serve_local

#: Seeds per family whose traces are committed under tests/golden/.
CANONICAL_SEEDS: Mapping[str, Sequence[int]] = {
    "plain": (11, 23, 47),
    "drift": (7, 19),
    "thermal": (7, 19),
    "priority": (7, 19),
}

#: Float drift allowed before a trace counts as diverged.  The module
#: behaviours quantize to a fixed-point grid far coarser than cross-
#: platform FFT jitter, so honest runs land well inside these bounds.
LEVEL_TOLERANCE = 1e-6
CAPACITANCE_TOLERANCE_PF = 1e-3

Pathish = Union[str, Path]


def default_golden_dir() -> Path:
    """``tests/golden`` of this checkout (callers outside the repo pass an
    explicit directory instead)."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def trace_path(directory: Pathish, family: str, seed: int) -> Path:
    if family == "plain":
        return Path(directory) / f"verifylab_seed_{seed:03d}.json"
    return Path(directory) / f"scenario_{family}_seed_{seed:03d}.json"


def build_trace(family: str, seed: int) -> dict:
    """Serve one family's canonical scenario in process; JSON-ready trace.

    Raises
    ------
    KeyError
        On an unknown family name.
    """
    spec = FAMILIES[family]
    scenario = spec.generate(seed)
    delivered, _snapshot = serve_local(scenario, spec.hooks(scenario), "fifo")
    return {
        "family": family,
        "seed": seed,
        "scenario": scenario.to_dict(),
        "responses": [
            {
                "request_id": response.request_id,
                "tank_id": response.tank_id,
                "status": response.status,
                "attempts": response.attempts,
                "level_measured": response.level_measured,
                "capacitance_pf": response.capacitance_pf,
            }
            for response in sorted(delivered, key=lambda r: r.request_id)
        ],
    }


def write_golden(
    directory: Optional[Pathish] = None,
    seeds: Mapping[str, Sequence[int]] = CANONICAL_SEEDS,
) -> List[Path]:
    """(Re)freeze golden traces; returns the written paths."""
    directory = Path(directory) if directory is not None else default_golden_dir()
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for family, family_seeds in seeds.items():
        for seed in family_seeds:
            path = trace_path(directory, family, seed)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(build_trace(family, seed), handle, indent=2, sort_keys=True)
                handle.write("\n")
            written.append(path)
    return written


def _diff_response(family: str, seed: int, expected: dict, got: dict) -> List[str]:
    drift = []
    where = f"{family} seed {seed} request {expected['request_id']}"
    for name in ("tank_id", "status", "attempts"):
        if expected[name] != got[name]:
            drift.append(
                f"{where} {name}: expected {expected[name]!r}, got {got[name]!r}"
            )
    for name, tolerance in (
        ("level_measured", LEVEL_TOLERANCE),
        ("capacitance_pf", CAPACITANCE_TOLERANCE_PF),
    ):
        want, have = expected[name], got[name]
        if (want is None) != (have is None):
            drift.append(f"{where} {name}: expected {want!r}, got {have!r}")
        elif want is not None and abs(want - have) > tolerance:
            drift.append(
                f"{where} {name}: |{have!r} - {want!r}| = "
                f"{abs(want - have):.3e} > tolerance {tolerance:.0e} "
                f"(intentional change? refresh with `repro verifylab golden --update`)"
            )
    return drift


def check_golden(
    directory: Optional[Pathish] = None,
    seeds: Mapping[str, Iterable[int]] = CANONICAL_SEEDS,
) -> List[str]:
    """Re-run the canonical seeds and diff against the committed traces.

    Returns a (possibly empty) list of human-readable drift descriptions —
    missing files, a stale ``scenario`` header (one line naming the keys
    that differ from a fresh ``scenario.to_dict()``), shape changes,
    field mismatches beyond tolerance.
    """
    directory = Path(directory) if directory is not None else default_golden_dir()
    drift: List[str] = []
    for family, family_seeds in seeds.items():
        for seed in family_seeds:
            path = trace_path(directory, family, seed)
            if not path.exists():
                drift.append(
                    f"{family} seed {seed}: no golden trace at {path} "
                    f"(create it with `repro verifylab golden --update`)"
                )
                continue
            with open(path, "r", encoding="utf-8") as handle:
                committed = json.load(handle)
            fresh = build_trace(family, seed)
            # Round-trip through JSON so tuples compare as the lists the
            # committed file holds.
            header = json.loads(json.dumps(fresh["scenario"]))
            committed_header = committed.get("scenario", {})
            stale = sorted(
                key
                for key in set(header) | set(committed_header)
                if committed_header.get(key) != header.get(key)
            )
            if stale:
                drift.append(
                    f"{family} seed {seed} scenario header: {', '.join(stale)} "
                    f"differ from the scenario's to_dict() "
                    f"(refresh with `repro verifylab golden --update`)"
                )
            expected: Dict[int, dict] = {
                r["request_id"]: r for r in committed.get("responses", [])
            }
            got: Dict[int, dict] = {r["request_id"]: r for r in fresh["responses"]}
            if set(expected) != set(got):
                drift.append(
                    f"{family} seed {seed}: response set changed "
                    f"(committed {sorted(expected)}, fresh {sorted(got)})"
                )
                continue
            for request_id in sorted(expected):
                drift.extend(
                    _diff_response(family, seed, expected[request_id], got[request_id])
                )
    return drift
