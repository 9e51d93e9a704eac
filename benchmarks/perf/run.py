"""Serving-ledger benchmark: two workloads, end-to-end and per-layer metrics.

Run every workload (an untraced pass, then a traced pass, each in a fresh
process), print every metric by name with its unit, check every response,
and write one result JSON::

    python benchmarks/perf/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--out DIR]

``--trace 0`` runs only the untraced pass and prints the end-to-end
metrics; ``--trace 1`` only the traced pass and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when a correctness check fails and 2 when a pass crashes.

Compare two sets of results, per workload and end-to-end metric, against
the bounds in BENCHMARK.json (each argument is a result JSON, a baseline
JSON or a directory searched for ``result.json`` files)::

    python benchmarks/perf/run.py --compare BASE NEW
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("closed_hot", "tcp_open")

#: Ceiling on one cold start, and on a pass beyond its own window.
COLD_TIMEOUT_S = 30.0
PASS_TIMEOUT_S = 60.0


class PassError(RuntimeError):
    """A workload process crashed, hung or printed no result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(spec: dict, traced: bool) -> Dict[str, dict]:
    """Name -> declaration of the metrics one pass prints."""
    return {m["name"]: m for m in spec["per_layer" if traced else "end_to_end"]}


# ------------------------------------------------------------------ passes


def start_pass(
    workload: str, seed: int, seconds: float, mode: str, out: Path, timeout_s: float
) -> Tuple[dict, float]:
    """Run ``workload.py`` in a fresh process (and process group); returns
    its result and the monotonic time just before it was spawned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # The native kernels compile in a temporary directory: keep it here.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    command = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        "--spans", str(out / f"{workload}.spans.jsonl"),
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"{workload} {mode} pass exceeded {timeout_s:.0f} s") from None
    finally:
        # Whatever the pass left behind (tcp_open's load generator) goes
        # with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise PassError(f"{workload} {mode} pass exited with {proc.returncode}")
    lines = stdout.decode("utf-8", errors="replace").strip().splitlines()
    if not lines:
        raise PassError(f"{workload} {mode} pass printed no result")
    return json.loads(lines[-1]), spawned


def cold_start(workload: str, seed: int, seconds: float, out: Path) -> float:
    """Set-up time of one fresh process that stops after the probe."""
    cold, spawned = start_pass(workload, seed, seconds, "cold", out, COLD_TIMEOUT_S)
    return cold["first_response_at"] - spawned


def measure(
    spec: dict, workload: str, seed: int, seconds: float, traced: bool, out: Path
) -> dict:
    """One pass of one workload, as a result record.

    Set-up time is the median of three cold starts: one just before the
    untraced pass, the pass itself, and one just after it.  The host's
    speed wanders over tens of seconds, so starts on both sides of the
    window sample more of it than back-to-back ones would.
    """
    timeout = seconds + PASS_TIMEOUT_S
    if traced:
        result, _ = start_pass(workload, seed, seconds, "traced", out, timeout)
        setups: List[float] = []
    else:
        setups = [cold_start(workload, seed, seconds, out)]
        result, spawned = start_pass(workload, seed, seconds, "untraced", out, timeout)
        setups.append(result["first_response_at"] - spawned)
        setups.append(cold_start(workload, seed, seconds, out))
        result["metrics"]["setup_s"] = statistics.median(setups)
    names = declared(spec, traced)
    if set(result["metrics"]) != set(names):
        raise PassError(
            f"{workload}: printed metrics {sorted(result['metrics'])} differ from "
            f"the declared {sorted(names)}"
        )
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "correct": not result["problems"],
        "problems": result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": names[name]["unit"]}
            for name in names
        },
        "setup_samples_s": setups,
        "checks": result.get("checks", {}),
        "host": result["host"],
    }


def host_facts(records: List[dict]) -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if records:
        facts.update(records[0]["host"])
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    facts["commit"] = commit
    return facts


def show(record: dict) -> None:
    label = "traced" if record["trace"] else "untraced"
    print(
        f"== {record['workload']} ({label}, seed {record['seed']}, "
        f"{record['seconds']:g} s window): attempted {record['attempted']}, "
        f"failed {record['failed']}, correct {record['correct']}"
    )
    for problem in record["problems"]:
        print(f"   problem: {problem}")
    for name, metric in record["metrics"].items():
        print(f"   {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    for stage, pair in record["checks"].get("kernel_vs_stage_ms", {}).items():
        print(
            f"   check kernels.{stage}_ms {pair['kernel']:.4g} vs "
            f"stage_{stage}_s mean {pair['stage']:.4g} ms"
        )


def summary_line(records: List[dict]) -> dict:
    """The last line: one pass's metrics as ``{name: {value, unit}}``; with
    several passes, the metrics of each workload under its name."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {}
        for record in records:
            metrics.setdefault(record["workload"], {}).update(record["metrics"])
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


# ----------------------------------------------------------------- compare


def load_runs(path: Path) -> Dict[str, List[dict]]:
    """Untraced run records per workload, from a result JSON, a baseline
    JSON (``{"sets": [result, ...]}``) or every ``result.json`` below a
    directory."""
    files = sorted(path.rglob("result.json")) if path.is_dir() else [path]
    runs: Dict[str, List[dict]] = {}
    for file in files:
        data = json.loads(file.read_text(encoding="utf-8"))
        for result in data.get("sets", [data]):
            for record in result["runs"]:
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def iqr(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base: List[float], new: List[float], better: str, bound: float) -> Tuple[float, float, str]:
    """(relative change, base spread, flag) of one workload x metric.

    The flag is ``regressed`` when the new median is worse than the base
    median by more than ``bound`` (a share of the base median),
    ``unresolved`` when the base runs themselves spread wider than the
    bound (unless every new run beats every base run), else ``ok``.
    """
    base_median = statistics.median(base)
    change = (statistics.median(new) - base_median) / base_median
    worse = change if better == "lower" else -change
    spread = iqr(base) / base_median if len(base) >= 2 else float("inf")
    if better == "lower":
        dominates = max(new) < min(base)
    else:
        dominates = min(new) > max(base)
    if spread > bound and not dominates:
        flag = "unresolved"
    elif worse > bound:
        flag = "regressed"
    else:
        flag = "ok"
    return change, spread, flag


def compare(spec: dict, base_path: Path, new_path: Path) -> int:
    base, new = load_runs(base_path), load_runs(new_path)
    regressed = False
    print(
        f"{'workload':<13} {'metric':<16} {'base':>11} {'new':>11} "
        f"{'change':>8} {'spread':>8} {'bound':>6} {'wins':>6}  flag"
    )
    for workload in WORKLOADS:
        if workload not in base or workload not in new:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            change, spread, flag = verdict(b, n, metric["better"], metric["bound"])
            regressed = regressed or flag == "regressed"
            won, pairs = wins(base[workload], new[workload], name, metric["better"])
            print(
                f"{workload:<13} {name:<16} {statistics.median(b):>11.5g} "
                f"{statistics.median(n):>11.5g} {change:>+8.2%} {spread:>8.2%} "
                f"{metric['bound']:>6.0%} {won:>3}/{pairs:<2}  {flag}"
                f"  ({len(b)} vs {len(n)} runs, {metric['unit']}, {metric['better']} is better)"
            )
    return 1 if regressed else 0


def wins(base: List[dict], new: List[dict], name: str, better: str) -> Tuple[int, int]:
    """Runs of the new side that beat the base run of the same seed (ties
    count for neither side), and how many seeds both sides ran."""
    by_seed = {r["seed"]: r["metrics"][name]["value"] for r in base}
    won = pairs = 0
    for record in new:
        if record["seed"] not in by_seed:
            continue
        pairs += 1
        delta = record["metrics"][name]["value"] - by_seed[record["seed"]]
        won += delta < 0 if better == "lower" else delta > 0
    return won, pairs


# -------------------------------------------------------------------- main


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="default: both")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="measured window per pass (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: untraced pass only, 1: traced pass only (default: both)",
    )
    parser.add_argument("--out", type=Path, default=HERE / "out", help="result directory")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(spec, *args.compare)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    passes = [bool(args.trace)] if args.trace is not None else [False, True]
    # The passes run from the checkout root, not from the caller's directory.
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    records = []
    try:
        for workload in workloads:
            for traced in passes:
                record = measure(spec, workload, args.seed, args.seconds, traced, args.out)
                show(record)
                records.append(record)
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    result = {"schema": 1, "host": host_facts(records), "runs": records}
    (args.out / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    line = summary_line(records)
    print(json.dumps(line, separators=(",", ":")))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
