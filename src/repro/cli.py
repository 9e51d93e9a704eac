"""Command-line interface.

Exposes the headline analyses as subcommands::

    repro tradeoff              # compare the system variants
    repro cycle [--level 0.6]   # one measurement cycle + timeline
    repro sizing                # Table-1 style resources + device chain
    repro parflow               # the Section-4.3 power-aware PAR flow
    repro recover               # fault injection / recovery demo
    repro serve --listen H:P    # TCP front door (drains on SIGTERM;
                                #   quota knobs: --quota-rps --max-inflight)
    repro net-load              # loadgen v2: replay a traffic shape
                                #   (steady/diurnal/flash/ramp/slow)
    repro trace-report FILE     # per-stage breakdown + flamegraph of traces
    repro verifylab oracle      # differential oracle over seeded scenarios
                                #   (--transport local|shard|net x
                                #    --family plain|faults|drift|thermal|priority)
    repro verifylab fuzz        # scenario fuzzing with shrinking
    repro verifylab campaign    # SEU fault campaign with JSON report
    repro verifylab golden      # golden-trace check / refresh
    repro chaos                 # runtime chaos campaign (crashes, skew)
    repro shard-chaos           # SIGKILL shard processes; zero-loss gate

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    from repro.app.system import (
        FpgaFullHardwareSystem,
        FpgaReconfigSystem,
        FpgaSoftwareSystem,
        MicrocontrollerSystem,
    )
    from repro.core.tradeoff import SystemVariant, compare_variants, format_table
    from repro.reconfig.ports import Icap

    variants = [
        SystemVariant("mcu", MicrocontrollerSystem()),
        SystemVariant("fpga-software", FpgaSoftwareSystem()),
        SystemVariant("fpga-full-hw", FpgaFullHardwareSystem()),
        SystemVariant("reconfig-jcap", FpgaReconfigSystem()),
        SystemVariant("reconfig-icap", FpgaReconfigSystem(port=Icap())),
    ]
    rows = compare_variants(variants, levels=args.levels)
    print(format_table(rows))
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    from repro.app.system import FpgaReconfigSystem
    from repro.reconfig.ports import Icap, Jcap

    port = Icap() if args.port == "icap" else Jcap()
    system = FpgaReconfigSystem(port=port, clock_gating=args.clock_gating)
    result = system.run_cycle(args.level)
    print(f"device   : {result.device}")
    print(f"level    : true {args.level:.3f} -> measured {result.level_measured:.3f}")
    print(f"capacity : {result.capacitance_pf:.1f} pF")
    print(f"power    : {result.avg_power_w * 1e3:.1f} mW average")
    print(f"fits     : {result.fits_period} (busy {result.cycle_busy_s * 1e3:.1f} ms)")
    print(result.schedule.timeline())
    return 0


def _cmd_sizing(args: argparse.Namespace) -> int:
    from repro.app.modules import repartitioned_modules, standard_modules
    from repro.app.system import static_side_slices
    from repro.core.reconfig_power import size_devices
    from repro.ip.ethernet import ETHERNET_FOOTPRINT
    from repro.ip.profibus import PROFIBUS_FOOTPRINT

    modules = standard_modules()
    print(f"{'component':<14}{'slices':>8}{'BRAM':>6}{'MULT':>6}{'latency':>9}{'fmax':>7}")
    print(f"{'static side':<14}{static_side_slices():>8}{'-':>6}{'-':>6}{'-':>9}{'-':>7}")
    for module in modules.values():
        c = module.compiled
        print(
            f"{c.name:<14}{c.slices:>8}{c.brams:>6}{c.multipliers:>6}"
            f"{c.latency_cycles:>9}{c.fmax_mhz:>6.0f}M"
        )
    sizing = size_devices(
        static_slices=static_side_slices(),
        resident_slices=ETHERNET_FOOTPRINT.slices + PROFIBUS_FOOTPRINT.slices,
        modules=[m.compiled for m in modules.values()],
        repartitioned=repartitioned_modules(args.partitions),
    )
    print()
    print(sizing.summary())
    return 0


def _cmd_parflow(args: argparse.Namespace) -> int:
    from repro.core.par_power import run_power_aware_flow
    from repro.fabric.device import get_device
    from repro.netlist.blocks import BlockFootprint, block_netlist
    from repro.par.placer import PlacerOptions
    from repro.par.report import routing_report, utilization_report

    netlist = block_netlist(
        BlockFootprint("cli_blk", slices=args.slices, mean_activity=0.1), seed=args.seed
    )
    result = run_power_aware_flow(
        netlist,
        get_device(args.device),
        clock_mhz=args.clock,
        top_n=args.nets,
        placer_options=PlacerOptions(steps=25, seed=args.seed),
    )
    print(utilization_report(result.design).render())
    print()
    print(routing_report(result.design))
    print()
    print(result.table2())
    print(
        f"\nrouting power {result.power_before.routing_w * 1e6:.1f} uW -> "
        f"{result.power_after.routing_w * 1e6:.1f} uW "
        f"({result.routing_power_reduction_pct:.1f}% reduction)"
    )
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.app.failsafe import SelfHealingSystem

    healing = SelfHealingSystem(seed=args.seed)
    healing.run_cycle(args.level)
    fault = healing.inject_module_fault("amp_phase")
    print(f"injected: {fault}")
    result = healing.run_cycle(args.level)
    event = healing.recoveries[-1]
    print(f"detected: {'; '.join(event.violations)}")
    print(f"recovered in {event.recovery_time_s * 1e3:.2f} ms; "
          f"level after recovery: {result.level_measured:.3f}")
    return 0


def _cmd_energy_plan(args: argparse.Namespace) -> int:
    from repro.serve.energy import DeviceMixPlanner

    planner = DeviceMixPlanner(max_batch=args.max_batch)
    plans = planner.plan(args.load)
    if not plans:
        print("no catalog device fits the application floorplan", file=sys.stderr)
        return 1
    if args.json:
        print(
            json.dumps(
                {
                    "offered_rps": args.load,
                    "max_batch": args.max_batch,
                    "plans": [p.to_dict() for p in plans],
                    "best": plans[0].device,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        f"device mix for {args.load:.1f} requests/s (max batch {args.max_batch}):"
    )
    header = (
        f"{'device':<10}{'slots':>6}{'dies':>6}{'capacity/s':>12}"
        f"{'util':>7}{'power W':>10}{'mJ/req':>9}{'fleet $':>9}"
    )
    print(header)
    print("-" * len(header))
    for plan in plans:
        print(
            f"{plan.device:<10}{plan.slots_per_die:>6}{plan.dies:>6}"
            f"{plan.capacity_rps:>12.1f}{plan.utilization * 100:>6.0f}%"
            f"{plan.total_power_w:>10.3f}{plan.joules_per_request * 1e3:>9.3f}"
            f"{plan.fleet_price_usd:>9.2f}"
        )
    best = plans[0]
    print(
        f"\nbest: {best.device} x {best.dies} "
        f"({best.slots_per_die} slots/die, {best.total_power_w:.3f} W, "
        f"{best.joules_per_request * 1e3:.3f} mJ/request)"
    )
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.trace import read_traces, trace_report

    try:
        traces = read_traces(args.file)
    except FileNotFoundError:
        print(f"trace file not found: {args.file}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"malformed trace file: {exc}", file=sys.stderr)
        return 2
    print(trace_report(traces, flame=args.flame, top=args.top, width=args.width))
    return 0


def _cmd_verifylab_oracle(args: argparse.Namespace) -> int:
    from repro.verifylab import check_cell, run_oracle

    try:
        check_cell(args.family, args.transport, args.policy)
    except ValueError as exc:
        print(f"verifylab oracle: {exc}", file=sys.stderr)
        return 2
    report = run_oracle(
        range(args.start_seed, args.start_seed + args.seeds),
        family=args.family,
        transport=args.transport,
        policy=args.policy,
    )
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.ok else 1


def _cmd_verifylab_fuzz(args: argparse.Namespace) -> int:
    from repro.verifylab import run_fuzz

    report = run_fuzz(
        range(args.start_seed, args.start_seed + args.seeds),
        max_requests=args.max_requests,
    )
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.ok else 1


def _cmd_verifylab_campaign(args: argparse.Namespace) -> int:
    from repro.verifylab import run_campaign, write_report

    report = run_campaign(
        requests=args.requests, seed=args.seed, max_attempts=args.max_attempts
    )
    if args.out:
        write_report(report, args.out)
    print(json.dumps(report, indent=2, sort_keys=True))
    # The floor applies to the first (least hostile) intensity; harsher
    # sweeps are reported but only integrity-gated.
    lowest = report["intensities"][0]
    if lowest["recovery_rate"] < args.min_recovery:
        return 1
    return 0 if report["ok"] else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.verifylab import run_chaos_campaign, write_report

    report = run_chaos_campaign(
        requests=args.requests,
        seed=args.seed,
        workers=args.workers,
        crash_rate=args.crash_rate,
        exec_error_rate=args.exec_error_rate,
        clock_skew_s=args.clock_skew,
        max_crashes=args.max_crashes,
        max_attempts=args.max_attempts,
    )
    if args.out:
        write_report(report, args.out)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        recovery = report["recovery"]
        integrity = report["integrity"]
        print(
            f"chaos: seed {args.seed}, {args.workers} workers, "
            f"{report['chaos']['crashes_injected']} crashes, "
            f"{report['chaos']['exec_errors_injected']} executor faults, "
            f"clock skew {args.clock_skew} s"
        )
        print(
            f"admitted {report['admitted']}  terminal {report['terminal']} "
            f"({report['terminal_rate'] * 100:.1f}%)  "
            f"ok/failed/expired {report['responses']['ok']}/"
            f"{report['responses']['failed']}/{report['responses']['expired']}"
        )
        print(
            f"restarts {recovery['worker_restarts']}  "
            f"redelivered {recovery['requests_redelivered']}  "
            f"breaker trips {recovery['breaker_trips']}  "
            f"retries {recovery['requests_retried']}"
        )
        print(
            f"integrity: {integrity['matching']}/{integrity['checked']} "
            f"ok responses match the oracle reference"
        )
    if report["terminal_rate"] < args.min_terminal:
        print(
            f"FAIL: terminal rate {report['terminal_rate']:.4f} below "
            f"floor {args.min_terminal}",
            file=sys.stderr,
        )
        return 1
    if report["integrity"]["matching"] != report["integrity"]["checked"]:
        print("FAIL: post-recovery integrity mismatch", file=sys.stderr)
        return 1
    return 0


def _cmd_shard_chaos(args: argparse.Namespace) -> int:
    from repro.verifylab import run_shard_chaos_campaign, write_report

    report = run_shard_chaos_campaign(
        requests=args.requests,
        seed=args.seed,
        shards=args.shards,
        kills=args.kills,
    )
    if args.out:
        write_report(report, args.out)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        recovery = report["recovery"]
        integrity = report["integrity"]
        print(
            f"shard-chaos: seed {args.seed}, {args.shards} shards, "
            f"{len(report['kills'])} SIGKILLs "
            f"({', '.join('shard ' + str(k['shard']) for k in report['kills']) or 'none'})"
        )
        print(
            f"admitted {report['admitted']}  terminal {report['terminal']} "
            f"({report['terminal_rate'] * 100:.1f}%)  "
            f"ok/failed/expired {report['responses']['ok']}/"
            f"{report['responses']['failed']}/{report['responses']['expired']}"
        )
        print(
            f"restarts {recovery['shard_restarts']}  "
            f"redelivered {recovery['requests_redelivered']}  "
            f"duplicates dropped {recovery['duplicate_responses_dropped']}"
        )
        print(
            f"integrity: {integrity['matching']}/{integrity['checked']} "
            f"ok responses match the oracle reference"
        )
    if report["terminal_rate"] < args.min_terminal:
        print(
            f"FAIL: terminal rate {report['terminal_rate']:.4f} below "
            f"floor {args.min_terminal}",
            file=sys.stderr,
        )
        return 1
    if report["integrity"]["matching"] != report["integrity"]["checked"]:
        print("FAIL: post-recovery integrity mismatch", file=sys.stderr)
        return 1
    return 0


def _cmd_verifylab_golden(args: argparse.Namespace) -> int:
    from repro.verifylab import CANONICAL_SEEDS, check_golden, write_golden

    seeds = {family: list(seeds) for family, seeds in CANONICAL_SEEDS.items()}
    if args.update:
        written = write_golden(args.dir)
        print(
            json.dumps(
                {"updated": [str(p) for p in written], "seeds": seeds}, indent=2
            )
        )
        return 0
    drift = check_golden(args.dir)
    print(json.dumps({"ok": not drift, "seeds": seeds, "drift": drift}, indent=2))
    return 0 if not drift else 1


def _parse_listen(listen: str) -> tuple:
    """Split ``HOST:PORT`` (port may be 0 for ephemeral).

    Raises
    ------
    ValueError
        On a malformed listen address.
    """
    host, sep, port_text = listen.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--listen wants HOST:PORT, got {listen!r}")
    return host, int(port_text)


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.net import NetConfig, NetServer
    from repro.serve.pool import FleetService

    try:
        host, port = _parse_listen(args.listen)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    service = FleetService(
        workers=args.workers,
        max_batch=args.max_batch,
        queue_capacity=args.queue_capacity,
        seed=args.seed,
        policy=args.policy,
        window_s=args.window,
    )
    service.start()
    server = NetServer(
        service,
        NetConfig(
            host=host,
            port=port,
            max_connections=args.max_connections,
            quota_rps=args.quota_rps,
            quota_burst=args.quota_burst,
            max_inflight=args.max_inflight,
            drain_timeout_s=args.drain_timeout,
        ),
    ).start()
    print(f"repro-net listening on {server.host}:{server.port}", flush=True)
    stop_requested = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 — signal API shape
        print(f"signal {signum}: draining...", flush=True)
        stop_requested.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        stop_requested.wait()
    finally:
        drained = server.drain(timeout_s=args.drain_timeout)
        server.stop(drain=False)
        service.shutdown(drain=True)
        print(json.dumps({"drained": drained, **server.net_snapshot()}, indent=2))
    return 0 if drained else 1


def _cmd_net_load(args: argparse.Namespace) -> int:
    from repro.net import run_shape

    try:
        host, port = _parse_listen(args.connect)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = run_shape(
        host,
        port,
        shape=args.shape,
        n_requests=args.requests,
        duration_s=args.duration,
        n_clients=args.clients,
        n_tanks=args.tanks,
        popularity=args.popularity,
        zipf_exponent=args.zipf_exponent,
        deadline_s=args.deadline,
        seed=args.seed,
        timeout_s=args.timeout,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        counts = report["counts"]
        latency = report["latency_s"]
        print(
            f"shape={report['shape']} requests={report['requests']} "
            f"clients={report['clients']} ok={counts['ok']} "
            f"rejected={counts['rejected']} expired={counts['expired']} "
            f"lost={counts['lost']}"
        )
        for key in ("p50", "p95", "p99", "p999"):
            value = latency[key]
            print(f"  latency {key}: " + (f"{value * 1e3:.2f} ms" if value is not None else "n/a"))
        print(f"  shed rate: {report['shed_rate']:.3f}")
    if report["client_errors"] or report["counts"]["lost"]:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.serve import DEFAULT_POLICY, POLICIES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="DATE 2008 cost/power-optimized FPGA system integration — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tradeoff", help="compare the system variants")
    p.add_argument("--levels", type=float, nargs="+", default=[0.25, 0.6, 0.85])
    p.set_defaults(func=_cmd_tradeoff)

    p = sub.add_parser("cycle", help="run one measurement cycle")
    p.add_argument("--level", type=float, default=0.6)
    p.add_argument("--port", choices=["icap", "jcap"], default="icap")
    p.add_argument("--clock-gating", action="store_true")
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("sizing", help="module resources and device sizing")
    p.add_argument("--partitions", type=int, default=5)
    p.set_defaults(func=_cmd_sizing)

    p = sub.add_parser("parflow", help="power-aware place & route flow")
    p.add_argument("--device", default="XC3S400")
    p.add_argument("--slices", type=int, default=150)
    p.add_argument("--clock", type=float, default=50.0)
    p.add_argument("--nets", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_parflow)

    p = sub.add_parser("recover", help="fault injection and recovery demo")
    p.add_argument("--level", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser(
        "serve",
        help="TCP front door: serve the fleet over a socket until SIGTERM",
        description="Run a FleetService behind the repro.net TCP edge "
        "(newline-delimited JSON wire envelopes). SIGTERM/SIGINT drains "
        "gracefully: in-flight requests are answered, new ones rejected.",
    )
    p.add_argument(
        "--listen",
        default="127.0.0.1:7781",
        metavar="HOST:PORT",
        help="listen address (port 0 = ephemeral, printed at startup)",
    )
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--queue-capacity", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=POLICIES, default=DEFAULT_POLICY)
    p.add_argument("--window", type=float, default=0.0, help="batch fill window (s)")
    p.add_argument(
        "--max-connections",
        type=int,
        default=64,
        help="concurrent TCP connections before new accepts are refused",
    )
    p.add_argument(
        "--quota-rps",
        type=float,
        default=0.0,
        help="per-connection sustained submit rate (token bucket; 0 = unlimited)",
    )
    p.add_argument(
        "--quota-burst",
        type=int,
        default=16,
        help="per-connection token-bucket burst",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="per-connection in-flight request cap",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="max seconds to wait for in-flight responses at shutdown",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "net-load",
        help="loadgen v2: replay a traffic shape against a repro serve endpoint",
    )
    p.add_argument(
        "--connect",
        default="127.0.0.1:7781",
        metavar="HOST:PORT",
        help="server address (see `repro serve --listen`)",
    )
    p.add_argument(
        "--shape",
        choices=["steady", "diurnal", "flash", "ramp", "slow"],
        default="steady",
        help="arrival-time shape (slow = steady arrivals + misbehaving clients)",
    )
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--duration", type=float, default=2.0, help="replay window (s)")
    p.add_argument("--clients", type=int, default=4, help="concurrent connections")
    p.add_argument("--tanks", type=int, default=8)
    p.add_argument("--popularity", choices=["uniform", "zipf"], default="zipf")
    p.add_argument("--zipf-exponent", type=float, default=1.1)
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request deadline budget in seconds, applied at send time",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--json", action="store_true", help="emit the full report as JSON")
    p.set_defaults(func=_cmd_net_load)

    p = sub.add_parser(
        "trace-report", help="per-stage latency/energy breakdown of recorded traces"
    )
    p.add_argument("file", help="JSONL trace file (written by repro.trace.JsonlExporter)")
    p.add_argument("--flame", action="store_true", help="append a text flamegraph")
    p.add_argument("--top", type=int, default=5, help="slow exemplars to list")
    p.add_argument("--width", type=int, default=40, help="flamegraph bar width")
    p.set_defaults(func=_cmd_trace_report)

    p = sub.add_parser(
        "energy-plan",
        help="device-mix autoscaler: catalog options for an offered load",
    )
    p.add_argument(
        "--load",
        type=float,
        default=50.0,
        metavar="RPS",
        help="offered load in requests/second (e.g. the admission EWMA)",
    )
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_energy_plan)

    p = sub.add_parser(
        "verifylab", help="correctness harness: oracle / fuzz / campaign / golden"
    )
    vsub = p.add_subparsers(dest="mode", required=True)

    v = vsub.add_parser("oracle", help="differential oracle over seeded scenarios")
    v.add_argument("--seeds", type=int, default=25, help="number of scenario seeds")
    v.add_argument("--start-seed", type=int, default=0)
    v.add_argument(
        "--family",
        default="plain",
        help="workload family: plain, faults (counter-mode SEU schedule), "
        "drift (live recalibration), thermal (derating) or priority (tiers)",
    )
    v.add_argument(
        "--transport",
        default="local",
        help="serving path: local (in process), shard (2 shard processes) "
        "or net (3 concurrent TCP clients); an unsupported cell exits 2",
    )
    v.add_argument(
        "--policy",
        choices=POLICIES,
        default=DEFAULT_POLICY,
        help="batch-formation policy under test (scheduling-order changes "
        "must never alter measurement results)",
    )
    v.set_defaults(func=_cmd_verifylab_oracle)

    v = vsub.add_parser("fuzz", help="scenario fuzzer with shrinking")
    v.add_argument("--seeds", type=int, default=50)
    v.add_argument("--start-seed", type=int, default=0)
    v.add_argument("--max-requests", type=int, default=12)
    v.set_defaults(func=_cmd_verifylab_fuzz)

    v = vsub.add_parser("campaign", help="SEU fault campaign across intensities")
    v.add_argument("--requests", type=int, default=40, help="requests per intensity")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--max-attempts", type=int, default=3)
    v.add_argument("--min-recovery", type=float, default=0.9,
                   help="recovery-rate floor at the lowest intensity")
    v.add_argument("--out", help="also write the JSON report to this path")
    v.set_defaults(func=_cmd_verifylab_campaign)

    v = vsub.add_parser("golden", help="golden-trace regression check / refresh")
    v.add_argument("--update", action="store_true", help="re-freeze the traces")
    v.add_argument("--dir", default=None, help="trace directory (default tests/golden)")
    v.set_defaults(func=_cmd_verifylab_golden)

    p = sub.add_parser(
        "chaos", help="runtime chaos campaign: crashes, executor faults, clock skew"
    )
    p.add_argument("--requests", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=3)
    p.add_argument("--crash-rate", type=float, default=1.0,
                   help="probability a taken batch kills its worker (budget-capped)")
    p.add_argument("--exec-error-rate", type=float, default=0.25,
                   help="probability a batch's execution raises an injected fault")
    p.add_argument("--clock-skew", type=float, default=0.0,
                   help="peak clock-skew walk amplitude in seconds")
    p.add_argument("--max-crashes", type=int, default=3,
                   help="crash budget (makes rate 1.0 terminate)")
    p.add_argument("--max-attempts", type=int, default=3)
    p.add_argument("--min-terminal", type=float, default=0.99,
                   help="floor on the fraction of admitted requests reaching "
                        "a terminal response")
    p.add_argument("--json", action="store_true", help="emit the full JSON report")
    p.add_argument("--out", help="also write the JSON report to this path")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "shard-chaos",
        help="SIGKILL shard processes mid-run; gate on zero lost requests",
    )
    p.add_argument("--requests", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=3)
    p.add_argument("--kills", type=int, default=1,
                   help="shard processes to SIGKILL mid-run")
    p.add_argument("--min-terminal", type=float, default=1.0,
                   help="floor on the fraction of admitted requests reaching "
                        "a terminal response (process kills must lose nothing)")
    p.add_argument("--json", action="store_true", help="emit the full JSON report")
    p.add_argument("--out", help="also write the JSON report to this path")
    p.set_defaults(func=_cmd_shard_chaos)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
