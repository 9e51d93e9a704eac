"""Network edge under a flash crowd: tail latency and shed discipline.

Loadgen v2 replays a flash-crowd arrival schedule against a live
:class:`repro.net.NetServer` over real TCP sockets and asserts the edge
keeps its promises when traffic spikes: every request settles (nothing
is silently lost), what is shed is shed *explicitly* via reject
envelopes with retry hints, the shed rate stays under a ceiling, and
the reservoir-backed p99 clears a generous sanity floor.

The floors are deliberately loose — this bench runs on shared CI boxes
where absolute latency is noise; what must hold everywhere is the
accounting (ok + expired + failed + rejected == submitted, lost == 0)
and the shape of the tail (p999 >= p99 >= p50 > 0).

Set ``BENCH_NET_JSON=path`` to also write the per-shape tail-latency
table as JSON (the CI artifact ``BENCH_net.json``).
"""


from _util import show, write_json

from repro.net import NetConfig, NetServer, run_shape
from repro.serve.pool import FleetService

#: Short enough for CI, long enough that the flash window (~80 ms at
#: these settings) actually outruns the service rate and exercises
#: admission under pressure.
N_REQUESTS, DURATION_S, N_CLIENTS, N_TANKS = 120, 1.0, 4, 6
SHAPES = ("steady", "flash")

#: At most this fraction of a flash crowd may be shed.  The queue is
#: sized to absorb the whole burst, so shedding should be rare — the
#: ceiling exists to catch a regression where admission or quotas start
#: refusing healthy traffic wholesale.
SHED_CEILING = 0.25

#: Generous sanity floor on p99: a real served request crosses a socket,
#: the broker, a worker and the wire back, so sub-10us would mean the
#: reservoir is recording garbage (or nothing).
P99_FLOOR_S = 1e-5


def _run_shape(shape: str) -> dict:
    service = FleetService(
        workers=2, max_batch=8, queue_capacity=N_REQUESTS + 32, seed=0
    )
    service.start()
    server = NetServer(service, NetConfig()).start()
    try:
        return run_shape(
            "127.0.0.1",
            server.port,
            shape=shape,
            n_requests=N_REQUESTS,
            duration_s=DURATION_S,
            n_clients=N_CLIENTS,
            n_tanks=N_TANKS,
            seed=0,
            timeout_s=120.0,
        )
    finally:
        server.stop()
        service.shutdown()


def run_all() -> dict:
    return {shape: _run_shape(shape) for shape in SHAPES}


def test_net_flash_crowd_tail(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    header = (
        f"{'shape':<9}{'ok':>6}{'rejected':>10}{'shed':>7}"
        f"{'p50 ms':>9}{'p99 ms':>9}{'p999 ms':>9}"
    )
    lines = [header, "-" * len(header)]
    rows = []
    for shape, report in results.items():
        counts, latency = report["counts"], report["latency_s"]
        rows.append(
            {
                "shape": shape,
                "requests": report["requests"],
                "ok": counts["ok"],
                "rejected": counts["rejected"],
                "expired": counts["expired"],
                "lost": counts["lost"],
                "shed_rate": round(report["shed_rate"], 4),
                "throughput_rps": round(report["throughput_rps"], 1),
                "p50_ms": round((latency["p50"] or 0.0) * 1e3, 2),
                "p99_ms": round((latency["p99"] or 0.0) * 1e3, 2),
                "p999_ms": round((latency["p999"] or 0.0) * 1e3, 2),
            }
        )
        lines.append(
            f"{shape:<9}{counts['ok']:>6}{counts['rejected']:>10}"
            f"{report['shed_rate']:>7.2%}"
            f"{(latency['p50'] or 0.0) * 1e3:>9.1f}"
            f"{(latency['p99'] or 0.0) * 1e3:>9.1f}"
            f"{(latency['p999'] or 0.0) * 1e3:>9.1f}"
        )
    show("Network edge: tail latency per traffic shape", "\n".join(lines))

    for shape, report in results.items():
        counts = report["counts"]
        # Nothing vanishes: every submit has a terminal outcome.
        assert counts["lost"] == 0, (shape, counts)
        assert not report["client_errors"], (shape, report["client_errors"])
        settled = (
            counts["ok"] + counts["expired"] + counts["failed"] + counts["rejected"]
        )
        assert settled == report["requests"], (shape, counts)
        # Shedding is explicit and bounded.
        assert report["shed_rate"] <= SHED_CEILING, (shape, report["shed_rate"])
        # The tail is real: monotone percentiles above the sanity floor.
        latency = report["latency_s"]
        assert latency["p99"] is not None and latency["p99"] >= P99_FLOOR_S, (
            shape,
            latency,
        )
        assert latency["p999"] >= latency["p99"] >= latency["p50"] > 0.0, (
            shape,
            latency,
        )

    flash = results["flash"]
    report = {
        "requests": N_REQUESTS,
        "duration_s": DURATION_S,
        "clients": N_CLIENTS,
        "tanks": N_TANKS,
        "shed_ceiling": SHED_CEILING,
        "p99_floor_s": P99_FLOOR_S,
        "shapes": rows,
    }
    write_json("BENCH_NET_JSON", report)
    benchmark.extra_info.update(
        {
            "flash_shed_rate": round(flash["shed_rate"], 4),
            "flash_p99_ms": round((flash["latency_s"]["p99"] or 0.0) * 1e3, 2),
            "flash_ok": flash["counts"]["ok"],
        }
    )
