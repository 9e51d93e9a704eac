"""One pass of one benchmark workload, in a fresh process.

``run.py`` starts this script once per pass; it is not meant to be run by
hand::

    python benchmarks/perf/workload.py --workload NAME --seed N --seconds S \\
        --mode {cold,untraced,traced} [--spans PATH]

It builds the program through its public entry points (``FleetService``,
``NetServer``/``NetClient``) with the program's defaults, except
``engine="vector"`` and the workload's own settings, drives it,
checks every response, and prints one JSON object as its last line of
standard output.  ``cold`` stops after the set-up probe: process start to
the first response is the set-up time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import platform
import random
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.app.system import SystemConfig
from repro.kernels import KERNEL_CACHE, native_status
from repro.net import NetClient, NetServer
from repro.serve import BrokerFullError, FleetService, MeasurementRequest
from repro.serve.loadgen import tank_level, zipf_tank_sequence

from layers import mean, p99, span_metrics, stage_agreement
from spans import SpanRecorder

WORKLOADS = ("closed_hot", "tcp_open")

#: Warm-up before the measured window: caches fill, lazy set-up finishes.
WARMUP_S = 2.0
#: The traced pass cuts its window into alternating untraced and traced
#: segments of about this length, so both kinds see the same drift and the
#: tracing overhead is a paired comparison.  Throughput wanders by 10-20 %
#: over seconds on a shared host, so the segments are short enough for
#: many alternations per window.
SEGMENT_S = 0.5
#: Latency limit of ``slo_attainment``: 2.5x the paper's 100 ms cycle.
SLO_S = 0.25
#: An ok response's capacitance must lie this close to the tank model's.
CAPACITANCE_TOLERANCE = 0.10
#: Longest wait for the next response before the rest count as lost.
AWAIT_TIMEOUT_S = 30.0
#: Longest a traced segment's open spans may take to finish after it ends.
QUIESCE_S = 0.25
#: Longest the open-loop generator blocks reading one connection.
PUMP_S = 0.001

CLOSED_HOT_OUTSTANDING = 32  # 2x the default max_batch: always full batches
CLOSED_HOT_TANKS = 16
#: About a quarter of tcp_open's own capacity: with unique levels every
#: request builds its frontend waveform, and each small batch pays four
#: slot loads, so the workload saturates near 160 req/s.  Further from
#: that knee, queueing stretches a slow phase of the host less.
TCP_RATE_PER_S = 45.0
TCP_TANKS = 64
TCP_CONNECTIONS = 2
ZIPF_EXPONENT = 1.1

#: Tank model of the program's default circuit: the correctness reference.
TANK = SystemConfig().circuit.tank
#: The set-up probe's tank and level; no workload uses this tank, so the
#: probe leaves every workload tank's filter state untouched.
PROBE = ("tank-probe", 0.5)

clock = time.monotonic


# ------------------------------------------------------------------ inputs


def round_robin_triangle(seed: int, n_tanks: int) -> Iterator[Tuple[str, float]]:
    """Tanks in turn, each on the loadgen fill/drain triangle from a seeded
    phase: few distinct levels, so the kernel level cache hits."""
    rng = random.Random(f"phases-{seed}")
    phases = [rng.randrange(32) for _ in range(n_tanks)]
    for step in itertools.count():
        for k in range(n_tanks):
            yield f"tank-{k:03d}", tank_level(phases[k], step)


def zipf_walk(seed: int, n_tanks: int, count: int) -> List[Tuple[str, float]]:
    """Zipf-popular tanks, each level a seeded random walk reflected into
    [0.05, 0.95].  No level repeats, so every request misses the kernel
    level cache; the level also identifies its request on the server side,
    where the edge has renumbered the request ids.

    Raises
    ------
    ValueError
        If a level repeats after all (then the seed cannot be used).
    """
    rng = random.Random(f"walk-{seed}")
    levels = [rng.uniform(0.1, 0.9) for _ in range(n_tanks)]
    out = []
    for k in zipf_tank_sequence(count, n_tanks, exponent=ZIPF_EXPONENT, seed=seed):
        x = levels[k] + rng.gauss(0.0, 0.01)
        if x < 0.05:
            x = 0.1 - x
        elif x > 0.95:
            x = 1.9 - x
        levels[k] = x
        out.append((f"tank-{k:03d}", x))
    if len({level for _, level in out}) != len(out):
        raise ValueError(f"seed {seed}: a random-walk level repeats")
    return out


# ------------------------------------------------------------- observation


class Observed:
    """What the load generator saw, per request id."""

    def __init__(self) -> None:
        #: Submit time (closed loop) or due time (open loop).
        self.start: Dict[int, float] = {}
        self.level: Dict[int, float] = {}
        #: Open loop: how late the generator sent each request.
        self.lag: Dict[int, float] = {}
        self.done: Dict[int, float] = {}
        self.responses: Dict[int, object] = {}
        self.rejected: set = set()
        self.duplicates = 0
        self.first_response_at = 0.0

    def sent(self, request_id: int, at: float, tank: str, level: float) -> MeasurementRequest:
        self.start[request_id] = at
        self.level[request_id] = level
        return MeasurementRequest(request_id, tank, level)

    def answer(self, response, at: float) -> None:
        if response.request_id in self.responses:
            self.duplicates += 1
            return
        self.responses[response.request_id] = response
        self.done[response.request_id] = at

    def latency(self, request_id: int) -> float:
        return self.done[request_id] - self.start[request_id]

    def merge(self, seen: dict) -> None:
        """Add what another process observed (``vars`` of its Observed)."""
        for name in ("start", "level", "lag", "done", "responses"):
            getattr(self, name).update(seen[name])
        self.rejected |= seen["rejected"]
        self.duplicates += seen["duplicates"]


class _Arrivals(dict):
    """A ``NetClient`` response or rejection table that reports each
    arrival the moment the client stores it."""

    def __init__(self, on_arrival) -> None:
        super().__init__()
        self._on_arrival = on_arrival

    def __setitem__(self, key, value) -> None:
        self._on_arrival(key, value)
        super().__setitem__(key, value)


class Window:
    """Warm-up, then the measured window.

    On the traced pass the window is cut into an even number of segments,
    untraced and traced in turn (untraced first); the recorder's wrappers
    are installed for the traced ones only.  When a traced segment ends,
    the recorder stops opening spans and the window waits (at most
    ``QUIESCE_S``) for the open ones to finish before it restores the
    originals, so every traced call is recorded whole.  A segment ends
    when its edge is seen and the next one starts after that work, so
    installing, quiescing and restoring fall in neither kind of segment.
    """

    def __init__(self, start: float, seconds: float, recorder=None):
        self.w0 = start + WARMUP_S
        self.w1 = self.w0 + seconds
        self.seconds = seconds
        n = 1 if recorder is None else max(2, 2 * round(seconds / (2 * SEGMENT_S)))
        self._edges = [self.w0 + seconds * k / n for k in range(n + 1)]
        self._passed = 0
        self._recorder = recorder
        self._open: Optional[Tuple[bool, float]] = None
        #: When the recorder was stopped, while it quiesces.
        self._stopped_at: Optional[float] = None
        #: (traced, t0, t1) of every segment.
        self.segments: List[Tuple[bool, float, float]] = []

    def tick(self, now: float) -> bool:
        """Pass every edge at or before ``now``; False once the last edge
        has passed."""
        if self._stopped_at is not None:
            self._quiesce(now, force=False)
        while (
            self._stopped_at is None
            and self._passed < len(self._edges)
            and now >= self._edges[self._passed]
        ):
            self._cross(now)
        return self._passed < len(self._edges)

    def close(self, now: float) -> None:
        """Pass the remaining edges and restore the originals (a load
        loop may finish before the last edge)."""
        while True:
            if self._stopped_at is not None:
                self._quiesce(now, force=True)
            if self._passed == len(self._edges):
                return
            self._cross(now)

    def _cross(self, now: float) -> None:
        if self._open is not None:
            traced, t0 = self._open
            self.segments.append((traced, t0, now))
            self._open = None
            if traced:
                self._recorder.stop()
                self._stopped_at = now
        self._passed += 1
        if self._stopped_at is None:
            self._begin()

    def _quiesce(self, now: float, force: bool) -> None:
        if force or self._recorder.idle or now - self._stopped_at > QUIESCE_S:
            self._recorder.restore()
            self._stopped_at = None
            self._begin()

    def _begin(self) -> None:
        index = self._passed - 1  # the segment starting at the edge just passed
        if index < len(self._edges) - 1:
            traced = self._recorder is not None and index % 2 == 1
            if traced:
                self._recorder.install()
            self._open = (traced, clock())

    def wait_out(self) -> None:
        """Sleep from edge to edge until the window closes (for a process
        whose load comes from elsewhere)."""
        while self.tick(clock()) or self._stopped_at is not None:
            if self._stopped_at is not None:
                wake = clock() + 0.002
            else:
                wake = self._edges[self._passed]
            time.sleep(max(0.0, wake - clock()))

    def contains(self, t: float) -> bool:
        return self.w0 <= t < self.w1

    def traced_time(self, t: float) -> Optional[bool]:
        """Whether ``t`` fell in a traced segment (None: in no segment)."""
        for traced, t0, t1 in self.segments:
            if t0 <= t < t1:
                return traced
        return None


# ----------------------------------------------------------------- drivers


def closed_loop(
    service: FleetService, inputs: Iterator, outstanding: int, window: Window, obs: Observed
) -> None:
    """Keep ``outstanding`` requests in flight until the window closes,
    then drain.

    Completion times come from ``await_responses(k)`` returning, and are
    matched to request ids by one ``responses()`` call at the end (that
    list is in completion order): copying the list per completion would
    cost the service throughput.
    """
    ids = itertools.count(1)
    done_times = [obs.first_response_at]  # response 0 is the set-up probe

    def submit_next() -> None:
        tank, level = next(inputs)
        request_id = next(ids)
        request = obs.sent(request_id, clock(), tank, level)
        try:
            service.submit(request)
        except BrokerFullError:
            obs.rejected.add(request_id)

    for _ in range(outstanding):
        submit_next()
    while window.tick(clock()):
        if not service.await_responses(len(done_times) + 1, AWAIT_TIMEOUT_S):
            break
        done_times.append(clock())
        submit_next()
    expected = len(obs.start) - len(obs.rejected)
    while len(done_times) < expected:
        if not service.await_responses(len(done_times) + 1, AWAIT_TIMEOUT_S):
            break
        done_times.append(clock())
    window.close(clock())
    for k, response in enumerate(service.responses()):
        obs.answer(response, done_times[min(k, len(done_times) - 1)])


def open_loop(clients: Sequence, inputs: List, rate: float, start: float, obs: Observed) -> None:
    """Send request ``i`` at ``start + (i - 1) / rate`` whatever the
    service does, round-robin over the connections, reading responses
    while waiting, then wait for every request to settle.  Latency runs
    from each request's due time, so a stall also charges the requests it
    delayed."""
    for i, (tank, level) in enumerate(inputs, start=1):
        due = start + (i - 1) / rate
        while clock() < due:
            _pump(clients, due - clock())
        request = obs.sent(i, due, tank, level)
        clients[i % len(clients)].submit(request)
        obs.lag[i] = clock() - due
    deadline = clock() + AWAIT_TIMEOUT_S
    while len(obs.responses) + len(obs.rejected) < len(obs.start) and clock() < deadline:
        _pump(clients, PUMP_S * len(clients))


def _pump(clients: Sequence, budget_s: float) -> None:
    wait = min(PUMP_S, budget_s / len(clients))
    for client in clients:
        client.pump(wait)


def generate(conn, host: str, port: int, seed: int, seconds: float) -> None:
    """Entry point of the tcp_open load-generator process: one thread, two
    connections, the open loop from the start time the server process
    sends; sends back everything it observed."""
    obs = Observed()
    clients: List[NetClient] = []
    try:
        for _ in range(TCP_CONNECTIONS):
            client = NetClient(host, port).connect()
            client.responses = _Arrivals(lambda _id, r: obs.answer(r, clock()))
            client.rejections = _Arrivals(lambda request_id, _r: obs.rejected.add(request_id))
            clients.append(client)
        count = int(round(TCP_RATE_PER_S * (WARMUP_S + seconds)))
        inputs = zipf_walk(seed, TCP_TANKS, count)
        conn.send("ready")
        open_loop(clients, inputs, TCP_RATE_PER_S, conn.recv(), obs)
    finally:
        for client in clients:
            client.close()
    conn.send(vars(obs))


# ----------------------------------------------------------------- systems


class LocalService:
    """closed_hot: one in-process ``FleetService`` and a closed loop."""

    def __init__(self) -> None:
        self.service = FleetService(engine="vector").start()

    @property
    def workers(self) -> int:
        return len(self.service.workers)

    def probe(self, obs: Observed) -> None:
        """The set-up probe: one request, answered; its arrival ends set-up."""
        self.service.submit(obs.sent(0, clock(), *PROBE))
        if not self.service.await_responses(1, AWAIT_TIMEOUT_S):
            raise RuntimeError("the set-up probe was not answered")
        obs.first_response_at = clock()

    def drive(self, seed: int, seconds: float, recorder, obs: Observed) -> Window:
        window = Window(clock(), seconds, recorder)
        inputs = round_robin_triangle(seed, CLOSED_HOT_TANKS)
        closed_loop(self.service, inputs, CLOSED_HOT_OUTSTANDING, window, obs)
        return window

    def key_of(self, request_id: int, level: float):
        return request_id

    def kernel_cache(self) -> Tuple[int, int]:
        """(kernel-cache hits, kernel-cache misses) so far."""
        kernel = KERNEL_CACHE.snapshot()
        return kernel["hits"], kernel["misses"]

    def artifact_hit_rate(self) -> float:
        return self.service.cache.snapshot()["hit_rate"]

    def close(self) -> None:
        self.service.shutdown()


class TcpService(LocalService):
    """tcp_open: a ``FleetService`` behind ``NetServer`` on 127.0.0.1.  The
    open loop runs in a load-generator process of its own, as a remote
    client would, so its timing never waits on this process's interpreter
    lock; this process only switches the tracing at the segment edges."""

    def __init__(self) -> None:
        super().__init__()
        self.server = NetServer(self.service).start()

    def probe(self, obs: Observed) -> None:
        with NetClient(self.server.host, self.server.port) as client:
            client.submit(obs.sent(0, clock(), *PROBE))
            client.await_responses(1, AWAIT_TIMEOUT_S)
            obs.answer(client.responses[0], clock())
        obs.first_response_at = obs.done[0]

    def drive(self, seed: int, seconds: float, recorder, obs: Observed) -> Window:
        context = multiprocessing.get_context("spawn")
        ours, theirs = context.Pipe()
        generator = context.Process(
            target=generate,
            args=(theirs, self.server.host, self.server.port, seed, seconds),
            name="tcp-open-load",
        )
        generator.start()
        theirs.close()
        try:
            if not ours.poll(AWAIT_TIMEOUT_S):
                raise RuntimeError("the load generator did not start")
            ours.recv()
            window = Window(clock(), seconds, recorder)
            ours.send(window.w0 - WARMUP_S)
            window.wait_out()
            if not ours.poll(AWAIT_TIMEOUT_S + 5.0):
                raise RuntimeError("the load generator sent no observations")
            obs.merge(ours.recv())
        finally:
            generator.join(5.0)
            if generator.is_alive():
                generator.kill()
                generator.join()
            ours.close()
        return window

    def key_of(self, request_id: int, level: float):
        return level

    def close(self) -> None:
        self.server.stop()
        super().close()


SYSTEMS = {
    "closed_hot": LocalService,
    "tcp_open": TcpService,
}


# ----------------------------------------------------------------- metrics


def window_requests(obs: Observed, window: Window) -> Tuple[List[int], List[int]]:
    """(attempted, ok) request ids of the measured window."""
    attempted = [rid for rid, t in obs.start.items() if window.contains(t)]
    ok = [rid for rid in attempted if rid in obs.responses and obs.responses[rid].ok]
    return attempted, ok


def end_to_end(obs: Observed, window: Window, cpu_s: float) -> Dict[str, float]:
    attempted, ok = window_requests(obs, window)
    latency = [obs.latency(rid) for rid in ok]
    ok_total = sum(1 for r in obs.responses.values() if r.ok)
    completed = sum(
        1 for rid, r in obs.responses.items() if r.ok and window.contains(obs.done[rid])
    )
    return {
        "throughput_rps": completed / window.seconds,
        "latency_p50_ms": float(np.percentile(latency, 50)) * 1e3 if latency else 0.0,
        "latency_p99_ms": p99(latency) * 1e3,
        "slo_attainment": (
            sum(1 for t in latency if t <= SLO_S) / len(attempted) if attempted else 0.0
        ),
        "cpu_ms_per_req": cpu_s / ok_total * 1e3 if ok_total else 0.0,
        "mj_per_req": mean([obs.responses[rid].energy_j for rid in ok]) * 1e3,
    }


def gate(obs: Observed, window: Window) -> List[str]:
    """Every violation of the benchmark's correctness rules, as text."""
    problems = []
    if obs.duplicates:
        problems.append(f"{obs.duplicates} duplicate responses")
    unknown = [rid for rid in obs.responses if rid not in obs.start]
    if unknown:
        problems.append(f"responses to ids never sent: {unknown[:5]}")
    lost = [rid for rid in obs.start if rid not in obs.responses and rid not in obs.rejected]
    if lost:
        problems.append(f"{len(lost)} requests never settled, first {lost[:5]}")
    off = []
    for rid, response in obs.responses.items():
        if not response.ok or rid not in obs.level:
            continue
        expected = TANK.capacitance_pf(obs.level[rid])
        c_pf = response.capacitance_pf
        if c_pf is None or abs(c_pf - expected) > CAPACITANCE_TOLERANCE * expected:
            off.append((rid, c_pf, expected))
    if off:
        problems.append(f"{len(off)} capacitances off by more than 10 %, first {off[:3]}")
    attempted, ok = window_requests(obs, window)
    if not ok:
        problems.append("no ok response in the measured window")
    return problems


def layer_extras(
    obs: Observed,
    window: Window,
    workload: str,
    before: Tuple[int, int],
    after: Tuple[int, int],
    hit_rate: float,
) -> Dict[str, float]:
    """The per-layer metrics that come from counters and the generator's
    own observations rather than from spans."""
    m: Dict[str, float] = {}
    attempted, ok = window_requests(obs, window)
    m["serve.artifact_cache_hit_rate"] = hit_rate
    hits, misses = after[0] - before[0], after[1] - before[1]
    m["kernels.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0

    # Tracing overhead: traced against untraced segments of the same run.
    # Throughput for the closed loop; p50 latency for the open loop,
    # whose throughput is its fixed offered rate.
    if workload == "tcp_open":
        by_kind: Dict[bool, List[float]] = {True: [], False: []}
        for rid in ok:
            kind = window.traced_time(obs.start[rid])
            if kind is not None:
                by_kind[kind].append(obs.latency(rid))
        untraced = np.percentile(by_kind[False], 50) if by_kind[False] else 0.0
        traced = np.percentile(by_kind[True], 50) if by_kind[True] else 0.0
        m["bench.trace_overhead_frac"] = float(traced / untraced - 1.0) if untraced else 0.0
        lags = [obs.lag[rid] for rid in attempted if rid in obs.lag]
        m["bench.gen_lag_p99_ms"] = p99(lags) * 1e3
    else:
        done = {False: 0, True: 0}
        for rid, response in obs.responses.items():
            kind = window.traced_time(obs.done[rid])
            if response.ok and kind is not None:
                done[kind] += 1
        length = {False: 0.0, True: 0.0}
        for traced, t0, t1 in window.segments:
            length[traced] += t1 - t0
        if done[False] and length[True]:
            overhead = 1.0 - (done[True] / length[True]) / (done[False] / length[False])
        else:
            overhead = 0.0
        m["bench.trace_overhead_frac"] = overhead
        m["bench.gen_lag_p99_ms"] = 0.0
    return m


# -------------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, mode: str, spans_path: Optional[str]) -> dict:
    system = SYSTEMS[workload]()
    recorder = SpanRecorder() if mode == "traced" else None
    try:
        obs = Observed()
        system.probe(obs)
        if mode == "cold":
            return {"first_response_at": obs.first_response_at}
        before = system.kernel_cache()
        try:
            window = system.drive(seed, seconds, recorder, obs)
        finally:
            if recorder is not None:
                recorder.restore()
        after = system.kernel_cache()
        hit_rate = system.artifact_hit_rate()
    finally:
        system.close()
    times = os.times()
    cpu_s = times.user + times.system + times.children_user + times.children_system

    attempted, ok = window_requests(obs, window)
    result = {
        "first_response_at": obs.first_response_at,
        "attempted": len(attempted),
        "failed": len(attempted) - len(ok),
        "problems": gate(obs, window),
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "native": native_status(),
        },
    }
    if recorder is None:
        result["metrics"] = end_to_end(obs, window, cpu_s)
        return result

    latency_by_key = {
        system.key_of(rid, obs.level[rid]): obs.latency(rid)
        for rid, response in obs.responses.items()
        if response.ok and rid in obs.start
    }
    traced = [(t0, t1) for is_traced, t0, t1 in window.segments if is_traced]
    metrics = span_metrics(recorder.spans, traced, system.workers, latency_by_key, system.key_of)
    metrics.update(layer_extras(obs, window, workload, before, after, hit_rate))
    result["metrics"] = metrics
    result["checks"] = {"kernel_vs_stage_ms": stage_agreement(recorder.spans)}
    if spans_path:
        recorder.write_jsonl(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--mode", choices=("cold", "untraced", "traced"), required=True)
    parser.add_argument("--spans", default=None, help="traced pass: write spans here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, args.mode, args.spans)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
