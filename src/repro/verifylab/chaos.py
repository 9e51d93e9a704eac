"""Chaos campaign: runtime-fault injection with recovery + integrity gates.

Where :mod:`repro.verifylab.campaign` strikes the simulated *device*
(SEU bursts in configuration memory), this campaign strikes the serving
*runtime* itself: seeded worker crashes mid-batch, executor exceptions
and clock skew (:mod:`repro.chaos`), served by a supervised
:class:`repro.serve.FleetService`.  Two gates come out the other side:

* **Recovery** — every admitted request must still reach a terminal
  response (ok / failed / expired); the supervisor's crash re-delivery
  and worker restarts are what make that true.
* **Integrity** — every ``ok`` response must still match the
  :class:`repro.verifylab.oracle.ReferenceExecutor` answer: chaos uses
  the same one-tank-per-request, noise-free workloads as the SEU
  campaigns, so re-execution after a crash cannot legally change any
  result.

Injection decisions are seeded and budget-capped, so fault *counts* are
exactly reproducible; thread scheduling decides which worker draws each
strike, so the gates assert rates and totals, not per-worker traces.

:func:`run_shard_chaos_campaign` lifts the same two gates one level up:
the faults are whole shard *processes* SIGKILLed mid-run, and recovery
is the shard supervisor's process restart + wire-level re-delivery.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.app.system import SystemConfig
from repro.chaos import ChaosConfig, ChaosMonkey
from repro.serve.pool import FleetService
from repro.serve.supervisor import SupervisorConfig
from repro.shard.config import ShardConfig
from repro.shard.router import ShardRouter
from repro.verifylab.campaign import campaign_scenario
from repro.verifylab.oracle import ReferenceExecutor, integrity


def run_chaos_campaign(
    requests: int = 48,
    seed: int = 0,
    workers: int = 3,
    crash_rate: float = 0.25,
    exec_error_rate: float = 0.0,
    clock_skew_s: float = 0.0,
    max_crashes: Optional[int] = 3,
    max_exec_errors: Optional[int] = 6,
    max_attempts: int = 3,
    max_batch: int = 8,
    timeout_s: float = 120.0,
    supervisor_config: Optional[SupervisorConfig] = None,
) -> dict:
    """Serve one campaign workload under runtime chaos; JSON-ready report.

    ``report["ok"]`` requires both gates: every admitted request reached a
    terminal response (``terminal_rate == 1.0``) and every ok response
    matched the oracle reference.  Callers (CLI, the recovery benchmark)
    judge ``terminal_rate`` against their own floor.
    """
    scenario = campaign_scenario(
        requests, seed, max_attempts=max_attempts, max_batch=max_batch
    )
    reference = ReferenceExecutor(scenario).run()
    monkey = ChaosMonkey(
        ChaosConfig(
            seed=seed,
            crash_rate=crash_rate,
            exec_error_rate=exec_error_rate,
            clock_skew_s=clock_skew_s,
            max_crashes=max_crashes,
            max_exec_errors=max_exec_errors,
        )
    )
    supervisor_config = supervisor_config or SupervisorConfig(interval_s=0.02)
    service = FleetService(
        workers=workers,
        max_batch=scenario.max_batch,
        queue_capacity=requests + 16,
        batched=True,
        seed=scenario.seed,
        config=SystemConfig(circuit=scenario.circuit),
        noise_rms=scenario.noise_rms,
        clock=monkey.skewed_clock(time.monotonic),
        chaos=monkey,
        supervisor_config=supervisor_config,
    )
    admitted, rejected = service.submit_many(scenario.requests())
    service.start()
    completed = service.await_responses(admitted, timeout_s=timeout_s)
    service.shutdown(drain=True, timeout_s=30.0)
    responses = {r.request_id: r for r in service.responses()}
    snapshot = service.metrics_snapshot()

    terminal = len(responses)
    ok_count = sum(1 for r in responses.values() if r.ok)
    failed = sum(1 for r in responses.values() if r.status == "failed")
    expired = sum(1 for r in responses.values() if r.status == "expired")

    checks = integrity(responses.values(), reference)

    counters = snapshot["counters"]
    report = {
        "workload": scenario.to_dict(),
        "chaos": monkey.snapshot(),
        "admitted": admitted,
        "rejected": len(rejected),
        "terminal": terminal,
        "terminal_rate": (terminal / admitted) if admitted else 1.0,
        "completed_in_time": completed,
        "responses": {"ok": ok_count, "failed": failed, "expired": expired},
        "recovery": {
            "worker_crashes": counters.get("worker_crashes", 0),
            "worker_restarts": counters.get("worker_restarts", 0),
            "requests_redelivered": counters.get("requests_redelivered", 0),
            "worker_errors": counters.get("worker_errors", 0),
            "requests_retried": counters.get("requests_retried", 0),
            "breaker_trips": counters.get("breaker_trips", 0),
            "breaker_resets": counters.get("breaker_resets", 0),
            "requests_shed_expired": counters.get("requests_shed_expired", 0),
            "requests_shed_early": counters.get("requests_shed_early", 0),
        },
        "supervisor": snapshot.get("supervisor", {}),
        "integrity": checks,
    }
    report["ok"] = terminal == admitted and not checks["mismatches"]
    return report


def run_shard_chaos_campaign(
    requests: int = 64,
    seed: int = 0,
    shards: int = 3,
    kills: int = 1,
    timeout_s: float = 120.0,
) -> dict:
    """SIGKILL shard *processes* mid-run; gate on zero lost requests.

    The process-level sibling of :func:`run_chaos_campaign`: the same
    one-tank-per-request noise-free workload, but the faults are whole
    shard processes killed with SIGKILL while their queues are full.
    The router's in-flight tables plus the shard supervisor's restart +
    ``restore`` re-delivery must get every accepted request to a
    terminal response (``terminal_rate == 1.0``), and — because the
    workload makes every answer a pure function of (seed, tank, level) —
    every re-executed ``ok`` answer must still match the reference
    exactly.  Each kill targets the shard with the most in-flight work,
    after waiting for partial progress so the pipe holds undrained
    responses at kill time (the dedup path gets exercised too).
    """
    if kills < 0:
        raise ValueError(f"kills must be >= 0, got {kills}")
    scenario = campaign_scenario(requests, seed)
    reference = ReferenceExecutor(scenario).run()
    config = ShardConfig(
        shards=shards,
        workers_per_shard=1,
        max_batch=scenario.max_batch,
        queue_capacity=requests + 16,
        batched=True,
        seed=scenario.seed,
        noise_rms=scenario.noise_rms,
        circuit=scenario.circuit,
        heartbeat_interval_s=0.02,
        max_restarts_per_shard=max(3, kills + 1),
    )
    router = ShardRouter(config).start()
    kill_log = []
    try:
        admitted, rejected = router.submit_many(scenario.requests())
        for strike in range(kills):
            # Let roughly a kill's share of the work finish first, so the
            # victim dies with both undrained responses and queued work.
            target_responses = (admitted * (strike + 1)) // (kills + 1)
            router.await_responses(target_responses, timeout_s=timeout_s)
            victim = max(router.inflight_by_shard().items(), key=lambda kv: kv[1])[0]
            try:
                pid = router.kill_shard(victim)
            except RuntimeError:
                continue  # victim already between generations; skip strike
            kill_log.append({"shard": victim, "pid": pid, "strike": strike})
        completed = router.await_responses(admitted, timeout_s=timeout_s)
        snapshot = router.metrics_snapshot()
    finally:
        router.shutdown(drain=True, timeout_s=30.0)
    responses = {r.request_id: r for r in router.responses()}

    terminal = len(responses)
    ok_count = sum(1 for r in responses.values() if r.ok)
    failed = sum(1 for r in responses.values() if r.status == "failed")
    expired = sum(1 for r in responses.values() if r.status == "expired")

    checks = integrity(responses.values(), reference)

    router_counters = snapshot["router"]["counters"]
    report = {
        "workload": scenario.to_dict(),
        "shards": shards,
        "kills": kill_log,
        "admitted": admitted,
        "rejected": len(rejected),
        "terminal": terminal,
        "terminal_rate": (terminal / admitted) if admitted else 1.0,
        "completed_in_time": completed,
        "responses": {"ok": ok_count, "failed": failed, "expired": expired},
        "recovery": {
            "shard_kills": router_counters.get("shard_kills", 0),
            "shard_restarts": router_counters.get("shard_restarts", 0),
            "requests_redelivered": router_counters.get("requests_redelivered", 0),
            "duplicate_responses_dropped": router_counters.get(
                "shard_duplicate_responses", 0
            ),
            "shards_abandoned": router_counters.get("shards_abandoned", 0),
        },
        "supervisor": snapshot.get("supervisor", {}),
        "integrity": checks,
    }
    report["ok"] = (
        terminal == admitted and len(kill_log) == kills and not checks["mismatches"]
    )
    return report
