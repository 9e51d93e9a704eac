"""Configuration of the sharded fleet (picklable: it rides to workers).

One :class:`ShardConfig` describes the whole fleet — every shard process
builds an identical :class:`repro.serve.FleetService` from it (same base
seed, so a tank's deterministic session is the same *whichever* shard it
hashes to, which is what makes the sharded differential oracle exact).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Optional

from repro.serve.pool import DEFAULT_POLICY, POLICIES


def default_start_method() -> str:
    """``fork`` where the platform offers it (fast restarts, warm module
    caches inherited), ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class ShardConfig:
    """Tunables of the shard layer.

    ``queue_capacity`` doubles as the router-side in-flight cap per
    shard: the router refuses (backpressure) before a shard's broker
    ever could, so a worker-side reject is the anomaly path, not the
    steady state.
    """

    shards: int = 2
    workers_per_shard: int = 1
    max_batch: int = 16
    queue_capacity: int = 256
    batched: bool = True
    window_s: float = 0.0
    #: Batch-formation policy of every shard's ``FleetService``.
    policy: str = DEFAULT_POLICY
    fault_rate: float = 0.0
    seed: int = 0
    noise_rms: float = 0.002
    #: Measurement circuit shared by every shard (None = model default).
    circuit: Optional[object] = None
    #: Virtual points per shard on the consistent-hash ring.
    hash_replicas: int = 64
    #: Shard-supervisor sweep period (real time).
    heartbeat_interval_s: float = 0.05
    #: A shard whose last pong is older than this is counted stalled.
    heartbeat_timeout_s: float = 5.0
    #: Process-restart budget per shard id; beyond it the shard is
    #: abandoned and its in-flight requests fail terminally.
    max_restarts_per_shard: int = 3
    #: Run the shard supervisor thread.
    supervise: bool = True
    #: multiprocessing start method ("fork" / "spawn" / "forkserver");
    #: None picks :func:`default_start_method`.
    start_method: Optional[str] = None
    #: When set, each shard records request traces to
    #: ``<trace_path>.shard<k>.jsonl``.
    trace_path: Optional[str] = None
    #: Seconds a worker gets to come up / drain down before the router
    #: escalates (kill on shutdown, restart failure on startup).
    startup_timeout_s: float = 30.0
    shutdown_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"need at least one shard, got {self.shards}")
        if self.workers_per_shard < 1:
            raise ValueError(
                f"need at least one worker per shard, got {self.workers_per_shard}"
            )
        if self.queue_capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {self.queue_capacity}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.heartbeat_interval_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat interval and timeout must be positive")
        if self.max_restarts_per_shard < 0:
            raise ValueError(
                f"restart budget must be >= 0, got {self.max_restarts_per_shard}"
            )
        if self.start_method is not None and self.start_method not in (
            multiprocessing.get_all_start_methods()
        ):
            raise ValueError(f"unsupported start method {self.start_method!r}")

    @property
    def resolved_start_method(self) -> str:
        return self.start_method or default_start_method()
