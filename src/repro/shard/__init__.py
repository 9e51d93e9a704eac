"""Sharded multi-process fleet: consistent-hash routing over N
independent :class:`repro.serve.FleetService` processes speaking a
versioned wire protocol, with process-level supervision and zero-loss
crash re-delivery."""

from repro.shard.config import ShardConfig, default_start_method
from repro.shard.hashring import ConsistentHashRing
from repro.shard.router import ShardRouter
from repro.shard.supervisor import ShardSupervisor
from repro.shard.wire import (
    WIRE_VERSION,
    WireError,
    decode,
    encode,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)

__all__ = [
    "ShardConfig",
    "ConsistentHashRing",
    "ShardRouter",
    "ShardSupervisor",
    "default_start_method",
    "WIRE_VERSION",
    "WireError",
    "encode",
    "decode",
    "request_to_wire",
    "request_from_wire",
    "response_to_wire",
    "response_from_wire",
]
