"""Versioned wire codec for the sharded fleet transport.

Requests and responses crossed process boundaries as live Python objects
until the shard layer forced the question the paper's Ethernet/Profibus
front end answers in hardware: what exactly goes on the wire?  The
answer here is deliberately boring — UTF-8 JSON in a versioned envelope
— because boring is what survives version skew between a router and a
restarted worker, and because JSON's shortest-round-trip float encoding
(``repr``-based since Python 3.1) preserves every measurement bit, which
the sharded differential oracle depends on for *exact* equality.

:func:`encode` / :func:`decode` wrap a message kind and payload dict
with the protocol version; unknown versions and malformed envelopes
raise :class:`WireError` instead of half-parsing.  The transports frame
envelopes themselves: the shard router ships them with
``Connection.send_bytes``, the TCP front door one per line
(:mod:`repro.net.protocol`).

Model translation (:func:`request_to_wire` & co.) is total over the
serializable fields; the one deliberately dropped field is a request's
attached ``trace`` (traces are collected per shard, not shipped per
message).
"""

from __future__ import annotations

import json
from typing import Tuple

from repro.serve.requests import MeasurementRequest, MeasurementResponse

#: Protocol version of the envelopes this module emits.
WIRE_VERSION = 1

#: Message kinds the shard transport speaks.
KIND_HELLO = "hello"
KIND_SUBMIT = "submit"
KIND_RESTORE = "restore"
KIND_REJECT = "reject"
KIND_RESPONSE = "responses"
KIND_PING = "ping"
KIND_PONG = "pong"
KIND_SNAPSHOT = "snapshot"
KIND_SNAPSHOT_REPLY = "snapshot_reply"
KIND_SHUTDOWN = "shutdown"
KIND_BYE = "bye"
#: Structured per-message failure reply (the TCP front door's answer to a
#: malformed or disallowed client message — see :mod:`repro.net`).
KIND_ERROR = "error"

KNOWN_KINDS = frozenset(
    {
        KIND_HELLO,
        KIND_SUBMIT,
        KIND_RESTORE,
        KIND_REJECT,
        KIND_RESPONSE,
        KIND_PING,
        KIND_PONG,
        KIND_SNAPSHOT,
        KIND_SNAPSHOT_REPLY,
        KIND_SHUTDOWN,
        KIND_BYE,
        KIND_ERROR,
    }
)

class WireError(ValueError):
    """Malformed, unknown-version or unknown-kind wire data."""


# ------------------------------------------------------------------ envelope


def encode(kind: str, payload: dict) -> bytes:
    """Wrap ``payload`` in a versioned envelope and serialize it.

    Raises
    ------
    WireError
        On an unknown message kind or unserializable payload.
    """
    if kind not in KNOWN_KINDS:
        raise WireError(f"unknown message kind {kind!r}")
    try:
        return json.dumps(
            {"v": WIRE_VERSION, "kind": kind, "payload": payload},
            separators=(",", ":"),
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"unserializable {kind} payload: {exc}") from exc


def decode(data: bytes) -> Tuple[str, dict]:
    """Parse an envelope; returns ``(kind, payload)``.

    Raises
    ------
    WireError
        On malformed JSON, a missing/unsupported version, or an unknown
        message kind.
    """
    try:
        envelope = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed wire data: {exc}") from exc
    if not isinstance(envelope, dict):
        raise WireError(f"envelope must be an object, got {type(envelope).__name__}")
    version = envelope.get("v")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version!r} (speak {WIRE_VERSION})")
    kind = envelope.get("kind")
    if kind not in KNOWN_KINDS:
        raise WireError(f"unknown message kind {kind!r}")
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise WireError(f"{kind} payload must be an object")
    return kind, payload


# ------------------------------------------------------------ model mapping


def request_to_wire(request: MeasurementRequest) -> dict:
    """Serializable dict of one request (the ``trace`` field is not
    shipped — traces are collected per shard)."""
    return {
        "request_id": request.request_id,
        "tank_id": request.tank_id,
        "level": request.level,
        "pipeline": list(request.pipeline),
        "deadline_s": request.deadline_s,
        "max_attempts": request.max_attempts,
        "attempts": request.attempts,
        "submitted_at": request.submitted_at,
        "not_before_s": request.not_before_s,
        "priority": request.priority,
        "kind": request.kind,
    }


def request_from_wire(data: dict) -> MeasurementRequest:
    """Rebuild a request; field validation re-runs in ``__post_init__``.

    Raises
    ------
    WireError
        On missing fields or values the model rejects.
    """
    try:
        return MeasurementRequest(
            request_id=data["request_id"],
            tank_id=data["tank_id"],
            level=data["level"],
            pipeline=tuple(data["pipeline"]),
            deadline_s=data.get("deadline_s"),
            max_attempts=data.get("max_attempts", 3),
            attempts=data.get("attempts", 0),
            submitted_at=data.get("submitted_at", 0.0),
            not_before_s=data.get("not_before_s", 0.0),
            # Absent on envelopes from pre-priority peers: default tier/kind
            # keeps the old wire format decodable (WIRE_VERSION unchanged).
            priority=data.get("priority", 0),
            kind=data.get("kind", "measure"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad request on the wire: {exc}") from exc


def response_to_wire(response: MeasurementResponse) -> dict:
    """Serializable dict of one terminal response (all fields)."""
    return {
        "request_id": response.request_id,
        "tank_id": response.tank_id,
        "status": response.status,
        "level_measured": response.level_measured,
        "capacitance_pf": response.capacitance_pf,
        "energy_j": response.energy_j,
        "device_time_s": response.device_time_s,
        "latency_s": response.latency_s,
        "attempts": response.attempts,
        "worker": response.worker,
        "batch_id": response.batch_id,
        "batch_size": response.batch_size,
        "error": response.error,
    }


def response_from_wire(data: dict) -> MeasurementResponse:
    """Rebuild a response from its wire dict.

    Raises
    ------
    WireError
        On missing required fields.
    """
    try:
        return MeasurementResponse(
            request_id=data["request_id"],
            tank_id=data["tank_id"],
            status=data["status"],
            level_measured=data.get("level_measured"),
            capacitance_pf=data.get("capacitance_pf"),
            energy_j=data.get("energy_j", 0.0),
            device_time_s=data.get("device_time_s", 0.0),
            latency_s=data.get("latency_s", 0.0),
            attempts=data.get("attempts", 0),
            worker=data.get("worker"),
            batch_id=data.get("batch_id"),
            batch_size=data.get("batch_size", 0),
            error=data.get("error", ""),
        )
    except KeyError as exc:
        raise WireError(f"bad response on the wire: missing {exc}") from exc
