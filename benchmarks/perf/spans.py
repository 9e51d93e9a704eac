"""Timing wrappers around the program's public layer functions.

The traced pass of the benchmark installs these wrappers from the
benchmark's own files, so no file of the program changes.  Each wrapped
call records one :class:`Span` in memory: its name, start and end on the
service clock (``time.monotonic``), the span that was open on the same
thread when it started (its parent), the thread, and a few attributes the
layer metrics need (a request id, a batch id, a stage).  When the pass
ends the original functions are put back and the spans are written out as
JSON lines.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    """One timed call."""

    span_id: int
    name: str
    t0: float
    t1: float
    parent: Optional[int]
    thread: str
    attrs: Optional[dict]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.t0, span.t1))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reached = span.t0
        for t0, t1 in sorted(children.get(span.span_id, ())):
            start = max(t0, reached)
            end = min(t1, span.t1)
            if end > start:
                covered += end - start
                reached = end
        out[span.span_id] = span.duration - covered
    return out


# --------------------------------------------------------------- describers
#
# Each takes the wrapped call's positional arguments and its return value
# and returns the span's attributes.  They run on the hot path, so they
# read a field or two and nothing more.


def _request_arg(args, result) -> dict:
    return {"request_id": args[1].request_id}


def _taken(args, result) -> dict:
    # Queue wait of every request the broker hands out, on the broker's
    # own clock: the moment take returns minus the submit stamp.
    now = time.monotonic()
    return {"waits": [(r.request_id, r.level, now - r.submitted_at) for r in result]}


def _formed(args, result) -> Optional[dict]:
    if result is None:
        return None
    return {"batch_id": result.batch_id, "size": result.size}


def _executed(args, result) -> dict:
    batch = args[1]
    return {
        "batch_id": batch.batch_id,
        "requests": [(r.request_id, r.level) for r in batch.requests],
    }


def _loaded(args, result) -> dict:
    return {
        "stage": result.module,
        "configured": result.config.bitstream_bytes > 0,
        "device_s": result.total_time_s,
    }


def _staged(args, result) -> dict:
    return {"stage": args[1], "n": len(args[2])}


def _observed(args, result) -> Optional[dict]:
    # Only the per-stage compute histograms: the reference the kernel
    # spans are checked against.
    name = args[1]
    if not name.startswith("stage_"):
        return None
    return {"metric": name, "value": args[2]}


class Target(NamedTuple):
    """One wrapped function.  ``root`` functions may open a span on a
    thread with no open span; the others are recorded only inside a
    recorded root, so a trace never holds the tail of a call whose start
    was not traced (the slot loads of a batch that began untraced)."""

    module: str
    path: str
    name: str
    describe: Optional[Callable] = None
    root: bool = True


#: The public layer functions the traced pass wraps.  Module-level
#: functions are wrapped where the layer binds them (``repro.net.server``),
#: so other importers of the same codec function are not counted.
TARGETS: Tuple[Target, ...] = (
    Target("repro.serve.pool", "FleetService.submit", "serve.submit", _request_arg),
    Target("repro.serve.batching", "BatchScheduler.next_batch", "serve.next_batch", _formed),
    Target("repro.serve.requests", "RequestBroker.take", "serve.take", _taken, root=False),
    Target("repro.serve.batching", "BatchExecutor.execute", "serve.execute", _executed),
    Target("repro.reconfig.controller", "ReconfigController.load", "reconfig.load",
           _loaded, root=False),
    Target("repro.kernels.engine", "VectorEngine.run_stage", "kernels.run_stage",
           _staged, root=False),
    Target("repro.serve.metrics", "Metrics.observe", "metrics.observe",
           _observed, root=False),
    Target("repro.net.protocol", "LineDecoder.feed", "net.feed"),
    Target("repro.net.server", "request_from_wire", "net.request_from_wire"),
    Target("repro.net.server", "response_to_wire", "net.response_to_wire"),
    Target("repro.net.server", "encode_message", "net.encode_message"),
)

_MISSING = object()


class SpanRecorder:
    """Installs timing wrappers, keeps their spans, restores the originals.

    Spans are appended from whichever thread makes the call (a list append
    is atomic in CPython); the parent of a span is the innermost recorded
    call still open on the same thread.  A call that raises records no
    span.  After :meth:`stop` no new root span opens, while the open ones
    finish with all their nested calls; :attr:`idle` tells when they have.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Every thread's stack of open span ids (each thread appends and
        #: pops only its own).
        self._stacks: List[List[int]] = []
        #: (owner, attribute, what ``vars(owner)`` held before patching).
        self._saved: List[Tuple[object, str, object]] = []

    @property
    def idle(self) -> bool:
        """No recorded call is open on any thread."""
        return not any(self._stacks)

    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        """Wrap every target and start recording; a second install without
        a restore is an error (it would wrap the wrappers)."""
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        for target in targets:
            owner = importlib.import_module(target.module)
            *outer, attr = target.path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), target))
        self.recording = True

    def stop(self) -> None:
        """Open no new root span; the wrappers stay in place."""
        self.recording = False

    def restore(self) -> None:
        """Stop, and put back exactly what each owner held before
        :meth:`install`."""
        self.recording = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, original: Callable, target: Target) -> Callable:
        recorder = self
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.monotonic
        current_thread = threading.current_thread
        name, describe, root = target.name, target.describe, target.root

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                recorder._stacks.append(stack)
            if not stack and not (root and recorder.recording):
                return original(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append(
                Span(
                    span_id,
                    name,
                    t0,
                    t1,
                    parent,
                    current_thread().name,
                    describe(args, result) if describe is not None else None,
                )
            )
            return result

        return wrapper

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "id": span.span_id,
                    "name": span.name,
                    "t0": span.t0,
                    "t1": span.t1,
                    "parent": span.parent,
                    "thread": span.thread,
                }
                if span.attrs:
                    record.update(span.attrs)
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
