"""Counter-based (order-independent) randomness for fault injection.

A fault injector drawing from one shared sequential ``random.Random``
consumes stream state on every call, so its fault schedule depends on
*the order requests are asked about* — which is exactly the batch
composition and execution order.  That coupling forces fault handling
onto a requeue-with-backoff path: retrying a faulted request inside its
own batch would change the draw order for every later request and
silently shift the whole campaign.

:class:`repro.serve.batching.FaultInjector` uses this module instead: every draw is a pure
function of ``(seed, label, request_id, attempt)``, derived by hashing
the key with BLAKE2b and mapping the 64-bit digest onto the needed
range.  Properties the rest of the system builds on:

* **Order independence** — the schedule of a request's attempt is the
  same whether it is asked first or last, alone or in a batch, by the
  serving executor or the reference replay, inline or after a requeue.
* **Replayability** — a reference executor can *predict* the schedule
  without consuming anything, which is what lets the verifylab oracle
  check mixed faulty/clean batches exactly.
* **Determinism per seed** — same seed, same schedule, forever; there
  is no hidden stream position to desynchronize.

The digest-to-uniform mapping uses the top 53 bits (a double's mantissa
width) so ``uniform`` is an exact dyadic rational in ``[0, 1)``; the
modulo for small ranges carries a bias below ``2**-57`` for any pipeline
length that fits in memory — immeasurable against fault rates quoted to
two decimals.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["CounterRng"]


class CounterRng:
    """Keyed deterministic draws: hash ``(seed, label, counter...)``."""

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = int(seed)

    def digest(self, label: str, request_id: int, attempt: int) -> int:
        """64-bit digest of one (label, request, attempt) key."""
        key = f"{self.seed}:{label}:{request_id}:{attempt}".encode("utf-8")
        return int.from_bytes(
            hashlib.blake2b(key, digest_size=8).digest(), "big"
        )

    def uniform(self, label: str, request_id: int, attempt: int) -> float:
        """Deterministic uniform in ``[0, 1)`` for one key."""
        return (self.digest(label, request_id, attempt) >> 11) * 2.0**-53

    def randbelow(self, n: int, label: str, request_id: int, attempt: int) -> int:
        """Deterministic integer in ``[0, n)`` for one key.

        Raises
        ------
        ValueError
            If ``n`` is not positive.
        """
        if n <= 0:
            raise ValueError(f"randbelow needs a positive bound, got {n}")
        return self.digest(label, request_id, attempt) % n

    def stream(self, label: str, request_id: int, attempt: int) -> random.Random:
        """A fresh sequential generator seeded from one key — for
        variable-length draw sequences (e.g. the SEU burst bit positions
        of one scrub event) that must still be order-independent
        *between* events."""
        return random.Random(self.digest(label, request_id, attempt))
