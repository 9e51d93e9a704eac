"""Priority-tier scenario family.

An industrial tank fleet mixes routine polls with alarm-level readings
(overfill protection, leak detection).  Tiers ride the request path end
to end: a ``priority`` field on :class:`~repro.serve.requests
.MeasurementRequest` (shipped by the shard/net wire codecs), tier-aware
broker insertion (an alarm overtakes routine backlog but never another
request of its own tank — per-tank FIFO is the correctness invariant),
class-aware early shedding (an alarm's admission estimate sees only the
alarm-or-higher queue, so an alarm is never shed while an equal-deadline
routine poll would be admitted), and per-class latency histograms
(``latency_alarm_s`` / ``latency_routine_s``).

The oracle holds this family to exactness: reordering across tanks is
free (each tank's noise stream and filter state advance in that tank's
own submit order), so every response must match the single-system replay
bit for bit — plus a coverage gate that at least one alarm actually
overtook an earlier-submitted routine request, else the scenario proved
nothing about tiering.

The family needs no scenario class of its own: each
:class:`~repro.verifylab.scenarios.Entry` carries its priority tier, so
:func:`generate_priority_scenario` returns a plain
:class:`~repro.verifylab.scenarios.Scenario`.
"""

from __future__ import annotations

import random

from repro.serve.requests import PRIORITY_ALARM, PRIORITY_ROUTINE
from repro.verifylab.scenarios import Entry, Scenario, random_circuit


def generate_priority_scenario(seed: int, max_requests: int = 28) -> Scenario:
    """Derive a mixed-tier scenario entirely from one seed.

    Roughly a quarter of the requests are alarms, never the very first
    submission (an alarm at the queue head has nothing to overtake), and
    each scenario is guaranteed at least one alarm that follows a routine
    request of a *different* tank — the overtake the coverage gate
    requires stays possible by construction.

    Raises
    ------
    ValueError
        If ``max_requests`` leaves room for fewer than two requests.
    """
    if max_requests < 2:
        raise ValueError(f"max_requests must be >= 2, got {max_requests}")
    rng = random.Random(seed)
    n_tanks = rng.randint(2, 4)
    n_requests = rng.randint(
        max(n_tanks, (2 * max_requests) // 3), max_requests
    )
    circuit = random_circuit(rng)
    tanks = [f"tank-{t:03d}" for t in range(n_tanks)]
    fill = {tank: rng.uniform(0.1, 0.9) for tank in tanks}
    entries = []
    for i in range(n_requests):
        tank = tanks[rng.randrange(n_tanks)]
        fill[tank] = min(0.95, max(0.05, fill[tank] + rng.uniform(-0.1, 0.1)))
        alarm = i > 0 and rng.random() < 0.25
        priority = PRIORITY_ALARM if alarm else PRIORITY_ROUTINE
        entries.append(Entry(tank, fill[tank], priority))
    if not any(e.priority >= PRIORITY_ALARM for e in entries[1:]):
        entries[-1] = entries[-1]._replace(priority=PRIORITY_ALARM)
    # Guarantee an overtake is possible: the last alarm must follow a
    # routine request of a different tank (per-tank FIFO would otherwise
    # pin every alarm behind its own tank's backlog).
    alarm_at = max(i for i, e in enumerate(entries) if e.priority >= PRIORITY_ALARM)
    alarm_tank = entries[alarm_at].tank_id
    if not any(e.tank_id != alarm_tank for e in entries[:alarm_at]):
        other = next(t for t in tanks if t != alarm_tank)
        entries[0] = Entry(other, entries[0].level)

    return Scenario(
        seed=seed,
        entries=tuple(entries),
        max_batch=rng.randint(2, 4),
        noise_rms=rng.choice([0.0, 0.001, 0.002]),
        circuit=circuit,
    )
