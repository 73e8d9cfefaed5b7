"""Deterministic open-loop request schedule for ``serve_g3_mix``.

Everything here is a function of ``seed`` alone; the scheduler under
test only ever sees the generated ``ForecastRequest`` objects at their
due times.

The load has a fixed *structure* and a seeded *content*.  Structure:
each stream (the steady one over the whole round, the extra burst one
over its window) places rate x duration arrivals, one per equal slot;
over the merged arrival sequence ``PATTERN`` says which arrivals are new
requests (60 %) and which re-issue an earlier one, and ``LAGS`` says how
many arrivals back (within the last 16).  Content, from the seed: where
in the middle half of its slot each arrival falls, and every new
request's own seed (so its initial state and digest).

The issue first asked for Poisson arrivals with a Bernoulli new/repeat
draw.  Measured over ten seeds that moved p50 by 2.8x and p90 by 3.3x,
and the same seed repeated itself to within 5 %: at ~50 requests per
round it is the drawn schedule, not the system, that such numbers
measure — one seed's burst holds 7 repeats of requests still in flight
(computed twice), another's 1.  Fixing the structure gives every seed
the same offered load, cold count and in-flight-duplicate opportunities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serve.request import ForecastRequest

RATE = 8.0                 # steady arrivals [req/s]
BURST_RATE = 24.0          # extra arrivals inside the burst window [req/s]
BURST_WINDOW = (3.5 / 8.0, 5.0 / 8.0)   # as a share of the round
PATTERN = (True, True, False, True, False)   # new?  60 % of arrivals are new requests
LAGS = (2, 5, 11, 3, 16, 7)                  # a repeat re-issues the arrival this far back
SCHEMES = ("DP-PHY", "MIX-ML")
LEVEL, NLEV, STEPS = 3, 8, 6


@dataclass(frozen=True)
class Arrival:
    due: float                   # seconds after the round starts
    request: ForecastRequest
    repeat: bool                 # re-issue of an earlier arrival's request


def _stream(rng, start: float, end: float, n: int):
    """``n`` arrivals in [start, end), one in the middle half of each slot."""
    slot = (end - start) / n
    return start + slot * (np.arange(n) + rng.uniform(0.25, 0.75, size=n))


def make_schedule(seed: int, round_s: float) -> list[Arrival]:
    rng = np.random.default_rng([seed, 0x5E7E])
    b0, b1 = (f * round_s for f in BURST_WINDOW)
    due = np.sort(np.concatenate([
        _stream(rng, 0.0, round_s, round(RATE * round_s)),
        _stream(rng, b0, b1, round(BURST_RATE * (b1 - b0))),
    ]))
    request_seeds = rng.integers(1, 2**31 - 1, size=due.size)

    issued: list[ForecastRequest] = []
    n_new = n_repeat = 0
    out = []
    for i, (t, rs) in enumerate(zip(due, request_seeds)):
        lag = LAGS[n_repeat % len(LAGS)]
        new = PATTERN[i % len(PATTERN)] or lag > len(issued)
        if new:
            req = ForecastRequest(
                level=LEVEL, nlev=NLEV, steps=STEPS, seed=int(rs),
                scheme=SCHEMES[n_new % len(SCHEMES)],
            )
            n_new += 1
        else:
            req = issued[-lag]
            n_repeat += 1
        issued.append(req)
        out.append(Arrival(float(t), req, not new))
    return out
