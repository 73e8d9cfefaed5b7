"""Regression corpus of known-racy parallel plans (RD001-RD005).

Every RD rule has at least one seeded plan here that must keep tripping
it — statically suspected by :class:`StaticRaceAnalyzer` AND dynamically
CONFIRMED by the replay (the same conflict pass over observed index
sets) — plus false-positive variants the replay must demote.  Each
case is a small hand-built :class:`ParallelPlan` encoding one mutation
of the real lockstep schedule: a pack moved onto a rank lane without
sync, an omitted exchange, a missed barrier, byte-aliased arena slots,
an unordered float reduction.  ``repro lint --parallel`` and CI run the analyzer
over this corpus and fail if any case stops producing its expected
rule with its expected verdict.
"""

from __future__ import annotations

from repro.analysis.corpus import CorpusCase
from repro.analysis.diagnostics import CONFIRMED, FALSE_POSITIVE
from repro.analysis.parallel_plan import (
    DRIVER,
    Access,
    ParallelPlan,
    PlanOp,
)
from repro.analysis.parallel_plan import (
    OpKind as K,
)


def _aliased_tendency_slots() -> ParallelPlan:
    """RD001: two ranks' tendency slots carved over the same bytes.

    The arena re-carve bug: rank1's slot extent starts inside rank0's,
    so the concurrent per-rank writes between the round barriers hit
    overlapping memory under different names.
    """
    slot = [Access("rank0.slot0.ps", mode="w"),
            Access("rank1.slot0.ps", mode="w")]
    return ParallelPlan(
        name="aliased_tendency_slots",
        ops=[
            PlanOp(name="round.begin", kind=K.BARRIER),
            PlanOp(name="tend.rank0", kind=K.COMPUTE, lane=0,
                   accesses=[Access("rank0.ps", mode="r"), slot[0]]),
            PlanOp(name="tend.rank1", kind=K.COMPUTE, lane=1,
                   accesses=[Access("rank1.ps", mode="r"), slot[1]]),
            PlanOp(name="round.end", kind=K.BARRIER),
        ],
        arena={
            "rank0.slot0.ps": (0, 512),
            "rank1.slot0.ps": (256, 512),   # starts inside rank0's extent
            "rank0.ps": (1024, 256),
            "rank1.ps": (1280, 256),
        },
    )


def _halo_read_before_recv() -> ParallelPlan:
    """RD002: a rank's stencil runs concurrently with the unpack.

    The overlap-gone-wrong schedule: the exchange is posted but the
    consumer round starts without waiting, so the compute's halo reads
    (indices 8..11 = the recv set) race the unpack's writes.
    """
    return ParallelPlan(
        name="halo_read_before_recv",
        ops=[
            PlanOp(name="e1.pack.1to0", kind=K.PACK, lane=DRIVER, epoch=1,
                   accesses=[Access("xbuf.1.0", mode="w"),
                             Access("rank1.theta", mode="r",
                                    indices=(0, 1, 2, 3))]),
            PlanOp(name="e1.unpack.0from1", kind=K.UNPACK, lane=DRIVER,
                   epoch=1,
                   accesses=[Access("xbuf.1.0", mode="r"),
                             Access("rank0.theta", mode="w",
                                    indices=(8, 9, 10, 11))]),
            # No barrier: the compute lane never waits for the unpack.
            PlanOp(name="tend.rank0", kind=K.COMPUTE, lane=0,
                   accesses=[Access("rank0.theta", mode="r"),
                             Access("rank0.slot0.theta_mass", mode="w")]),
        ],
        edges=[("e1.pack.1to0", "e1.unpack.0from1")],
        halo_recv={"rank0.theta": (8, 9, 10, 11)},
    )


def _halo_never_received() -> ParallelPlan:
    """RD002 (stale variant): the exchange was simply omitted."""
    return ParallelPlan(
        name="halo_never_received",
        ops=[
            PlanOp(name="round.begin", kind=K.BARRIER),
            PlanOp(name="tend.rank0", kind=K.COMPUTE, lane=0,
                   accesses=[Access("rank0.theta", mode="r"),
                             Access("rank0.slot0.theta_mass", mode="w")]),
            PlanOp(name="round.end", kind=K.BARRIER),
        ],
        halo_recv={"rank0.theta": (8, 9, 10, 11)},
    )


def _inflight_pack_reuse() -> ParallelPlan:
    """RD003: the epoch-2 pack rewrites a buffer still being drained.

    Zero-copy handoff gone wrong: the driver repacks ``xbuf.0.1`` for
    the next exchange while rank 1's unpack of the previous epoch still
    reads the same persistent buffer (no sync edge orders them).
    """
    return ParallelPlan(
        name="inflight_pack_reuse",
        ops=[
            PlanOp(name="e1.pack.0to1", kind=K.PACK, lane=DRIVER, epoch=1,
                   accesses=[Access("xbuf.0.1", mode="w"),
                             Access("rank0.theta", mode="r",
                                    indices=(0, 1, 2, 3))]),
            # The unpack runs on the receiving rank's lane: delivery of
            # the payload is ordered, draining it is NOT.
            PlanOp(name="e1.unpack.1from0", kind=K.UNPACK, lane=1, epoch=1,
                   accesses=[Access("xbuf.0.1", mode="r"),
                             Access("rank1.theta", mode="w",
                                    indices=(6, 7))]),
            PlanOp(name="e2.pack.0to1", kind=K.PACK, lane=DRIVER, epoch=2,
                   accesses=[Access("xbuf.0.1", mode="w"),
                             Access("rank0.theta", mode="r",
                                    indices=(0, 1, 2, 3))]),
        ],
        edges=[("e1.pack.0to1", "e1.unpack.1from0")],
    )


def _missing_stage_barrier() -> ParallelPlan:
    """RD004: the apply consumes a tendency slot with no barrier.

    The pipelined-RK mutation: stage 1's evaluation writes its slot on
    lane 0 while the driver's apply reads the same slot with no
    intervening executor round barrier.
    """
    return ParallelPlan(
        name="missing_stage_barrier",
        ops=[
            PlanOp(name="tend.s1.rank0", kind=K.COMPUTE, lane=0, stage=1,
                   accesses=[Access("rank0.theta", mode="r"),
                             Access("rank0.slot0.theta_mass", mode="w")]),
            # No round.end barrier here.
            PlanOp(name="apply.s1", kind=K.APPLY, lane=DRIVER, stage=1,
                   accesses=[Access("rank0.slot0.theta_mass", mode="r"),
                             Access("rank0.theta", mode="w")]),
        ],
    )


def _unordered_reduction() -> ParallelPlan:
    """RD005: rank-count-dependent float summation, no tolerance.

    The contributions are chosen so linear (left-to-right) and tree
    (pairwise) summation differ bitwise — exactly what changes when the
    rank count changes the reduction shape.
    """
    return ParallelPlan(
        name="unordered_reduction",
        ops=[
            PlanOp(name="global_mass", kind=K.REDUCE, lane=DRIVER,
                   order_sensitive=True, tolerance=None,
                   values=(1.0e16, 1.0, -1.0e16, 1.0),
                   accesses=[Access("diag.mass", mode="w")]),
        ],
    )


def _disjoint_observed_writes() -> ParallelPlan:
    """RD001 statically, FALSE_POSITIVE dynamically.

    Two concurrent computes declare whole-array writes to one shared
    diagnostic buffer (the conservative declaration), but the observed
    index sets are disjoint halves — the replay must demote the static
    suspicion.
    """
    return ParallelPlan(
        name="disjoint_observed_writes",
        ops=[
            PlanOp(name="round.begin", kind=K.BARRIER),
            PlanOp(name="diag.rank0", kind=K.COMPUTE, lane=0,
                   accesses=[Access("shared.diag", mode="w",
                                    observed=(0, 1, 2, 3))]),
            PlanOp(name="diag.rank1", kind=K.COMPUTE, lane=1,
                   accesses=[Access("shared.diag", mode="w",
                                    observed=(4, 5, 6, 7))]),
            PlanOp(name="round.end", kind=K.BARRIER),
        ],
    )


def _benign_reduction() -> ParallelPlan:
    """RD005 statically, FALSE_POSITIVE dynamically.

    Declared order-sensitive without a tolerance, but the contributions
    sum identically in any order (exactly representable), so the replay
    demotes it.
    """
    return ParallelPlan(
        name="benign_reduction",
        ops=[
            PlanOp(name="cell_count", kind=K.REDUCE, lane=DRIVER,
                   order_sensitive=True, tolerance=None,
                   values=(1.0, 2.0, 3.0, 4.0),
                   accesses=[Access("diag.count", mode="w")]),
        ],
    )


#: name -> case.  CONFIRMED cases lead; FALSE_POSITIVE demotions follow.
KNOWN_RACY_PLANS: dict = {
    c.name: c for c in [
        CorpusCase("aliased_tendency_slots", frozenset({"RD001"}),
                   _aliased_tendency_slots, CONFIRMED),
        CorpusCase("halo_read_before_recv", frozenset({"RD002"}),
                   _halo_read_before_recv, CONFIRMED),
        CorpusCase("halo_never_received", frozenset({"RD002"}),
                   _halo_never_received, CONFIRMED),
        CorpusCase("inflight_pack_reuse", frozenset({"RD003"}),
                   _inflight_pack_reuse, CONFIRMED),
        CorpusCase("missing_stage_barrier", frozenset({"RD004"}),
                   _missing_stage_barrier, CONFIRMED),
        CorpusCase("unordered_reduction", frozenset({"RD005"}),
                   _unordered_reduction, CONFIRMED),
        CorpusCase("disjoint_observed_writes", frozenset({"RD001"}),
                   _disjoint_observed_writes, FALSE_POSITIVE),
        CorpusCase("benign_reduction", frozenset({"RD005"}),
                   _benign_reduction, FALSE_POSITIVE),
    ]
}
