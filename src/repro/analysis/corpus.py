"""Regression corpora: known-bad plans that must keep tripping their rules.

Every rule of both families has at least one seeded plan here — the
analyzers' ground truth.  ``repro lint`` (``--parallel`` for the RD
half) and CI fail if any case stops producing its expected rule.

* :data:`KNOWN_BAD_CORPUS` — offload plans, one per SW rule, led by the
  paper's three headline cases: ``fig6_thrash`` (more way-aligned
  same-indexed arrays than LDCache ways, section 3.3.3),
  ``racy_flux_accumulation`` (an edge loop scattering flux into a
  shared cell accumulator, the pattern SWGOMP must not naively chunk,
  section 3.3.1; runnable, so the sanitizer *observes* the race) and
  ``demoted_pressure_gradient`` (a sensitive term in float32, section
  3.4.2).
* :data:`KNOWN_RACY_PLANS` — small hand-built :class:`ParallelPlan` objects,
  each one mutation of the real lockstep schedule (a pack moved onto a
  rank lane without sync, an omitted exchange, a missed barrier,
  byte-aliased arena slots, an unordered float reduction).  Each must
  be suspected statically and replay to its pinned verdict, including
  false-positive variants the replay must demote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.access import AccessSpec, ArrayAccess, OffloadPlan, PlannedLoop
from repro.analysis.diagnostics import CONFIRMED, FALSE_POSITIVE
from repro.analysis.parallel_plan import DRIVER, Access, ParallelPlan, PlanOp
from repro.analysis.parallel_plan import OpKind as K
from repro.sunway.allocator import PoolAllocator


@dataclass(frozen=True)
class CorpusCase:
    """One known-bad plan with its expected rule IDs.

    ``factory`` returns ``(OffloadPlan, arrays)`` in the SW corpus and a
    :class:`ParallelPlan` in the RD corpus, where ``expect_verdict``
    names the dynamic verdict the expected rules' diagnostics must get.
    """

    name: str
    expect_rules: frozenset
    factory: Callable
    expect_verdict: str | None = None   # None = verdict not pinned

    def build(self):
        return self.factory()


def _fig6_thrash():
    """Six arrays streamed at the same index, way-aligned bases."""
    n = 4096
    alloc = PoolAllocator(distribute=False)
    names = [f"a{k}" for k in range(6)]
    bases = {name: alloc.malloc(n * 8, name) for name in names}
    accesses = [ArrayAccess(name, mode="r", index="i") for name in names[:-1]]
    accesses.append(ArrayAccess(names[-1], mode="w", index="i"))
    arrays = {name: np.arange(n, dtype=np.float64) for name in names}

    def body(a, s, e):
        a["a5"][s:e] = (a["a0"][s:e] + a["a1"][s:e] + a["a2"][s:e]
                        + a["a3"][s:e] + a["a4"][s:e])

    plan = OffloadPlan(
        name="fig6_thrash",
        loops=[PlannedLoop(
            name="stream6", access=AccessSpec.of(*accesses),
            n_iters=n, body=body,
        )],
        array_bases=bases,
    )
    return plan, arrays


def _racy_flux_accumulation():
    """Edge loop scattering flux into a shared cell accumulator."""
    n_edges, n_cells = 256, 64
    edge_cell = np.arange(n_edges, dtype=np.int64) % n_cells
    arrays = {
        "flux": np.linspace(0.0, 1.0, n_edges),
        "edge_cell": edge_cell,
        "mass_accum": np.zeros(n_cells),
    }

    def body(a, s, e):
        cells = a["edge_cell"][s:e]
        for j, c in enumerate(cells):
            a["mass_accum"][int(c)] = a["mass_accum"][int(c)] + a["flux"][s + j]

    plan = OffloadPlan(
        name="racy_flux_accumulation",
        loops=[PlannedLoop(
            name="flux_scatter",
            access=AccessSpec.of(
                ArrayAccess("flux", mode="r", index="i"),
                ArrayAccess("edge_cell", mode="r", index="i"),
                ArrayAccess("mass_accum", mode="rw", index="nbr(i)",
                            term="mass_flux_accumulation"),
            ),
            n_iters=n_edges,
            body=body,
        )],
    )
    return plan, arrays


def _demoted_pressure_gradient():
    """Pressure-gradient term computed in float32 (sensitivity breach)."""
    n = 1024
    arrays = {
        "pressure": np.linspace(1.0e5, 2.0e4, n).astype(np.float32),
        "dx": np.full(n, 1.0e3, dtype=np.float64),
        "pgrad": np.zeros(n, dtype=np.float32),
    }

    def body(a, s, e):
        hi = min(e, len(a["pgrad"]) - 1)
        a["pgrad"][s:hi] = ((a["pressure"][s + 1:hi + 1] - a["pressure"][s:hi])
                            / a["dx"][s:hi])

    plan = OffloadPlan(
        name="demoted_pressure_gradient",
        loops=[PlannedLoop(
            name="pgrad",
            access=AccessSpec.of(
                ArrayAccess("pressure", mode="r", index="i+1",
                            bytes_per_elem=4, term="pressure_gradient"),
                ArrayAccess("dx", mode="r", index="i"),
                ArrayAccess("pgrad", mode="w", index="i",
                            bytes_per_elem=4, term="pressure_gradient"),
            ),
            n_iters=n,
            body=body,
        )],
    )
    return plan, arrays


def _nowait_dependent_loops():
    """A nowait producer feeding a consumer inside the same region."""
    spec_a = AccessSpec.of(
        ArrayAccess("u", mode="r", index="i"),
        ArrayAccess("ke", mode="w", index="i"),
    )
    spec_b = AccessSpec.of(
        ArrayAccess("ke", mode="r", index="i"),
        ArrayAccess("tend", mode="w", index="i"),
    )
    plan = OffloadPlan(
        name="nowait_dependent_loops",
        loops=[
            PlannedLoop(name="compute_ke", access=spec_a, n_iters=1024,
                        nowait=True, region=0),
            PlannedLoop(name="grad_ke", access=spec_b, n_iters=1024, region=0),
        ],
    )
    return plan, {}


def _preinit_launch():
    """Target region launched before the MPE initialised the server."""
    plan = OffloadPlan(
        name="preinit_launch",
        server_initialized=False,
        loops=[PlannedLoop(
            name="early",
            access=AccessSpec.of(ArrayAccess("x", mode="w", index="i")),
            n_iters=64,
        )],
    )
    return plan, {}


def _halo_overreach():
    """A two-ring gather on a partition that only declares one ring."""
    plan = OffloadPlan(
        name="halo_overreach",
        halo_width=1,
        loops=[PlannedLoop(
            name="wide_stencil",
            access=AccessSpec.of(
                ArrayAccess("theta", mode="r", index="nbr(i,2)"),
                ArrayAccess("lap", mode="w", index="i"),
            ),
            n_iters=1024,
        )],
    )
    return plan, {}


def _ldm_overcommit():
    """A staged loop whose chunk working set cannot fit in LDM."""
    plan = OffloadPlan(
        name="ldm_overcommit",
        n_cpes=64,
        loops=[PlannedLoop(
            name="staged_columns",
            access=AccessSpec.of(
                ArrayAccess("t", mode="r", index="i"),
                ArrayAccess("q", mode="r", index="i"),
                ArrayAccess("out", mode="w", index="i"),
            ),
            n_iters=64 * 50_000,     # 50k iterations x 24 B per CPE
            ldm_staged=True,
        )],
    )
    return plan, {}


#: name -> case; the three headline paper cases lead the ordering.
KNOWN_BAD_CORPUS: dict = {
    c.name: c for c in [
        CorpusCase("fig6_thrash", frozenset({"SW004"}), _fig6_thrash),
        CorpusCase("racy_flux_accumulation", frozenset({"SW001"}),
                   _racy_flux_accumulation),
        CorpusCase("demoted_pressure_gradient", frozenset({"SW006"}),
                   _demoted_pressure_gradient),
        CorpusCase("nowait_dependent_loops", frozenset({"SW002"}),
                   _nowait_dependent_loops),
        CorpusCase("preinit_launch", frozenset({"SW003"}), _preinit_launch),
        CorpusCase("halo_overreach", frozenset({"SW007"}), _halo_overreach),
        CorpusCase("ldm_overcommit", frozenset({"SW005"}), _ldm_overcommit),
    ]
}


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
