"""Regression corpus of known-bad offload plans.

Every rule in the SW001–SW007 catalog has at least one seeded plan here
that must keep tripping it — the analyzer's ground truth.  The three
headline cases come straight from the paper:

* ``fig6_thrash`` — the Fig. 6 loop: more way-aligned same-indexed
  arrays than LDCache ways (section 3.3.3);
* ``racy_flux_accumulation`` — an edge loop scattering mass flux into a
  shared cell accumulator (the pattern SWGOMP must not naively chunk,
  section 3.3.1) — runnable, so the sanitizer can *observe* the race;
* ``demoted_pressure_gradient`` — the pressure-gradient term computed
  in float32 despite its sensitive classification (section 3.4.2).

``repro lint`` and CI run the analyzer over this corpus and fail if any
case stops producing its expected rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.access import AccessSpec, ArrayAccess, OffloadPlan, PlannedLoop
from repro.sunway.allocator import PoolAllocator


@dataclass(frozen=True)
class CorpusCase:
    """One known-bad plan with its expected rule IDs.

    Serves both corpora: here ``factory`` returns ``(OffloadPlan,
    arrays)``; in :mod:`repro.analysis.race_corpus` it returns a
    :class:`ParallelPlan` and ``expect_verdict`` names the dynamic
    verdict the expected rules' diagnostics must get.
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
