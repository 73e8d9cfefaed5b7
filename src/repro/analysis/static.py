"""Static offload-plan analyzer for the simulated Sunway substrate.

Consumes an :class:`~repro.analysis.access.OffloadPlan` (distributed
loops with declared :class:`~repro.analysis.access.AccessSpec`\\ s plus
substrate context) and emits the SW001–SW007 diagnostics:

* **SW001** cross-chunk races: a loop chunked over CPEs writes an array
  at a non-chunk-local index (offset, indirect scatter, or whole-array
  accumulation), so two chunks can touch the same element;
* **SW002** ``nowait`` hazards: a loop drops its barrier while a later
  loop it is not ordered with (same target region, no barrier between)
  depends on its writes or writes what it reads;

SW001 and SW002 are read off the RD rules' conflict pass on the plan's
chunk view (:func:`~repro.analysis.access.loop_conflicts`): a conflict
between two chunks of one loop is SW001, between chunks of two loops
SW002.  The other five rules are per-loop property checks:

* **SW003** launches before ``init_from_mpe`` (the runtime counterpart
  is :class:`~repro.sunway.swgomp.SWGOMPError`);
* **SW004** LDCache thrashing: more same-indexed arrays than cache ways
  with way-aligned base addresses (the paper's Fig. 6) — the predicted
  hit-ratio collapse is computed analytically *and* replayed through the
  :class:`~repro.sunway.ldcache.LDCache` simulator, and the fix (the
  address-distributing pool allocator) is quantified in the details;
* **SW005** LDM budget: a staged loop's per-CPE chunk working set
  exceeds what is left of the 256 KB LDM beside the LDCache;
* **SW006** precision demotion of a term the
  :data:`~repro.precision.policy.GRIST_SENSITIVITY` classification marks
  sensitive;
* **SW007** reads reaching past the partition's declared halo width.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.access import AccessSpec, IndexKind, OffloadPlan, PlannedLoop, loop_conflicts
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.precision.policy import GRIST_SENSITIVITY, PrecisionPolicy, is_sensitive
from repro.sunway.ldcache import LDCache, analytic_loop_hit_ratio, loop_hit_ratio

#: Cap on the iteration count replayed through the LDCache simulator —
#: the hit ratio converges within a few hundred iterations.
_REPLAY_ITERS = 512


class StaticAnalyzer:
    """Run the full SW001–SW007 pass over an :class:`OffloadPlan`."""

    def __init__(
        self,
        cache: LDCache | None = None,
        ldm_bytes: int = 256 * 1024,
        policy: PrecisionPolicy | None = None,
    ):
        self.cache = cache or LDCache()
        self.ldm_bytes = ldm_bytes
        self.sensitivity = (policy.sensitivity if policy is not None
                            else GRIST_SENSITIVITY)

    # -- entry point ------------------------------------------------------
    def analyze(self, plan: OffloadPlan) -> list:
        diags: list = []
        if not plan.server_initialized and plan.loops:
            diags.append(Diagnostic(
                rule="SW003",
                plan=plan.name,
                loop=plan.loops[0].name,
                message=(
                    "target region launches before the MPE initialised the "
                    "job server (athread_init); the runtime raises "
                    "SWGOMPError for the same condition"
                ),
            ))
        conflicts = loop_conflicts(plan.as_parallel_plan())
        for lp in plan.loops:
            diags.extend(self._check_races(plan, lp, conflicts))
            diags.extend(self._check_thrash(plan, lp))
            diags.extend(self._check_ldm_budget(plan, lp))
            diags.extend(self._check_precision(plan, lp))
            diags.extend(self._check_halo(plan, lp))
        diags.extend(self._check_nowait(plan, conflicts))
        return diags

    # -- SW001: cross-chunk races ----------------------------------------
    _RACE_REASON = {
        IndexKind.OFFSET: (
            "written at offset index {index!r}: the boundary elements of "
            "each chunk are also written by the neighbouring chunk"
        ),
        IndexKind.INDIRECT: (
            "written through the neighbour table ({index!r}): chunks of "
            "{var} can scatter into the same element"
        ),
        IndexKind.GLOBAL: (
            "accumulated across the whole array ({index!r}): every chunk "
            "writes every element"
        ),
    }

    def _check_races(self, plan: OffloadPlan, lp: PlannedLoop, conflicts) -> list:
        """SW001 for each array two chunks of ``lp`` conflict on."""
        out = []
        raced = conflicts.get((lp.name, lp.name), {})
        for acc in lp.access.writes:
            if acc.name not in raced:
                continue
            kind = acc.expr.kind
            reason = self._RACE_REASON[kind].format(
                index=acc.index, var=lp.access.loop_var
            )
            out.append(Diagnostic(
                rule="SW001",
                plan=plan.name,
                loop=lp.name,
                array=acc.name,
                message=f"array {acc.name!r} {reason}",
                details={
                    "index": acc.index,
                    "kind": kind.value,
                    "mode": acc.mode,
                    "fix": (
                        "restructure to an owner-computes gather (write at "
                        "'i', read through nbr(i)), or serialise the "
                        "accumulation on the MPE"
                    ),
                },
            ))
        return out

    # -- SW002: nowait hazards -------------------------------------------
    def _check_nowait(self, plan: OffloadPlan, pair_conflicts) -> list:
        """SW002 for each pair of loops whose chunks conflict unordered."""
        out = []
        for i, first in enumerate(plan.loops):
            for later in plan.loops[i + 1:]:
                conflicts = sorted(pair_conflicts.get((first.name, later.name), ()))
                if not conflicts:
                    continue
                out.append(Diagnostic(
                    rule="SW002",
                    plan=plan.name,
                    loop=first.name,
                    array=",".join(conflicts),
                    message=(
                        f"loop {first.name!r} drops its barrier (nowait) but "
                        f"loop {later.name!r} in the same target region "
                        f"depends on {conflicts!r}"
                    ),
                    details={"dependent_loop": later.name, "arrays": conflicts},
                ))
        return out

    # -- SW004: LDCache thrash -------------------------------------------
    def _check_thrash(self, plan: OffloadPlan, lp: PlannedLoop) -> list:
        k = lp.access.arrays_per_iteration
        if k <= self.cache.ways or lp.ldm_staged:
            return []
        names = [a.name for a in lp.access.arrays]
        bases = plan.array_bases or {}
        known = [n for n in names if n in bases]
        if len(known) < len(names):
            # Addresses unknown: the hazard depends on the allocator, so
            # only advise (the repo's default allocator distributes).
            return [Diagnostic(
                rule="SW004",
                severity=Severity.INFO,
                plan=plan.name,
                loop=lp.name,
                message=(
                    f"{k} arrays per iteration exceed the {self.cache.ways} "
                    "LDCache ways; base addresses are undeclared — ensure "
                    "they come from the distributing pool allocator"
                ),
                details={"arrays_per_iteration": k, "ways": self.cache.ways},
            )]
        set_load = Counter(self.cache.set_of(bases[n]) for n in names)
        worst = max(set_load.values())
        if worst <= self.cache.ways:
            return []
        elem_bytes = min(a.bytes_per_elem for a in lp.access.arrays)
        predicted = analytic_loop_hit_ratio(
            worst, distributed=False, elem_bytes=elem_bytes,
            line_bytes=self.cache.line_bytes, ways=self.cache.ways,
        )
        fixed = analytic_loop_hit_ratio(
            worst, distributed=True, elem_bytes=elem_bytes,
            line_bytes=self.cache.line_bytes, ways=self.cache.ways,
        )
        measured = loop_hit_ratio(
            [bases[n] for n in names], min(lp.n_iters, _REPLAY_ITERS),
            elem_bytes, cache=self.cache,
        )
        return [Diagnostic(
            rule="SW004",
            plan=plan.name,
            loop=lp.name,
            array=",".join(names),
            message=(
                f"{worst} of {k} streamed arrays map to one cache set "
                f"(way-aligned bases) — predicted hit ratio collapses to "
                f"{predicted:.2f} (simulated {measured:.2f}); the "
                f"distributing pool allocator restores ~{fixed:.2f}"
            ),
            details={
                "arrays_per_iteration": k,
                "ways": self.cache.ways,
                "max_set_load": worst,
                "predicted_hit_ratio": predicted,
                "simulated_hit_ratio": measured,
                "hit_ratio_with_distribution": fixed,
                "fix": "allocate through PoolAllocator(distribute=True) "
                       "or stage the arrays into LDM with omnicopy",
            },
        )]

    # -- SW005: LDM budget -----------------------------------------------
    def _check_ldm_budget(self, plan: OffloadPlan, lp: PlannedLoop) -> list:
        if not lp.ldm_staged:
            return []
        chunk_iters = -(-lp.n_iters // max(plan.n_cpes, 1))
        staged = chunk_iters * lp.access.bytes_per_iteration()
        budget = self.ldm_bytes - self.cache.size_bytes
        if staged <= budget:
            return []
        return [Diagnostic(
            rule="SW005",
            plan=plan.name,
            loop=lp.name,
            message=(
                f"staged chunk working set {staged} B exceeds the "
                f"{budget} B of LDM left beside the LDCache "
                f"({chunk_iters} iterations x "
                f"{lp.access.bytes_per_iteration()} B)"
            ),
            details={
                "staged_bytes": staged,
                "ldm_budget_bytes": budget,
                "chunk_iterations": chunk_iters,
                "fix": "tile the loop (smaller chunks) or stream through "
                       "the LDCache instead of staging",
            },
        )]

    # -- SW006: precision demotion ---------------------------------------
    def _check_precision(self, plan: OffloadPlan, lp: PlannedLoop) -> list:
        out = []
        for acc in lp.access.arrays:
            if acc.term is None or acc.bytes_per_elem >= 8:
                continue
            if not is_sensitive(acc.term, self.sensitivity):
                continue
            known = acc.term in self.sensitivity
            out.append(Diagnostic(
                rule="SW006",
                plan=plan.name,
                loop=lp.name,
                array=acc.name,
                message=(
                    f"term {acc.term!r} is "
                    + ("classified precision-sensitive"
                       if known else "unclassified (defaults to sensitive)")
                    + f" but {acc.name!r} is computed at "
                    f"{acc.bytes_per_elem} bytes/element; it must stay "
                    "double precision (paper section 3.4.2)"
                ),
                details={
                    "term": acc.term,
                    "bytes_per_elem": acc.bytes_per_elem,
                    "classified": known,
                    "fix": "declare the array with the policy dtype: "
                           "policy.dtype_of(term)",
                },
            ))
        return out

    # -- SW007: halo consistency -----------------------------------------
    def _check_halo(self, plan: OffloadPlan, lp: PlannedLoop) -> list:
        out = []
        for acc in lp.access.reads:
            reach = acc.expr.reach
            if reach <= plan.halo_width:
                continue
            out.append(Diagnostic(
                rule="SW007",
                plan=plan.name,
                loop=lp.name,
                array=acc.name,
                message=(
                    f"read of {acc.name!r} at {acc.index!r} reaches ring "
                    f"{reach} but the partition declares a "
                    f"{plan.halo_width}-ring halo; outer values are stale "
                    "or garbage"
                ),
                details={
                    "reach": reach,
                    "halo_width": plan.halo_width,
                    "fix": "widen the halo (decompose with more rings) or "
                           "insert an exchange between the reaching stages",
                },
            ))
        return out


def analyze_plan(plan: OffloadPlan, **kwargs) -> list:
    """Convenience one-shot: ``StaticAnalyzer(**kwargs).analyze(plan)``."""
    return StaticAnalyzer(**kwargs).analyze(plan)


def plan_from_directives(
    source: str,
    access_by_var: dict,
    n_iters_by_var: dict | None = None,
    name: str = "directives",
    **plan_kwargs,
) -> OffloadPlan:
    """Build an :class:`OffloadPlan` from SWGOMP directive source.

    The parsed :class:`~repro.sunway.directives.LaunchPlan` supplies the
    region/loop structure and ``nowait`` flags; ``access_by_var`` maps
    each distributed loop's variable to its declared
    :class:`AccessSpec` (loops without a declared spec are skipped —
    they cannot be analysed).
    """
    from repro.sunway.directives import parse_directives

    launch = parse_directives(source)
    n_iters_by_var = n_iters_by_var or {}
    loops = []
    for r, target in enumerate(launch.targets):
        for loop in target.loops:
            spec = access_by_var.get(loop.variable)
            if spec is None:
                continue
            if not isinstance(spec, AccessSpec):
                raise TypeError(f"access_by_var[{loop.variable!r}] must be AccessSpec")
            loops.append(PlannedLoop(
                name=f"line{loop.line}:{loop.variable}",
                access=spec,
                n_iters=int(n_iters_by_var.get(loop.variable, 1024)),
                nowait=loop.nowait,
                region=r,
            ))
    return OffloadPlan(loops=loops, name=name, **plan_kwargs)
