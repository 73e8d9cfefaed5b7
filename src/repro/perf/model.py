"""Per-step cost model of the full model on N core groups.

One dynamics step costs, per CG:

``T_step = T_kernels + T_launch + T_comm + amortised(T_tracer + T_phys)``

* ``T_kernels`` — the registered dycore kernels' CPE-array times
  (roofline + LDCache, :mod:`repro.sunway.kernel`) scaled by a work
  multiplier representing the full kernel population, with a cache
  *reuse* factor: when a field's per-CPE slice fits comfortably in the
  LDCache, it survives between consecutive kernels and memory traffic
  drops — in capacity steps, which is what produces the paper's
  strong-scaling plateaus (section 4.8).
* ``T_launch`` — job-server spawn overhead x kernel launches; dominant
  at 320-cells-per-CG scales.
* ``T_comm`` — aggregated halo exchanges over the fat tree.
* physics: the conventional suite runs RRTMG-like code at ~6 % of peak;
  the ML suite needs ~2x the FLOPs but runs at 74-84 % of peak
  (section 4.7), so MIX-ML beats MIX-PHY — reproduced here from those
  very numbers rather than hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.topology import SUNWAY_TOPOLOGY, FatTreeTopology
from repro.dycore.kernels import MAJOR_KERNELS
from repro.dycore.stencil import DEFAULT_BACKEND, resolve_backend_name, traffic_factor
from repro.model.config import GridConfig, SchemeConfig
from repro.perf.metrics import sdpd_from_step_time
from repro.sunway.arch import CoreGroup
from repro.sunway.kernel import Engine, KernelTimer, Precision


@dataclass(frozen=True)
class PerfParams:
    """Calibration constants of the machine model."""

    #: Job-server kernel-launch overhead per target region [s].
    launch_overhead: float = 30.0e-6
    #: Kernel launches per dynamics step (the full GRIST kernel count).
    launches_dyn: int = 160
    #: ... per tracer step and per physics step.
    launches_tracer: int = 45
    launches_phys_conv: int = 90
    launches_phys_ml: int = 14
    #: Work multiplier: full dycore work / registered representative set,
    #: fitted to the paper's endpoints under the default (``fused``)
    #: stencil traffic; it was 9.0 when the model priced ``reference``
    #: traffic (that pairing still gives 180.5 / 537 SDPD).
    work_multiplier: float = 12.0
    #: Aggregated halo exchanges per dynamics step (RK stages).
    halo_exchanges_dyn: float = 3.0
    #: Variables (x nlev) shipped per exchange.
    halo_vars: float = 8.0
    #: Physics suite FLOPs per column per level (conventional), and its
    #: achieved fraction of peak (RRTMG's 6 %).
    phys_conv_flops: float = 4.0e5
    phys_conv_efficiency: float = 0.06
    #: ML suite: ~2x the FLOPs at 74-84 % of peak (use 0.78).
    phys_ml_flops: float = 8.0e5
    phys_ml_efficiency: float = 0.78
    #: Achieved fraction of streaming bandwidth under indirect addressing
    #: (unstructured-mesh gathers defeat hardware prefetch even with BFS
    #: reordering; measured ~10 % on comparable ports).
    indirect_bandwidth_fraction: float = 0.10
    #: LDCache-reuse thresholds: (per-CPE slice bytes, memory factor).
    #: Tiers sit *below* G12's smallest per-CG slice so G12's strong
    #: scaling decreases continuously (its "drop of cache hit ratio")
    #: while G11S — whose slices shrink further — earns the marginal
    #: 131072->262144 improvement and the 524288 increment the paper
    #: describes ("the LDCache demonstrates the potential to accommodate
    #: several arrays").
    reuse_steps: tuple = ((200.0, 0.55), (420.0, 0.85))
    #: Per-exchange software/synchronisation cost, growing with the tree
    #: depth (includes the load-imbalance wait the paper folds into its
    #: communication share).
    sync_per_log2p: float = 125.0e-6
    #: Extra per-exchange cost once the job spans enough supernodes to
    #: exercise the third (16:3 oversubscribed) switching tier — the
    #: "clear drop of scalability at the scale of 32,768 CGs".
    tier3_penalty: float = 260.0e-6
    tier3_supernodes: int = 20


@dataclass
class StepCost:
    """Breakdown of one dynamics step's wall time on the slowest rank."""

    total: float
    kernels: float
    launch: float
    comm: float
    tracer: float
    physics: float

    @property
    def comm_fraction(self) -> float:
        """Communication share of the step."""
        if self.total <= 0:
            return 0.0
        return self.comm / self.total


class PerformanceModel:
    """Predict SDPD for a (grid, scheme, nprocs) combination."""

    def __init__(
        self,
        params: PerfParams | None = None,
        topology: FatTreeTopology | None = None,
        cg: CoreGroup | None = None,
        stencil_backend: str = DEFAULT_BACKEND,
    ):
        self.params = params or PerfParams()
        self.topology = topology or SUNWAY_TOPOLOGY
        self.cg = cg or CoreGroup()
        self.timer = KernelTimer(self.cg)
        # Per-kernel stencil-layer hook: the compiled stencil registry
        # declares each kernel's memory passes per backend, and the
        # fused backend's precomposed operators land here as a
        # memory-traffic multiplier (< 1) on its constituent stencils.
        self.stencil_backend = resolve_backend_name(stencil_backend)

    # -- helpers -------------------------------------------------------------
    def cells_per_cg(self, grid: GridConfig, nprocs: int) -> float:
        return grid.cells / nprocs

    def _reuse_factor(self, local_cells: float, nlev: int, elem_bytes: float) -> float:
        """Memory-traffic factor from cross-kernel LDCache reuse."""
        slice_bytes = local_cells * nlev * elem_bytes / self.cg.n_cpes
        for threshold, factor in self.params.reuse_steps:
            if slice_bytes <= threshold:
                return factor
        return 1.0

    def _kernel_time(
        self, grid: GridConfig, nprocs: int, precision: Precision, nlev: int
    ) -> float:
        """Registered-kernel CPE time per dynamics step, with reuse."""
        local_cells = self.cells_per_cg(grid, nprocs)
        local_edges = local_cells * 3.0
        total = 0.0
        eb_sum, n_spec = 0.0, 0
        for reg in MAJOR_KERNELS.values():
            n = (local_edges if reg.element == "edge" else local_cells) * nlev
            t = self.timer.time(
                reg.spec, int(max(n, 1)), Engine.CPE_ARRAY, precision, distributed=True
            )
            eb = 8.0 if precision is Precision.DP else (
                8.0 * (1 - reg.spec.mixed_data_fraction)
                + 4.0 * reg.spec.mixed_data_fraction
            )
            eb_sum += eb
            n_spec += 1
            reuse = self._reuse_factor(local_cells, nlev, eb)
            reuse *= traffic_factor(reg.spec.name, self.stencil_backend)
            mem = t.memory_seconds * reuse / self.params.indirect_bandwidth_fraction
            total += max(t.compute_seconds, mem)
        return total * self.params.work_multiplier

    def _comm_time(self, grid: GridConfig, nprocs: int, precision: Precision, nlev: int) -> float:
        """Aggregated halo exchange time per dynamics step.

        Dominated at scale by per-exchange synchronisation (software
        stack + load-imbalance wait, which the paper folds into its
        communication share), with the fat-tree byte cost and a third-
        tier penalty beyond ~20 supernodes on top.
        """
        if nprocs == 1:
            return 0.0
        p = self.params
        local_cells = self.cells_per_cg(grid, nprocs)
        # Halo ring of a compact METIS patch: ~3.8 sqrt(n) cells.
        halo_cells = 3.8 * np.sqrt(local_cells)
        eb = 8.0 if precision is Precision.DP else 5.0
        bytes_per_exchange = halo_cells * nlev * p.halo_vars * eb
        # METIS patches touch ~6 neighbours; aggregation = 1 msg each.
        msgs = 6.0
        t_bytes = self.topology.exchange_time(nprocs, msgs, bytes_per_exchange)
        t_sync = p.sync_per_log2p * np.log2(max(nprocs, 2))
        nsuper = np.ceil(nprocs / self.topology.processes_per_supernode)
        if nsuper > p.tier3_supernodes:
            t_sync += p.tier3_penalty
        return p.halo_exchanges_dyn * (t_bytes + t_sync)

    def _physics_time(
        self, grid: GridConfig, scheme: SchemeConfig, nprocs: int, nlev: int
    ) -> float:
        """Physics cost per *physics* step, per CG."""
        p = self.params
        local_cols = self.cells_per_cg(grid, nprocs)
        peak = self.cg.n_cpes * self.cg.cpe.flops_dp
        if scheme.ml_physics:
            flops = local_cols * nlev * p.phys_ml_flops
            t = flops / (peak * p.phys_ml_efficiency)
            t += p.launches_phys_ml * p.launch_overhead
        else:
            flops = local_cols * nlev * p.phys_conv_flops
            t = flops / (peak * p.phys_conv_efficiency)
            t += p.launches_phys_conv * p.launch_overhead
        return t

    # -- main entry ------------------------------------------------------------
    def step_cost(
        self, grid: GridConfig, scheme: SchemeConfig, nprocs: int
    ) -> StepCost:
        """Wall time of one dynamics step with everything amortised in."""
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if grid.cells < nprocs:
            raise ValueError(
                f"{grid.label}: {grid.cells} cells cannot feed {nprocs} CGs"
            )
        p = self.params
        nlev = grid.nlev
        precision = Precision.MIXED if scheme.mixed_precision else Precision.DP

        t_kern = self._kernel_time(grid, nprocs, precision, nlev)
        t_launch = p.launches_dyn * p.launch_overhead
        t_comm = self._comm_time(grid, nprocs, precision, nlev)

        # Tracer step amortised over its ratio.
        t_tracer_step = (
            0.5 * self._kernel_time(grid, nprocs, precision, nlev)
            + p.launches_tracer * p.launch_overhead
            + self._comm_time(grid, nprocs, precision, nlev) * 0.6
        )
        t_tracer = t_tracer_step / grid.tracer_ratio

        t_phys_step = self._physics_time(grid, scheme, nprocs, nlev)
        t_phys = t_phys_step / grid.physics_ratio

        comm_all = (
            t_comm
            + 0.6 * self._comm_time(grid, nprocs, precision, nlev) / grid.tracer_ratio
        )
        total = t_kern + t_launch + t_comm + t_tracer + t_phys
        return StepCost(
            total=total,
            kernels=t_kern,
            launch=t_launch,
            comm=comm_all,
            tracer=t_tracer,
            physics=t_phys,
        )

    def sdpd(self, grid: GridConfig, scheme: SchemeConfig, nprocs: int) -> float:
        cost = self.step_cost(grid, scheme, nprocs)
        return sdpd_from_step_time(cost.total, grid.dt_dyn)
