"""Execute dycore kernels through SWGOMP on the simulated CG.

This is the glue the paper's section 3.3.4 describes ("Applying OpenMP
Offload in GRIST"): each registered kernel becomes a target region whose
loop is distributed over the 64 CPEs, costed by the roofline/LDCache
timing model.  The result is a *measured* (simulated) per-step CG time
with per-kernel breakdown — held against the analytic
:class:`~repro.perf.model.PerformanceModel` by the ``executor_vs_analytic``
row of the test suite's contract table, and used to study schedules and
team shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.grid.mesh import Mesh
from repro.obs import SpanKind
from repro.sunway.arch import CoreGroup
from repro.sunway.kernel import Engine, KernelTimer, Precision
from repro.sunway.swgomp import JobServer, TargetRegion


@dataclass
class KernelRun:
    name: str
    elements: int
    simulated_seconds: float
    launch_seconds: float
    executed: bool          # the real NumPy kernel actually ran


@dataclass
class StepExecution:
    """One simulated dynamics step on a CG: kernels + runtime overhead."""

    runs: list = field(default_factory=list)
    utilization: float = 1.0

    @property
    def kernel_seconds(self) -> float:
        return sum(r.simulated_seconds for r in self.runs)

    @property
    def launch_seconds(self) -> float:
        return sum(r.launch_seconds for r in self.runs)


class SWGOMPExecutor:
    """Run the registered kernel set over the simulated CPE array."""

    def __init__(
        self,
        mesh: Mesh,
        nlev: int,
        cg: CoreGroup | None = None,
        precision: Precision = Precision.MIXED,
        distributed_addresses: bool = True,
        launch_overhead: float = 30.0e-6,
        n_teams: int = 1,
    ):
        self.mesh = mesh
        self.nlev = nlev
        self.cg = cg or CoreGroup()
        self.precision = precision
        self.distributed_addresses = distributed_addresses
        self.launch_overhead = launch_overhead
        self.n_teams = n_teams
        self.timer = KernelTimer(self.cg)
        self.server = JobServer(self.cg)
        self.server.init_from_mpe()

    def _cost_fn(self, reg, n_total: int):
        """Per-chunk simulated cost from the kernel timing model.

        The model's time for the whole loop is distributed linearly over
        elements (the loops are conflict-free, section 3.3.4).
        """
        t_total = self.timer.time(
            reg.spec, n_total, Engine.CPE_ARRAY, self.precision,
            self.distributed_addresses,
        ).seconds
        # One CPE's share of a chunk: the 64-way parallel model time is
        # t_total for all elements across 64 lanes, so a single lane
        # working [s, e) costs (e - s)/n_total * t_total * 64.
        per_elem_lane = t_total * self.cg.n_cpes / max(n_total, 1)

        def cost(s: int, e: int) -> float:
            return (e - s) * per_elem_lane

        return cost

    def execute_step(
        self,
        fields: dict | None = None,
        kernels: dict | None = None,
        run_numpy: bool = True,
        schedule: str = "static",
    ) -> StepExecution:
        """Execute all kernels once (one representative dynamics step)."""
        # Imported lazily: repro.dycore.kernels itself imports the Sunway
        # KernelSpec, so a module-level import here would be circular.
        from repro.dycore.kernels import MAJOR_KERNELS, sample_fields

        kernels = kernels or MAJOR_KERNELS
        if fields is None:
            fields = sample_fields(self.mesh, self.nlev)
        ex = StepExecution()
        self.server.reset_stats()
        tracer = self.server.active_tracer()
        for name, reg in kernels.items():
            n = (self.mesh.ne if reg.element == "edge" else self.mesh.nc) * self.nlev
            tracer.instant(
                f"{name}.launch", SpanKind.KERNEL_LAUNCH,
                sim_seconds=self.launch_overhead, kernel=name,
            )
            region = TargetRegion(self.server, n_teams=self.n_teams)
            if run_numpy:
                with tracer.span(
                    f"{name}.numpy", SpanKind.KERNEL_LAUNCH, engine="numpy"
                ):
                    out = reg.run(self.mesh, fields)
                if not np.isfinite(out).all():
                    raise FloatingPointError(f"kernel {name} produced non-finite output")

            region_time = region.parallel_for(
                lambda s, e: None, n,
                cost_per_elem=self._cost_fn(reg, n),
                schedule=schedule,
                name=name,
            )
            ex.runs.append(
                KernelRun(
                    name=name,
                    elements=n,
                    simulated_seconds=region_time,
                    launch_seconds=self.launch_overhead,
                    executed=run_numpy,
                )
            )
        ex.utilization = self.server.utilization()
        return ex
