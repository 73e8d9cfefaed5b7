"""The distributed dycore driver.

Runs the *same* tendency code as the serial
:class:`~repro.dycore.solver.DynamicalCore`, but rank-by-rank over the
local meshes with aggregated halo exchanges between stages — the full
execution pattern of the paper's parallelization facilitation layer.
Owned-entity results match the serial solver to floating-point
accumulation tolerance (asserted in the test suite), which is the
correctness contract that lets the scaling model treat decomposed and
serial runs as the same computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.message import Communicator
from repro.dycore.solver import (
    SSP_RK_SCHEDULE,
    DycoreConfig,
    DynamicalCore,
    Tendencies,
)
from repro.dycore.state import ModelState
from repro.dycore.vertical import VerticalCoordinate
from repro.grid.mesh import Mesh
from repro.obs import SpanKind, get_tracer
from repro.parallel.exchange import EdgeCellExchanger
from repro.parallel.executor import (
    ProcessRankExecutor,
    SerialRankExecutor,
    _ShmArena,
    _TendencySlot,
)
from repro.parallel.localmesh import LocalMesh, build_local_meshes
from repro.partition.decomposition import decompose
from repro.partition.graph import mesh_cell_graph
from repro.partition.metis import partition_graph
from repro.resilience.recovery import RetryPolicy


@dataclass
class RankState:
    """One rank's local prognostic arrays (owned + halo entities)."""

    ps: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    phi_surface: np.ndarray


class DistributedDycore:
    """Hydrostatic dycore stepped across N simulated ranks.

    Tracers and the nonhydrostatic vertical solve are column-local and
    therefore trivially decomposable; this driver focuses on the
    halo-coupled horizontal dynamics, which is where the communication
    pattern lives.
    """

    def __init__(
        self,
        mesh: Mesh,
        vcoord: VerticalCoordinate,
        config: DycoreConfig,
        nparts: int,
        seed: int = 0,
        retry: RetryPolicy | None = None,
        workers: int = 1,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.mesh = mesh
        self.vcoord = vcoord
        self.config = config
        self.nparts = nparts
        #: Rank-stepping parallelism: 1 = serial in-process loop (the
        #: reference), >1 = that many forked workers over shared-memory
        #: field buffers.  Results are bitwise identical either way.
        self.workers = min(workers, nparts)
        #: Retransmission policy handed to the halo exchanger (only
        #: consulted when a fault injector is active).
        self.retry = retry or RetryPolicy()
        part = partition_graph(mesh_cell_graph(mesh), nparts, seed=seed)
        subs = decompose(mesh, nparts, part=part)
        self.locals: list[LocalMesh] = build_local_meshes(mesh, subs, part)
        self.comm = Communicator(nparts)
        # One serial-core instance per rank, bound to the local mesh.
        self.cores = [
            DynamicalCore(lm.mesh, vcoord, config) for lm in self.locals
        ]
        self._states: list[RankState] | None = None
        self._exchanger: EdgeCellExchanger | None = None
        self._scratch: list[ModelState] | None = None
        self._executor = None
        #: The shared mmap arena (forked execution only), kept alive
        #: alongside the field views carved from it.
        self._arena: _ShmArena | None = None

    # -- state distribution ------------------------------------------------
    def scatter(self, state: ModelState) -> None:
        """Distribute a global state onto the ranks.

        With ``workers > 1`` the per-rank prognostic arrays (and three
        tendency output slots per rank) are placed in one shared
        anonymous mmap, and the worker processes are forked at the end —
        after the exchanger and scratch states are built — so everything
        they inherit aliases the shared arena.
        """
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        self._states = [
            RankState(
                ps=lm.scatter_cell_field(state.ps),
                u=lm.scatter_edge_field(state.u),
                theta=lm.scatter_cell_field(state.theta),
                phi_surface=lm.scatter_cell_field(state.phi_surface),
            )
            for lm in self.locals
        ]
        slots: list[list[_TendencySlot]] | None = None
        if self.workers > 1:
            self._states, slots = self._to_shared(self._states)
        ex = EdgeCellExchanger(self.locals, self.comm, retry=self.retry)
        ex.register_cell("ps", [s.ps for s in self._states])
        ex.register_cell("theta", [s.theta for s in self._states])
        ex.register_edge("u", [s.u for s in self._states])
        self._exchanger = ex
        # Per-rank scratch ModelStates, allocated once: they alias the
        # RankState arrays (which are only ever written in place), so the
        # 3-per-RK-stage tendency evaluations reuse the same w/phi zeros
        # instead of allocating fresh ones every call.
        nlev = self.vcoord.nlev
        self._scratch = [
            ModelState(
                mesh=lm.mesh,
                vcoord=self.vcoord,
                ps=st.ps,
                u=st.u,
                theta=st.theta,
                w=np.zeros((lm.n_cells, nlev + 1)),
                phi=np.zeros((lm.n_cells, nlev + 1)),
                phi_surface=st.phi_surface,
                tracers={},
            )
            for lm, st in zip(self.locals, self._states)
        ]
        if self.workers > 1:
            self._executor = ProcessRankExecutor(
                self.cores, self._scratch, slots, self.workers
            )
        else:
            self._executor = SerialRankExecutor(self.cores, self._scratch)

    def _to_shared(
        self, states: list[RankState]
    ) -> tuple[list[RankState], list[list[_TendencySlot]]]:
        """Rehome rank arrays into one shared arena; build output slots."""
        nlev = self.vcoord.nlev
        shapes: list[tuple[int, ...]] = []
        for lm in self.locals:
            nc, ne = lm.n_cells, lm.n_edges
            # state: ps, u, theta, phi_surface
            shapes += [(nc,), (ne, nlev), (nc, nlev), (nc,)]
            # three tendency slots: ps, u, theta_mass, flux_edge each
            shapes += (
                [(nc,), (ne, nlev), (nc, nlev), (ne, nlev)]
                * ProcessRankExecutor.N_SLOTS
            )
        arena = _ShmArena(_ShmArena.nbytes(shapes))
        self._arena = arena
        shared: list[RankState] = []
        slots: list[list[_TendencySlot]] = [
            [] for _ in range(ProcessRankExecutor.N_SLOTS)
        ]
        for lm, st in zip(self.locals, states):
            nc, ne = lm.n_cells, lm.n_edges
            r = lm.rank
            sh = RankState(
                ps=arena.take((nc,), name=f"rank{r}.ps"),
                u=arena.take((ne, nlev), name=f"rank{r}.u"),
                theta=arena.take((nc, nlev), name=f"rank{r}.theta"),
                phi_surface=arena.take((nc,), name=f"rank{r}.phi_surface"),
            )
            sh.ps[:] = st.ps
            sh.u[:] = st.u
            sh.theta[:] = st.theta
            sh.phi_surface[:] = st.phi_surface
            shared.append(sh)
            for k, slot in enumerate(slots):
                slot.append(
                    _TendencySlot(arena, nc, ne, nlev, name=f"rank{r}.slot{k}")
                )
        return shared, slots

    def arena_layout(self) -> dict:
        """Byte extents of the shared arena's named slots.

        ``{resource: (offset, nbytes)}`` straight from the arena's
        recorded carving — the aliasing half of the race analyzer's
        :class:`~repro.analysis.parallel_plan.ParallelPlan`.  Empty for
        serial execution (no shared arena exists).
        """
        return dict(self._arena.layout) if self._arena is not None else {}

    def step_plan(self):
        """The declared :class:`ParallelPlan` of one RK step.

        Derived from the live components' annotations (compiled exchange
        plans, arena layout, executor rounds); see
        :func:`repro.analysis.races.build_step_plan`.
        """
        from repro.analysis.races import build_step_plan

        return build_step_plan(self)

    def close(self) -> None:
        """Reap worker processes (no-op for serial execution).

        Idempotent: the executor's finalizer runs at most once, and the
        driver's own reference to the mmap arena is dropped so the
        mapping can be reclaimed once the last field view dies.
        """
        if self._executor is not None:
            self._executor.close()
        self._arena = None

    def gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reassemble global (ps, u, theta) from owned entities."""
        if self._states is None:
            raise RuntimeError("scatter a state first")
        nlev = self.vcoord.nlev
        ps = np.empty(self.mesh.nc)
        theta = np.empty((self.mesh.nc, nlev))
        u = np.empty((self.mesh.ne, nlev))
        for lm, st in zip(self.locals, self._states):
            own_c = lm.cells[: lm.n_owned_cells]
            ps[own_c] = st.ps[: lm.n_owned_cells]
            theta[own_c] = st.theta[: lm.n_owned_cells]
            own_e = lm.edges[: lm.n_owned_edges]
            u[own_e] = st.u[: lm.n_owned_edges]
        return ps, u, theta

    # -- stepping ------------------------------------------------------------
    @staticmethod
    def _combine(per_rank: list[list[Tendencies]], weights: list[float]) -> list[Tendencies]:
        out = []
        for stages in zip(*per_rank):
            out.append(
                Tendencies(
                    ps=sum(w * t.ps for w, t in zip(weights, stages)),
                    u=sum(w * t.u for w, t in zip(weights, stages)),
                    theta_mass=sum(
                        w * t.theta_mass for w, t in zip(weights, stages)
                    ),
                    flux_edge=sum(
                        w * t.flux_edge for w, t in zip(weights, stages)
                    ),
                )
            )
        return out

    def step(self) -> None:
        """One SSP-RK dynamics step across all ranks (mirrors the serial
        solver's increment form exactly, so results are bitwise equal)."""
        if self._states is None:
            raise RuntimeError("scatter a state first")
        dt = self.config.dt
        tracer = get_tracer()
        with tracer.span("driver.save", SpanKind.RK_STAGE, op="save"):
            saved = [
                RankState(s.ps.copy(), s.u.copy(), s.theta.copy(), s.phi_surface)
                for s in self._states
            ]
        per_stage: list[list[Tendencies]] = []
        for k, (weights, frac) in enumerate(
            SSP_RK_SCHEDULE[self.config.rk_stages], 1
        ):
            # Halo exchange, then the executor's per-rank evaluation
            # (serial loop or forked workers — identical results) into
            # the stage's own tendency slot.
            self._exchanger.exchange()
            per_stage.append(self._executor.compute_tendencies(slot=k - 1))
            used = (
                per_stage[0] if len(weights) == 1
                else self._combine(per_stage, weights)
            )
            with tracer.span(
                "driver.apply", SpanKind.RK_STAGE, op="apply",
                stage=k, slots=tuple(range(k)),
            ):
                self._apply(saved, used, frac * dt)
        if self.config.sponge_levels > 0:
            # Refresh halos so the sponge's Laplacians see the same
            # neighbour values as the serial solver, then damp per rank.
            self._exchanger.exchange()
            self._executor.sponge(dt)

    def _apply(self, base: list[RankState], tds: list[Tendencies], dt: float) -> None:
        for st, b, td in zip(self._states, base, tds):
            dpi_old = self.vcoord.dpi(b.ps)
            st.ps[:] = b.ps + dt * td.ps
            st.u[:] = b.u + dt * td.u
            dpi_new = self.vcoord.dpi(st.ps)
            st.theta[:] = (dpi_old * b.theta + dt * td.theta_mass) / dpi_new

    def run(self, n_steps: int) -> None:
        for _ in range(n_steps):
            self.step()

    @property
    def halo_rings(self) -> int:
        """Declared halo depth of the decomposition (for SW007 lint)."""
        return min((lm.halo_rings for lm in self.locals), default=0)

    # -- statistics ----------------------------------------------------------
    def comm_stats(self) -> dict:
        """Message/byte counters plus the exchange wall time, split
        into pack, unpack and the remaining wire seconds."""
        s = self.comm.stats
        ex = self._exchanger
        total = ex.seconds_total if ex is not None else 0.0
        pack = ex.seconds_pack if ex is not None else 0.0
        unpack = ex.seconds_unpack if ex is not None else 0.0
        return {
            "messages": s.messages,
            "bytes": s.bytes_sent,
            "messages_per_exchange": ex.messages_per_exchange() if ex else 0,
            "exchange_seconds_total": total,
            "pack_seconds": pack,
            "unpack_seconds": unpack,
            "wire_seconds": max(total - pack - unpack, 0.0),
        }
