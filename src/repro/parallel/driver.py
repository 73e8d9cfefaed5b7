"""The distributed dycore driver.

Runs the serial :class:`~repro.dycore.solver.DynamicalCore`'s own code
— ``compute_tendencies``, the ``SSP_RK3`` loop and the in-place
``rk_update`` — rank-by-rank over one list of rank-local model states,
with aggregated halo exchanges between stages: the execution pattern of
the paper's parallelization facilitation layer.  Owned-entity results
equal the serial solver's bit for bit (asserted in the test suite), the
correctness contract that lets the scaling model treat decomposed and
serial runs as the same computation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.comm.message import Communicator
from repro.dycore.solver import SSP_RK3, DycoreConfig, DynamicalCore, rk_update
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


class DistributedDycore:
    """Hydrostatic dycore stepped across N simulated ranks.

    It steps the halo-coupled horizontal dynamics only.  Rank states
    carry no tracers (horizontal tracer transport would need its own
    halo exchange of q and the accumulated mass flux), no physics runs,
    and a nonhydrostatic config is refused.
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
        if config.nonhydrostatic:
            raise ValueError(
                "DistributedDycore is hydrostatic-only (it runs no implicit "
                "w solve): nonhydrostatic must be False"
            )
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
        #: The rank states: one local ``ModelState`` per rank (owned +
        #: halo entities), written in place only — the exchanger, the
        #: executors, ``rk_update`` and ``gather`` all use this one list.
        self._states: list[ModelState] | None = None
        #: Per-rank buffers holding the step's base ``ps``/``u``/``theta``.
        self._base: list[ModelState] | None = None
        self._exchanger: EdgeCellExchanger | None = None
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
        after the exchanger is built on the rank states — so everything
        they inherit aliases the shared arena.
        """
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        nlev = self.vcoord.nlev
        self._states = [
            ModelState(
                mesh=lm.mesh,
                vcoord=self.vcoord,
                ps=lm.scatter_cell_field(state.ps),
                u=lm.scatter_edge_field(state.u),
                theta=lm.scatter_cell_field(state.theta),
                w=np.zeros((lm.n_cells, nlev + 1)),
                phi=np.zeros((lm.n_cells, nlev + 1)),
                phi_surface=lm.scatter_cell_field(state.phi_surface),
                tracers={},
                time=state.time,
            )
            for lm in self.locals
        ]
        slots = self._to_shared() if self.workers > 1 else None
        ex = EdgeCellExchanger(self.locals, self.comm, retry=self.retry)
        ex.register_cell("ps", [s.ps for s in self._states])
        ex.register_cell("theta", [s.theta for s in self._states])
        ex.register_edge("u", [s.u for s in self._states])
        self._exchanger = ex
        self._base = [
            replace(s, ps=np.empty_like(s.ps), u=np.empty_like(s.u), theta=np.empty_like(s.theta))
            for s in self._states
        ]
        if self.workers > 1:
            self._executor = ProcessRankExecutor(
                self.cores, self._states, slots, self.workers
            )
        else:
            self._executor = SerialRankExecutor(self.cores, self._states)

    def _to_shared(self) -> list[list[_TendencySlot]]:
        """Rehome the rank states' arrays into one shared arena; build
        the tendency output slots beside them."""
        nlev = self.vcoord.nlev
        fields = ("ps", "u", "theta", "phi_surface")
        shapes: list[tuple[int, ...]] = []
        for st in self._states:
            shapes += [getattr(st, f).shape for f in fields]
            # three tendency slots: ps, u, theta_mass, flux_edge each
            shapes += (
                [st.ps.shape, st.u.shape, st.theta.shape, st.u.shape]
                * ProcessRankExecutor.N_SLOTS
            )
        arena = self._arena = _ShmArena(_ShmArena.nbytes(shapes))
        slots: list[list[_TendencySlot]] = [
            [] for _ in range(ProcessRankExecutor.N_SLOTS)
        ]
        for lm, st in zip(self.locals, self._states):
            r = lm.rank
            for f in fields:
                local = getattr(st, f)
                shared = arena.take(local.shape, name=f"rank{r}.{f}")
                np.copyto(shared, local)
                setattr(st, f, shared)
            for k, slot in enumerate(slots):
                slot.append(
                    _TendencySlot(
                        arena, lm.n_cells, lm.n_edges, nlev, name=f"rank{r}.slot{k}"
                    )
                )
        return slots

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
    def step(self) -> None:
        """One SSP-RK dynamics step across all ranks: the serial solver's
        loop over ``SSP_RK3`` and its ``rk_update``, per rank, so
        results are bitwise equal."""
        if self._states is None:
            raise RuntimeError("scatter a state first")
        dt = self.config.dt
        tracer = get_tracer()
        with tracer.span("driver.save", SpanKind.RK_STAGE, op="save"):
            for st, base in zip(self._states, self._base):
                np.copyto(base.ps, st.ps)
                np.copyto(base.u, st.u)
                np.copyto(base.theta, st.theta)
                base.time = st.time
        per_stage: list[list] = []
        for k, (weights, frac) in enumerate(SSP_RK3, 1):
            # Halo exchange, then the executor's per-rank evaluation
            # (serial loop or forked workers — identical results) into
            # the stage's own tendency slot.
            self._exchanger.exchange()
            per_stage.append(self._executor.compute_tendencies(slot=k - 1))
            with tracer.span(
                "driver.apply", SpanKind.RK_STAGE, op="apply",
                stage=k, slots=tuple(range(k)),
            ):
                for st, base, *tds in zip(self._states, self._base, *per_stage):
                    rk_update(st, base, tds, weights, frac * dt)
        if self.config.sponge_levels > 0:
            # Refresh halos so the sponge's Laplacians see the same
            # neighbour values as the serial solver, then damp per rank.
            self._exchanger.exchange()
            self._executor.sponge(dt)

    def run(self, n_steps: int) -> None:
        for _ in range(n_steps):
            self.step()

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
