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

import numpy as np

from repro.comm.message import Communicator
from repro.dycore.solver import SSP_RK3, DycoreConfig, DynamicalCore
from repro.dycore.state import ModelState
from repro.dycore.vertical import VerticalCoordinate
from repro.grid.mesh import Mesh
from repro.parallel.exchange import EdgeCellExchanger
from repro.parallel.executor import (
    ProcessRankExecutor,
    SerialRankExecutor,
    _ShmArena,
)
from repro.parallel.localmesh import LocalMesh, build_local_meshes
from repro.partition.decomposition import decompose
from repro.partition.graph import mesh_cell_graph
from repro.partition.metis import partition_graph


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
        #: executors and ``gather`` all use this one list.
        self._states: list[ModelState] | None = None
        self._exchanger: EdgeCellExchanger | None = None
        self._executor = None
        #: The shared mmap arena (forked execution only), kept alive
        #: alongside the field views carved from it.
        self._arena: _ShmArena | None = None

    # -- state distribution ------------------------------------------------
    def scatter(self, state: ModelState) -> None:
        """Distribute a global state onto the ranks.

        On a live driver whose executor is healthy the state is copied
        into the existing rank arrays: the workers, the shared arena and
        the exchanger stay.  Otherwise (first call, after :meth:`close`
        or a failed round) the rank states are built afresh; with
        ``workers > 1`` their prognostic arrays are placed in one shared
        anonymous mmap, and the worker processes are forked at the end —
        after the exchanger is built on the rank states — so everything
        they inherit aliases the shared arena.
        """
        self._check(state)
        if self._executor is not None and self._executor.healthy:
            for lm, st in zip(self.locals, self._states):
                for f in ("ps", "theta", "phi_surface"):
                    getattr(st, f)[...] = getattr(state, f)[lm.cells]
                st.u[...] = state.u[lm.edges]
                st.time = state.time
            return
        self.close()
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
        if self.workers > 1:
            self._to_shared()
        ex = EdgeCellExchanger(self.locals, self.comm)
        ex.register_cell("ps", [s.ps for s in self._states])
        ex.register_cell("theta", [s.theta for s in self._states])
        ex.register_edge("u", [s.u for s in self._states])
        self._exchanger = ex
        if self.workers > 1:
            self._executor = ProcessRankExecutor(
                self.cores, self._states, self.workers
            )
        else:
            self._executor = SerialRankExecutor(self.cores, self._states)

    def _check(self, state: ModelState) -> None:
        """Refuse a state whose fields do not fit this driver's mesh and
        vertical coordinate (naming the first field that does not)."""
        nc, ne, nlev = self.mesh.nc, self.mesh.ne, self.vcoord.nlev
        want = {
            "ps": (nc,), "u": (ne, nlev), "theta": (nc, nlev),
            "phi_surface": (nc,),
        }
        for f, shape in want.items():
            got = np.shape(getattr(state, f))
            if got != shape:
                raise ValueError(
                    f"scatter: state.{f} has shape {got}, but this driver's "
                    f"G{self.mesh.level} mesh with {nlev} levels needs {shape}"
                )

    def _to_shared(self) -> None:
        """Rehome the rank states' arrays into one shared arena."""
        fields = ("ps", "u", "theta", "phi_surface")
        arena = self._arena = _ShmArena(_ShmArena.nbytes(
            [getattr(st, f).shape for st in self._states for f in fields]
        ))
        for lm, st in zip(self.locals, self._states):
            for f in fields:
                local = getattr(st, f)
                shared = arena.take(local.shape, name=f"rank{lm.rank}.{f}")
                np.copyto(shared, local)
                setattr(st, f, shared)

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
        """One SSP-RK dynamics step across all ranks: per stage a halo
        exchange, then one executor round in which every rank runs the
        serial solver's stage (``compute_tendencies`` and ``rk_update``),
        so results are bitwise equal."""
        if self._states is None:
            raise RuntimeError("scatter a state first")
        for k in range(1, len(SSP_RK3) + 1):
            self._exchanger.exchange()
            self._executor.stage(k)
        if self.config.sponge_levels > 0:
            # Refresh halos so the sponge's Laplacians see the same
            # neighbour values as the serial solver, then damp per rank.
            self._exchanger.exchange()
            self._executor.sponge(self.config.dt)

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
