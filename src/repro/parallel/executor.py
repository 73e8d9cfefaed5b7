"""Rank executors: serial and multiprocess stepping of decomposed ranks.

Between halo exchanges the simulated MPI ranks are data-independent —
each rank's tendency evaluation reads only its own local arrays (owned +
halo entities, refreshed by the exchanger before every evaluation).
:class:`SerialRankExecutor` steps them in a loop in the driver process
(the historical behaviour and the bitwise reference);
:class:`ProcessRankExecutor` steps them on persistent forked worker
processes over shared-memory field buffers, so multi-core machines
overlap the per-rank NumPy work.

Bitwise contract
----------------
Both executors run the *same* ``DynamicalCore.compute_tendencies`` /
``_apply_sponge`` code on the driver's one list of rank states, so their
results are bitwise identical — the ``ranks`` row of the test suite's
contract table, over both backends, both precisions, one and two workers
and the sponge.  The mechanism:

* all per-rank prognostic arrays (``ps``, ``u``, ``theta``,
  ``phi_surface``) and three tendency output slots per rank live in one
  anonymous ``mmap`` arena (``MAP_SHARED``) carved into NumPy views;
* workers are forked *after* :meth:`DistributedDycore.scatter`, so they
  inherit the cores, local meshes and rank states aliasing the shared
  arrays — parent-side writes (``rk_update``, halo unpack) are visible
  to workers and worker-side writes (tendencies, sponge updates) are
  visible to the parent with no pickling of field data;
* three output slots exist because an SSP-RK3 step holds all of
  ``t1``/``t2``/``t3`` live at once; the driver names the slot of each
  tendency call (stage ``k`` writes slot ``k - 1``).

Workers execute the pure NumPy tendency code only; tracing spans and
metrics emitted inside a worker stay in that worker (the driver-side
spans — halo exchange, apply — are unaffected).  Fork start method is
required (Linux); callers must ``close()`` the executor (or the driver)
to reap the workers.
"""

from __future__ import annotations

import mmap
import os
import weakref

import numpy as np

from repro.dycore.solver import SSP_RK3, Tendencies
from repro.obs import SpanKind, get_tracer


class _ShmArena:
    """One anonymous shared mapping carved into float64 NumPy views.

    ``mmap.mmap(-1, n)`` is ``MAP_SHARED | MAP_ANONYMOUS`` on Unix, so
    views taken before a fork are coherent between parent and children
    without named shared-memory segments or cleanup handlers beyond
    dropping the references.

    Named takes record their byte extent in :attr:`layout`, which is the
    arena half of the race analyzer's plan: two resources whose extents
    overlap alias the same memory (RD001 even under different names).
    """

    def __init__(self, nbytes: int):
        self._mm = mmap.mmap(-1, max(nbytes, mmap.PAGESIZE))
        self._offset = 0
        #: name -> (byte offset, byte length) of every named take().
        self.layout: dict[str, tuple[int, int]] = {}

    def take(
        self, shape: tuple[int, ...], name: str | None = None
    ) -> np.ndarray:
        count = int(np.prod(shape, dtype=np.int64))
        nbytes = count * 8
        view = np.frombuffer(
            self._mm, dtype=np.float64, count=count, offset=self._offset
        ).reshape(shape)
        if name is not None:
            self.layout[name] = (self._offset, nbytes)
        self._offset += nbytes
        return view

    @staticmethod
    def nbytes(shapes: list[tuple[int, ...]]) -> int:
        return int(sum(np.prod(s, dtype=np.int64) for s in shapes)) * 8


class _TendencySlot:
    """Shared-memory destination for one rank's Tendencies (same four
    attribute names, so ``rk_update`` reads it where it lies)."""

    def __init__(
        self, arena: _ShmArena, nc: int, ne: int, nlev: int, name: str = ""
    ):
        def _n(comp: str) -> str | None:
            return f"{name}.{comp}" if name else None

        self.ps = arena.take((nc,), name=_n("ps"))
        self.u = arena.take((ne, nlev), name=_n("u"))
        self.theta_mass = arena.take((nc, nlev), name=_n("theta_mass"))
        self.flux_edge = arena.take((ne, nlev), name=_n("flux_edge"))

    def store(self, td: Tendencies) -> None:
        self.ps[:] = td.ps
        self.u[:] = td.u
        self.theta_mass[:] = td.theta_mass
        self.flux_edge[:] = td.flux_edge


class SerialRankExecutor:
    """Step all ranks in the calling process (reference behaviour)."""

    workers = 1

    def __init__(self, cores: list, states: list):
        self._cores = cores
        self._states = states

    def compute_tendencies(self, slot: int = 0) -> list[Tendencies]:
        """Evaluate every rank.  ``slot`` only labels the EXEC_ROUND
        span here (fresh arrays are returned), exactly as the forked
        executor labels its own."""
        with get_tracer().span(
            "executor.round", SpanKind.EXEC_ROUND,
            op="tend", slot=slot, workers=self.workers,
        ):
            return [
                core.compute_tendencies(ms)
                for core, ms in zip(self._cores, self._states)
            ]

    def sponge(self, dt: float) -> None:
        with get_tracer().span(
            "executor.round", SpanKind.EXEC_ROUND,
            op="sponge", slot=None, workers=self.workers,
        ):
            for core, ms in zip(self._cores, self._states):
                core._apply_sponge(ms, dt)

    def close(self) -> None:  # symmetric API; nothing to reap
        pass


def _worker_loop(conn, ranks, cores, states, slots) -> None:
    """Body of one forked worker: serve tendency/sponge commands.

    Everything is inherited through the fork — the rank ``states`` alias
    the shared arena, so no field data crosses the pipe; only tiny
    command tuples do.
    """
    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "tend":
                slot = msg[1]
                for r in ranks:
                    slots[slot][r].store(cores[r].compute_tendencies(states[r]))
                conn.send(("ok", None))
            elif op == "sponge":
                dt = msg[1]
                for r in ranks:
                    cores[r]._apply_sponge(states[r], dt)
                conn.send(("ok", None))
            elif op == "stop":
                conn.send(("ok", None))
                return
    except (EOFError, KeyboardInterrupt):
        return
    except Exception as exc:  # surface worker failures to the driver
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass


def _reap_workers(conns: list, procs: list) -> None:
    """Stop and join worker processes; close the command pipes.

    Module-level (no ``self``) so :func:`weakref.finalize` can hold it
    without keeping the executor alive.  Safe to call with already-dead
    workers or closed pipes — every per-connection failure is swallowed,
    the join/terminate ladder still runs.
    """
    for conn, proc in zip(conns, procs):
        try:
            if proc.is_alive():
                conn.send(("stop",))
                conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - defensive
            proc.terminate()
            proc.join(timeout=1.0)


class ProcessRankExecutor:
    """Step ranks on persistent forked workers over shared memory.

    Must be constructed *after* the driver has scattered state into the
    shared arena (workers snapshot the process image at fork time).
    Ranks are dealt round-robin across ``workers`` processes; each
    tendency call broadcasts one command and waits for all workers — a
    barrier matching the serial loop's completion semantics.

    Lifecycle: worker reaping is owned by a :func:`weakref.finalize`
    finalizer, which Python guarantees to run at most once — so
    :meth:`close` is idempotent, ``__del__``-time cleanup can never
    double-close a pipe, and workers are reaped at interpreter exit
    (finalizers run atexit) even if nobody called :meth:`close`.
    """

    #: One output slot per SSP-RK3 stage (the last stage combines all
    #: three tendencies).
    N_SLOTS = len(SSP_RK3)

    def __init__(self, cores: list, states: list, slots: list, workers: int):
        import multiprocessing as mp

        if os.name != "posix":  # pragma: no cover - Linux container only
            raise RuntimeError("ProcessRankExecutor requires fork (POSIX)")
        self.workers = workers
        self._slots = slots
        nranks = len(cores)
        ctx = mp.get_context("fork")
        self._conns = []
        self._procs = []
        for w in range(workers):
            ranks = list(range(w, nranks, workers))
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_loop,
                args=(child, ranks, cores, states, slots),
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        # The finalizer owns cleanup: runs at most once, whether through
        # close(), garbage collection, or interpreter exit (atexit).
        self._finalizer = weakref.finalize(
            self, _reap_workers, self._conns, self._procs
        )

    def _broadcast(self, msg: tuple) -> None:
        if not self._finalizer.alive:
            raise RuntimeError("executor is closed")
        errors = []
        posted = []
        for w, conn in enumerate(self._conns):
            try:
                conn.send(msg)
                posted.append((w, conn))
            except (BrokenPipeError, OSError):
                # A worker that died mid-step (earlier error, or killed
                # outright) must not wedge the round: record and move on
                # so close() still has a consistent pipe set to reap.
                errors.append(f"worker {w} is dead (send failed)")
        for w, conn in posted:
            try:
                status, detail = conn.recv()
            except (EOFError, ConnectionResetError, OSError):
                errors.append(f"worker {w} died mid-round (pipe closed)")
                continue
            if status != "ok":
                errors.append(detail)
        if errors:
            raise RuntimeError(f"rank worker failed: {'; '.join(errors)}")

    def compute_tendencies(self, slot: int = 0) -> list[_TendencySlot]:
        """Evaluate every rank into output slot ``slot`` (the driver
        passes the RK stage's: stage ``k`` writes slot ``k - 1``) and
        return that slot's per-rank views."""
        with get_tracer().span(
            "executor.round", SpanKind.EXEC_ROUND,
            op="tend", slot=slot, workers=self.workers,
        ):
            self._broadcast(("tend", slot))
        return self._slots[slot]

    def sponge(self, dt: float) -> None:
        with get_tracer().span(
            "executor.round", SpanKind.EXEC_ROUND,
            op="sponge", slot=None, workers=self.workers,
        ):
            self._broadcast(("sponge", dt))

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Reap the workers.  Idempotent: later calls are no-ops."""
        self._finalizer()
