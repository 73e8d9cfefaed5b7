"""Rank executors: serial and multiprocess stepping of decomposed ranks.

Between halo exchanges the simulated MPI ranks are data-independent —
each rank's RK stage reads only its own local arrays (owned + halo
entities, refreshed by the exchanger before every stage).
:class:`SerialRankExecutor` steps them in a loop in the driver process
(the historical behaviour and the bitwise reference);
:class:`ProcessRankExecutor` steps them on persistent forked worker
processes over shared-memory field buffers, so multi-core machines
overlap the per-rank NumPy work.

Bitwise contract
----------------
Both executors run the *same* per-rank stage (:class:`_Rank`: the
serial solver's ``compute_tendencies`` and ``rk_update``) and
``_apply_sponge`` on the driver's one list of rank states, so their
results are bitwise identical — the ``ranks`` row of the test suite's
contract table, over both backends, both precisions, one and two workers
and the sponge.  The mechanism:

* all per-rank prognostic arrays (``ps``, ``u``, ``theta``,
  ``phi_surface``) live in one anonymous ``mmap`` arena
  (``MAP_SHARED``) carved into NumPy views;
* workers are forked *after* :meth:`DistributedDycore.scatter`, so they
  inherit the cores, local meshes and rank states aliasing the shared
  arrays — parent-side writes (halo unpack, a re-scatter) are visible
  to workers and worker-side writes (the stage update, the sponge) are
  visible to the parent with no pickling of field data;
* each rank's step base and stage tendencies are private to the process
  that steps the rank: they never cross a process boundary.

Workers execute the pure NumPy stage code only; tracing spans and
metrics emitted inside a worker stay in that worker (the driver-side
spans — halo exchange, executor rounds — are unaffected).  Fork start
method is required (Linux); callers must ``close()`` the executor (or
the driver) to reap the workers.
"""

from __future__ import annotations

import mmap
import os
import weakref
from dataclasses import replace

import numpy as np

from repro.dycore.solver import SSP_RK3, rk_update
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


class _Rank:
    """One rank's RK step: its core, its state and the step's private base
    ``ps``/``u``/``theta`` and tendencies.

    :meth:`stage` is the serial solver's stage body (``DynamicalCore.step``)
    on the rank: stage 1 saves the base, every stage evaluates the
    tendencies and updates the state in place.
    """

    def __init__(self, core, state):
        self.core = core
        self.state = state
        self.base = replace(
            state, ps=np.empty_like(state.ps), u=np.empty_like(state.u),
            theta=np.empty_like(state.theta),
        )
        self.tds: list = []

    def stage(self, k: int) -> None:
        st, base = self.state, self.base
        if k == 1:
            np.copyto(base.ps, st.ps)
            np.copyto(base.u, st.u)
            np.copyto(base.theta, st.theta)
            base.time = st.time
            self.tds.clear()
        weights, frac = SSP_RK3[k - 1]
        self.tds.append(self.core.compute_tendencies(st))
        rk_update(st, base, self.tds, weights, frac * self.core.config.dt)

    def sponge(self, dt: float) -> None:
        self.core._apply_sponge(self.state, dt)


def _round(op: str, workers: int, **args):
    """The EXEC_ROUND span of one broadcast/reply barrier round."""
    return get_tracer().span(
        "executor.round", SpanKind.EXEC_ROUND, op=op, workers=workers, **args
    )


class SerialRankExecutor:
    """Step all ranks in the calling process (reference behaviour)."""

    workers = 1

    def __init__(self, cores: list, states: list):
        self._ranks = [_Rank(c, s) for c, s in zip(cores, states)]
        self.closed = False

    def stage(self, k: int) -> None:
        """RK stage ``k`` (1-based) of every rank."""
        with _round("stage", self.workers, stage=k):
            for rank in self._ranks:
                rank.stage(k)

    def sponge(self, dt: float) -> None:
        with _round("sponge", self.workers):
            for rank in self._ranks:
                rank.sponge(dt)

    @property
    def healthy(self) -> bool:
        return not self.closed

    def close(self) -> None:  # symmetric API; nothing to reap
        self.closed = True


def _worker_loop(conn, cores: list, states: list, rank_ids) -> None:
    """Body of one forked worker: serve stage/sponge commands.

    Everything is inherited through the fork — the rank states alias
    the shared arena, so no field data crosses the pipe; only tiny
    command tuples do.  The worker builds its ranks' :class:`_Rank`
    objects, so each step base and tendency list is private to it.
    """
    try:
        ranks = [_Rank(cores[r], states[r]) for r in rank_ids]
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "stage":
                for rank in ranks:
                    rank.stage(msg[1])
                conn.send(("ok", None))
            elif op == "sponge":
                for rank in ranks:
                    rank.sponge(msg[1])
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
    Ranks are dealt round-robin across ``workers`` processes; each stage
    broadcasts one command and waits for all workers — a barrier
    matching the serial loop's completion semantics.

    Lifecycle: worker reaping is owned by a :func:`weakref.finalize`
    finalizer, which Python guarantees to run at most once — so
    :meth:`close` is idempotent, ``__del__``-time cleanup can never
    double-close a pipe, and workers are reaped at interpreter exit
    (finalizers run atexit) even if nobody called :meth:`close`.
    """

    def __init__(self, cores: list, states: list, workers: int):
        import multiprocessing as mp

        if os.name != "posix":  # pragma: no cover - Linux container only
            raise RuntimeError("ProcessRankExecutor requires fork (POSIX)")
        self.workers = workers
        self._states = states
        self._dt = [core.config.dt for core in cores]
        self._failed = False
        nranks = len(cores)
        ctx = mp.get_context("fork")
        self._conns = []
        self._procs = []
        for w in range(workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_loop,
                args=(child, cores, states, range(w, nranks, workers)),
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
            self._failed = True
            raise RuntimeError(f"rank worker failed: {'; '.join(errors)}")

    def stage(self, k: int) -> None:
        """RK stage ``k`` (1-based) of every rank, on the workers."""
        with _round("stage", self.workers, stage=k):
            self._broadcast(("stage", k))
        # rk_update advances the clocks of the workers' copies of the
        # rank states, which never come back: advance the driver's the
        # same way (the step's base time + the stage's dt).
        if k == 1:
            self._t0 = [st.time for st in self._states]
        frac = SSP_RK3[k - 1][1]
        for st, t0, dt in zip(self._states, self._t0, self._dt):
            st.time = t0 + frac * dt

    def sponge(self, dt: float) -> None:
        with _round("sponge", self.workers):
            self._broadcast(("sponge", dt))

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    @property
    def healthy(self) -> bool:
        """Open, no round has failed and every worker is alive."""
        return (
            not self.closed and not self._failed
            and all(p.is_alive() for p in self._procs)
        )

    def close(self) -> None:
        """Reap the workers.  Idempotent: later calls are no-ops."""
        self._finalizer()
