"""Tests of the rank executors: the forked shared-memory path must be
bitwise indistinguishable from the serial in-process loop.

The contract (documented in ``repro.parallel.executor``): both executors
run the same ``DynamicalCore`` code on the same local arrays, so every
gathered prognostic field — and every intermediate the driver observes —
matches bit for bit.  These tests fork real worker processes; they are
skipped on platforms without ``fork``.
"""

import os
import signal
import threading

import numpy as np
import pytest

from repro.dycore import solver
from repro.dycore.solver import DycoreConfig, DynamicalCore
from repro.dycore.state import baroclinic_wave_state
from repro.dycore.stencil import BACKENDS
from repro.dycore.vertical import VerticalCoordinate
from repro.grid.mesh import build_mesh
from repro.parallel.driver import DistributedDycore
from repro.parallel.executor import (
    ProcessRankExecutor,
    SerialRankExecutor,
    _ShmArena,
)

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="ProcessRankExecutor requires fork"
)


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(3)


@pytest.fixture(scope="module")
def vc():
    return VerticalCoordinate.uniform(5)


def _run(mesh, vc, workers: int, steps: int = 3, sponge: int = 0, **cfg_kw):
    cfg = DycoreConfig(dt=600.0, sponge_levels=sponge, **cfg_kw)
    d = DistributedDycore(mesh, vc, cfg, nparts=4, workers=workers)
    d.scatter(baroclinic_wave_state(mesh, vc))
    d.run(steps)
    fields = d.gather()
    d.close()
    return fields


class TestBitwiseEquality:
    """Forked vs serial executor, per stencil backend by name (the loops
    keep the test ids stable)."""

    def test_two_workers_match_serial_bitwise(self, mesh, vc):
        for backend in BACKENDS:
            serial = _run(mesh, vc, workers=1, stencil_backend=backend)
            parallel = _run(mesh, vc, workers=2, stencil_backend=backend)
            for a, b in zip(serial, parallel):
                assert np.array_equal(a, b), backend

    def test_three_workers_with_sponge_match_serial_bitwise(self, mesh, vc):
        """Uneven rank deal (4 ranks over 3 workers) plus the sponge
        command path, which writes state in the workers."""
        for backend in BACKENDS:
            kw = dict(sponge=2, stencil_backend=backend)
            serial = _run(mesh, vc, workers=1, **kw)
            parallel = _run(mesh, vc, workers=3, **kw)
            for a, b in zip(serial, parallel):
                assert np.array_equal(a, b), backend


class TestExecutorLifecycle:
    def test_workers_selects_executor_class(self, mesh, vc):
        cfg = DycoreConfig(dt=600.0)
        d1 = DistributedDycore(mesh, vc, cfg, nparts=4, workers=1)
        d1.scatter(baroclinic_wave_state(mesh, vc))
        assert isinstance(d1._executor, SerialRankExecutor)
        d1.close()

        d2 = DistributedDycore(mesh, vc, cfg, nparts=4, workers=2)
        d2.scatter(baroclinic_wave_state(mesh, vc))
        assert isinstance(d2._executor, ProcessRankExecutor)
        d2.close()

    def test_workers_clamped_to_nparts(self, mesh, vc):
        d = DistributedDycore(
            mesh, vc, DycoreConfig(dt=600.0), nparts=2, workers=16
        )
        assert d.workers == 2
        with pytest.raises(ValueError):
            DistributedDycore(
                mesh, vc, DycoreConfig(dt=600.0), nparts=2, workers=0
            )

    def test_close_reaps_workers(self, mesh, vc):
        d = DistributedDycore(
            mesh, vc, DycoreConfig(dt=600.0), nparts=4, workers=2
        )
        d.scatter(baroclinic_wave_state(mesh, vc))
        procs = list(d._executor._procs)
        assert all(p.is_alive() for p in procs)
        d.close()
        assert all(not p.is_alive() for p in procs)

    def test_close_is_idempotent(self, mesh, vc):
        """Satellite contract: close() any number of times, through the
        driver or the executor, never double-closes a pipe."""
        d = DistributedDycore(
            mesh, vc, DycoreConfig(dt=600.0), nparts=4, workers=2
        )
        d.scatter(baroclinic_wave_state(mesh, vc))
        ex = d._executor
        assert not ex.closed
        d.close()
        assert ex.closed
        d.close()          # second driver close: no-op
        ex.close()         # direct executor close after the fact: no-op
        assert ex.closed

    def test_broadcast_after_close_raises(self, mesh, vc):
        d = DistributedDycore(
            mesh, vc, DycoreConfig(dt=600.0), nparts=4, workers=2
        )
        d.scatter(baroclinic_wave_state(mesh, vc))
        ex = d._executor
        d.close()
        with pytest.raises(RuntimeError, match="closed"):
            ex.compute_tendencies()

    def test_finalizer_reaps_workers_on_gc(self, mesh, vc):
        """Dropping the last reference must reap the fork set exactly
        once (weakref.finalize), with no __del__ double-close."""
        import gc

        d = DistributedDycore(
            mesh, vc, DycoreConfig(dt=600.0), nparts=4, workers=2
        )
        d.scatter(baroclinic_wave_state(mesh, vc))
        procs = list(d._executor._procs)
        assert all(p.is_alive() for p in procs)
        d._executor = None
        gc.collect()
        for p in procs:
            p.join(timeout=10.0)
        assert all(not p.is_alive() for p in procs)
        d.close()

    def test_rescatter_replaces_workers(self, mesh, vc):
        """scatter() on a live parallel driver reaps the old fork set
        (which snapshotted the previous arena) and forks a fresh one."""
        d = DistributedDycore(
            mesh, vc, DycoreConfig(dt=600.0), nparts=4, workers=2
        )
        state = baroclinic_wave_state(mesh, vc)
        d.scatter(state)
        old = list(d._executor._procs)
        d.step()
        d.scatter(state)
        assert all(not p.is_alive() for p in old)
        d.step()
        d.close()


class TestMidStepWorkerDeath:
    """A worker that dies must fail the next round with a RuntimeError
    naming it — never hang — and leave a driver that still closes."""

    def _driver(self, mesh, vc):
        d = DistributedDycore(
            mesh, vc, DycoreConfig(dt=600.0, sponge_levels=2),
            nparts=4, workers=2,
        )
        d.scatter(baroclinic_wave_state(mesh, vc))
        d.run(1)                      # healthy first
        return d

    def _assert_closes_clean(self, d):
        ex = d._executor
        d.close()
        assert ex.closed
        assert not any(p.is_alive() for p in ex._procs)
        d.close()                     # second close: no-op
        assert ex.closed

    def test_sigkilled_worker_fails_next_step(self, mesh, vc, deadline):
        """Dead before the round is posted: the send fails."""
        d = self._driver(mesh, vc)
        ex = d._executor
        ex._procs[0].kill()
        ex._procs[0].join(10)
        with deadline(60):
            with pytest.raises(
                RuntimeError, match=r"worker 0 is dead \(send failed\)"
            ):
                d.step()
            self._assert_closes_clean(d)
        # Prognostic state is still readable after the failed step.
        assert all(np.all(np.isfinite(f)) for f in d.gather())

    def test_worker_killed_mid_round_fails_step(self, mesh, vc, deadline):
        """Dead after the round is posted: the reply pipe closes.  The
        worker is stopped first so the command is accepted but never
        served, then killed while the driver waits on the reply."""
        d = self._driver(mesh, vc)
        ex = d._executor
        victim = ex._procs[1]
        os.kill(victim.pid, signal.SIGSTOP)
        killer = threading.Timer(0.5, victim.kill)
        killer.start()
        try:
            with deadline(60):
                with pytest.raises(
                    RuntimeError,
                    match=r"worker 1 died mid-round \(pipe closed\)",
                ):
                    d.step()
                self._assert_closes_clean(d)
        finally:
            killer.cancel()
            killer.join(10)
            victim.kill()             # never leave it stopped


def _os_threads() -> int | None:
    """This process's OS thread count, as Linux reports it (what
    Python 3.12's multi-threaded-fork warning reads); None elsewhere."""
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[17])
    except OSError:
        return None


class TestForkAfterTwoLaneStep:
    """A two-lane step's helper thread lives only inside
    ``DynamicalCore.step``: after one, the process has the threads it had
    before, so the rank executor and the ensemble runner fork no helper
    thread and give their serial results."""

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2, reason="two lanes need two CPUs"
    )
    def test_forks_after_a_two_lane_step(self, mesh, vc, monkeypatch):
        from repro.ensemble import EnsembleRunner
        from tests.test_ensemble import SPPT_DIGEST

        before = threading.active_count(), _os_threads()
        monkeypatch.setattr(solver, "LANE_MIN_POINTS", 0)
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=600.0))
        assert core.lanes == 2
        core.step(baroclinic_wave_state(mesh, vc))
        assert (threading.active_count(), _os_threads()) == before

        for a, b in zip(_run(mesh, vc, workers=2), _run(mesh, vc, workers=1)):
            assert np.array_equal(a, b)
        res = EnsembleRunner(
            scenario="tropical", n_members=3, level=2, nlev=6, steps=13,
            physics_perturbation=0.2, workers=2,
        ).run()
        assert res.digest() == SPPT_DIGEST
        assert threading.active_count() == before[0]


class TestShmArena:
    def test_views_are_shared_across_fork(self):
        """A child write to an arena view must be visible to the parent —
        the property the whole executor relies on."""
        import multiprocessing as mp

        arena = _ShmArena(_ShmArena.nbytes([(4,)]))
        view = arena.take((4,))
        view[:] = 0.0

        def child():
            view[:] = [1.0, 2.0, 3.0, 4.0]

        proc = mp.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=10.0)
        assert np.array_equal(view, [1.0, 2.0, 3.0, 4.0])

    def test_take_is_disjoint_and_float64(self):
        arena = _ShmArena(_ShmArena.nbytes([(3,), (2, 2)]))
        a = arena.take((3,))
        b = arena.take((2, 2))
        a[:] = 1.0
        b[:] = 2.0
        assert a.dtype == np.float64 and b.dtype == np.float64
        assert np.all(a == 1.0) and np.all(b == 2.0)

    def test_worker_error_propagates(self, mesh, vc):
        """An exception inside a worker surfaces as a driver-side
        RuntimeError instead of a hang."""
        d = DistributedDycore(
            mesh, vc, DycoreConfig(dt=600.0), nparts=4, workers=2
        )
        d.scatter(baroclinic_wave_state(mesh, vc))
        with pytest.raises(RuntimeError, match="rank worker failed.*IndexError"):
            d._executor._broadcast(("tend", 99))  # out-of-range slot index
        d.close()
