"""Tests of restart/history I/O, global budget diagnostics, and the
SWGOMP executor's cross-validation against the performance model."""

import numpy as np
import pytest

from repro.dycore.diagnostics import BudgetMonitor, compute_budgets
from repro.dycore.solver import DycoreConfig, DynamicalCore
from repro.dycore.state import solid_body_rotation_state, tropical_profile_state
from repro.dycore.vertical import HybridVerticalCoordinate, VerticalCoordinate
from repro.grid.mesh import build_mesh
from repro.model.io import HistoryWriter, load_state, save_state
from tests import contracts


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(2)


@pytest.fixture(scope="module")
def vc():
    return VerticalCoordinate.stretched(6)


class TestRestart:
    def test_roundtrip_bit_exact(self, mesh, vc, tmp_path):
        st = tropical_profile_state(mesh, vc)
        st.time = 1234.5
        path = str(tmp_path / "restart.npz")
        save_state(path, st)
        back = load_state(path, mesh)
        contracts.agree("replay", back, st)
        assert back.time == st.time
        assert type(back.vcoord) is VerticalCoordinate
        assert back.vcoord.nlev == vc.nlev
        np.testing.assert_array_equal(
            back.vcoord.sigma_interfaces, vc.sigma_interfaces
        )

    test_restart_continues_identically = contracts.collect("replay", replay="restart")

    def test_mesh_mismatch_rejected(self, mesh, vc, tmp_path):
        st = tropical_profile_state(mesh, vc)
        path = str(tmp_path / "r.npz")
        save_state(path, st)
        other = build_mesh(1)
        with pytest.raises(ValueError):
            load_state(path, other)

    def test_rebuilds_mesh_when_not_given(self, mesh, vc, tmp_path):
        st = tropical_profile_state(mesh, vc)
        path = str(tmp_path / "r.npz")
        save_state(path, st)
        back = load_state(path)
        assert back.mesh.nc == mesh.nc

    def test_hybrid_coordinate_roundtrip(self, mesh, tmp_path):
        """A hybrid-coordinate restart comes back hybrid, with the same
        A and B interfaces and so the same layer masses at any ps."""
        hv = HybridVerticalCoordinate.standard(8)
        st = tropical_profile_state(mesh, hv)
        st.ps = st.ps - 3000.0 * np.random.default_rng(1).random(mesh.nc)
        path = str(tmp_path / "hybrid.npz")
        save_state(path, st)
        back = load_state(path, mesh)
        assert type(back.vcoord) is HybridVerticalCoordinate
        for name in ("a_interfaces", "b_interfaces", "sigma_interfaces"):
            assert getattr(back.vcoord, name).tobytes() == getattr(hv, name).tobytes()
        assert back.vcoord.ptop == hv.ptop
        assert back.vcoord.dpi(back.ps).tobytes() == hv.dpi(st.ps).tobytes()


class TestHistoryWriter:
    def test_record_flush_read(self, tmp_path):
        w = HistoryWriter(str(tmp_path))
        for k in range(5):
            w.record(float(k), precip=np.full(10, k), tmean=float(100 + k))
        p1 = w.flush()
        for k in range(5, 8):
            w.record(float(k), precip=np.full(10, k), tmean=float(100 + k))
        p2 = w.flush()
        times, tmean = HistoryWriter.read_series([p1, p2], "tmean")
        np.testing.assert_array_equal(times, np.arange(8.0))
        np.testing.assert_array_equal(tmean, 100.0 + np.arange(8.0))
        _, precip = HistoryWriter.read_series([p1, p2], "precip")
        assert precip.shape == (8, 10)

    def test_inconsistent_fields_rejected(self, tmp_path):
        w = HistoryWriter(str(tmp_path))
        w.record(0.0, a=1.0)
        with pytest.raises(ValueError):
            w.record(1.0, b=2.0)

    def test_rejected_record_leaves_writer_usable(self, tmp_path):
        """A rejected record stores nothing, so the next valid one is
        accepted and the series stay aligned."""
        w = HistoryWriter(str(tmp_path))
        w.record(0.0, a=1.0)
        with pytest.raises(ValueError):
            w.record(1.0, a=2.0, b=3.0)
        with pytest.raises(ValueError):
            w.record(1.0)
        w.record(2.0, a=4.0)
        assert w.n_records == 2
        times, a = HistoryWriter.read_series([w.flush()], "a")
        np.testing.assert_array_equal(times, [0.0, 2.0])
        np.testing.assert_array_equal(a, [1.0, 4.0])

    def test_flush_resets(self, tmp_path):
        w = HistoryWriter(str(tmp_path))
        w.record(0.0, a=1.0)
        w.flush()
        assert w.n_records == 0


class TestGlobalBudgets:
    def test_rest_state_budgets(self, mesh, vc):
        from repro.dycore.state import isothermal_rest_state

        st = isothermal_rest_state(mesh, vc)
        b = compute_budgets(st)
        assert b.kinetic_energy == 0.0
        assert b.internal_energy > 0.0
        assert b.dry_mass == pytest.approx(st.total_dry_mass())
        # Earth's atmosphere: ~5.2e18 kg.
        assert 4.0e18 < b.dry_mass < 6.0e18

    test_mass_conserved_exactly_over_run = contracts.collect("dry_mass")

    def test_energy_drift_bounded(self, mesh, vc):
        """Total energy drifts only through explicit diffusion: small."""
        st = solid_body_rotation_state(mesh, vc)
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=600.0))
        mon = BudgetMonitor()
        mon.record(st)
        st = core.run(st, 18)          # 3 hours
        mon.record(st)
        # Explicit diffusion + RK dissipation: ~1% over 3 h is the
        # measured scale; the check guards against runaway drift.
        assert mon.relative_drift("total_energy") < 0.03

    def test_angular_momentum_dominated_by_rotation(self, mesh, vc):
        st = solid_body_rotation_state(mesh, vc, u0=20.0)
        b = compute_budgets(st)
        # Omega a^2 cos^2 integrated over the atmosphere's ~5.2e18 kg:
        # ~1e28 kg m^2/s (the rotation term dwarfs the 20 m/s wind term).
        assert 0.5e28 < b.axial_angular_momentum < 2e28

    def test_enstrophy_positive_with_flow(self, mesh, vc):
        st = solid_body_rotation_state(mesh, vc)
        assert compute_budgets(st).potential_enstrophy > 0.0


class TestSWGOMPExecutor:
    def test_executes_all_kernels(self, mesh):
        from repro.sunway.execution import SWGOMPExecutor

        ex = SWGOMPExecutor(mesh, nlev=6)
        step = ex.execute_step()
        assert len(step.runs) == 6
        assert step.kernel_seconds > 0
        assert step.utilization > 0.95
        assert all(r.executed for r in step.runs)

    def test_dynamic_schedule_also_works(self, mesh):
        from repro.sunway.execution import SWGOMPExecutor

        ex = SWGOMPExecutor(mesh, nlev=6)
        step = ex.execute_step(schedule="dynamic", run_numpy=False)
        assert step.kernel_seconds > 0

    test_validates_against_perf_model = contracts.collect("executor_vs_analytic")
