"""Tests of the vertical coordinate, thermodynamics, and the HEVI
implicit solver."""

import numpy as np
import pytest

from repro.constants import GRAVITY, P0
from repro.dycore.hevi import (
    GAMMA,
    acoustic_timescale,
    discrete_balanced_phi,
    hydrostatic_residual,
    implicit_w_solve,
    pressure_from_state,
    thomas_solve,
)
from repro.dycore.vertical import (
    VerticalCoordinate,
    exner,
    geopotential_interfaces,
    temperature_from_theta,
    theta_from_temperature,
)


class TestVerticalCoordinate:
    def test_uniform_levels(self):
        vc = VerticalCoordinate.uniform(10)
        assert vc.nlev == 10
        assert vc.sigma_interfaces[0] == 0.0
        assert vc.sigma_interfaces[-1] == 1.0
        np.testing.assert_allclose(vc.dsigma, 0.1)

    def test_stretched_levels_concentrate_near_surface(self):
        vc = VerticalCoordinate.stretched(10)
        ds = vc.dsigma
        assert ds[-1] > ds[0]            # thickest sigma at the bottom? no:
        # power stretching: small sigma increments near the top.
        assert ds[0] < ds[-1]

    def test_pressure_interfaces_bracket(self):
        vc = VerticalCoordinate.uniform(5)
        ps = np.array([1.0e5, 9.8e4])
        p = vc.pressure_interfaces(ps)
        np.testing.assert_allclose(p[:, 0], vc.ptop)
        np.testing.assert_allclose(p[:, -1], ps)
        assert np.all(np.diff(p, axis=1) > 0)

    def test_dpi_sums_to_column_mass(self):
        vc = VerticalCoordinate.stretched(8)
        ps = np.array([1.0e5])
        np.testing.assert_allclose(vc.dpi(ps).sum(), ps[0] - vc.ptop)

    def test_paper_model_top(self):
        """Model top kept at 2.25 hPa (~40 km), section 4.4."""
        assert VerticalCoordinate.uniform(30).ptop == 225.0


class TestThermodynamics:
    def test_exner_at_reference(self):
        assert exner(P0) == 1.0

    def test_theta_temperature_roundtrip(self):
        p = np.array([5.0e4, 8.0e4])
        t = np.array([250.0, 280.0])
        theta = theta_from_temperature(t, p)
        np.testing.assert_allclose(temperature_from_theta(theta, p), t)

    def test_geopotential_monotone_and_anchored(self):
        vc = VerticalCoordinate.uniform(10)
        ps = np.full(3, 1.0e5)
        p_int = vc.pressure_interfaces(ps)
        theta = np.full((3, 10), 300.0)
        phi = geopotential_interfaces(np.zeros(3), theta, p_int)
        np.testing.assert_allclose(phi[:, -1], 0.0)
        assert np.all(np.diff(phi, axis=1) < 0)   # decreasing downward index
        # Scale height sanity: isothermal-ish atmosphere tops out ~30-60 km.
        assert 25e3 < phi[:, 0].max() / GRAVITY < 70e3


class TestThomasSolver:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        ncol, n = 7, 12
        A = rng.uniform(-0.3, -0.1, (ncol, n))
        C = rng.uniform(-0.3, -0.1, (ncol, n))
        B = 1.0 + np.abs(A) + np.abs(C)      # diagonally dominant
        rhs = rng.normal(size=(ncol, n))
        x = thomas_solve(A, B, C, rhs)
        for c in range(ncol):
            M = np.diag(B[c])
            M += np.diag(A[c, 1:], -1)
            M += np.diag(C[c, :-1], 1)
            np.testing.assert_allclose(x[c], np.linalg.solve(M, rhs[c]), rtol=1e-10)

    def test_identity_system(self):
        rhs = np.arange(12.0).reshape(3, 4)
        x = thomas_solve(np.zeros((3, 4)), np.ones((3, 4)), np.zeros((3, 4)), rhs)
        np.testing.assert_allclose(x, rhs)


def _column_state(nc=5, nlev=12, t0=300.0, perturb=0.0, seed=0):
    vc = VerticalCoordinate.uniform(nlev)
    ps = np.full(nc, P0)
    dpi = vc.dpi(ps)
    p_mid = vc.pressure_mid(ps)
    theta = theta_from_temperature(np.full((nc, nlev), t0), p_mid)
    if perturb:
        rng = np.random.default_rng(seed)
        theta = theta + perturb * rng.normal(size=theta.shape)
    phi = discrete_balanced_phi(dpi, theta, np.zeros(nc), vc.ptop)
    w = np.zeros((nc, nlev + 1))
    return vc, dpi, theta, phi, w


class TestHEVISolver:
    def test_balanced_state_is_fixed_point(self):
        _, dpi, theta, phi, w = _column_state()
        res = hydrostatic_residual(dpi, phi, theta)
        assert np.abs(res).max() < 1e-12
        w2, phi2 = implicit_w_solve(w, phi, dpi, theta, dt=60.0)
        assert np.abs(w2).max() < 1e-10
        np.testing.assert_allclose(phi2, phi, rtol=1e-12)

    def test_perturbation_decays(self):
        """Off-centred implicit damping kills acoustic oscillations."""
        _, dpi, theta, phi, w = _column_state()
        phi_pert = phi.copy()
        phi_pert[:, 5] += 200.0              # squeeze a layer
        amp0 = None
        for step in range(60):
            w, phi_pert = implicit_w_solve(w, phi_pert, dpi, theta, dt=30.0)
            if step == 0:
                amp0 = np.abs(w).max()
        assert np.abs(w).max() < 0.05 * amp0

    def test_boundary_w_zero(self):
        _, dpi, theta, phi, w = _column_state(perturb=2.0)
        w2, _ = implicit_w_solve(w, phi, dpi, theta, dt=60.0)
        np.testing.assert_array_equal(w2[:, 0], 0.0)
        np.testing.assert_array_equal(w2[:, -1], 0.0)

    def test_stable_at_large_timestep(self):
        """HEVI point: dt far above the acoustic limit stays bounded."""
        _, dpi, theta, phi, w = _column_state(perturb=1.0)
        dphi = phi[:, :-1] - phi[:, 1:]
        dt_acoustic = acoustic_timescale(theta, dphi)
        dt = 50.0 * dt_acoustic
        for _ in range(20):
            w, phi = implicit_w_solve(w, phi, dpi, theta, dt=dt)
        assert np.isfinite(w).all()
        assert np.abs(w).max() < 50.0

    def test_pressure_from_state_hydrostatic_limit(self):
        _, dpi, theta, phi, _ = _column_state()
        dphi = phi[:, :-1] - phi[:, 1:]
        p = pressure_from_state(dpi, dphi, theta)
        vc = VerticalCoordinate.uniform(12)
        p_expected = vc.pressure_mid(np.full(5, P0))
        np.testing.assert_allclose(p, p_expected, rtol=2e-3)

    def test_gamma_value(self):
        assert GAMMA == pytest.approx(1004.64 / (1004.64 - 287.04))

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValueError):
            implicit_w_solve(
                np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 1)),
                np.zeros((2, 1)), 10.0,
            )


class TestDiscreteBalance:
    def test_balanced_phi_positive_thickness(self):
        _, dpi, theta, phi, _ = _column_state(perturb=5.0)
        assert np.all(np.diff(phi, axis=1) < 0)

    def test_balance_residual_zero_for_any_theta(self):
        rng = np.random.default_rng(42)
        nlev = 10
        vc = VerticalCoordinate.uniform(nlev)
        ps = np.full(4, P0) * rng.uniform(0.95, 1.05, 4)
        dpi = vc.dpi(ps)
        theta = 300.0 + 30.0 * rng.random((4, nlev))
        phi = discrete_balanced_phi(dpi, theta, np.zeros(4), vc.ptop)
        res = hydrostatic_residual(dpi, phi, theta)
        assert np.abs(res).max() < 1e-10


class TestHybridVerticalCoordinate:
    def setup_method(self):
        from repro.dycore.vertical import HybridVerticalCoordinate

        self.hv = HybridVerticalCoordinate.standard(10)

    def test_boundary_identities(self):
        np.testing.assert_allclose(self.hv.b_interfaces[0], 0.0)
        np.testing.assert_allclose(self.hv.b_interfaces[-1], 1.0)
        np.testing.assert_allclose(self.hv.a_interfaces[-1], 0.0)
        assert self.hv.a_interfaces[0] == self.hv.ptop

    def test_pressure_bracket(self):
        ps = np.array([1.0e5, 9.2e4])
        p = self.hv.pressure_interfaces(ps)
        np.testing.assert_allclose(p[:, 0], self.hv.ptop)
        np.testing.assert_allclose(p[:, -1], ps)
        assert np.all(np.diff(p, axis=1) > 0)

    def test_mass_closure(self):
        ps = np.array([1.0e5, 8.5e4])
        np.testing.assert_allclose(
            self.hv.dpi(ps).sum(axis=1), ps - self.hv.ptop
        )

    def test_upper_levels_pressure_like(self):
        """B ~ 0 aloft: upper interfaces don't move with ps."""
        p_hi = self.hv.pressure_interfaces(np.array([1.0e5]))
        p_lo = self.hv.pressure_interfaces(np.array([9.0e4]))
        assert abs(p_hi[0, 2] - p_lo[0, 2]) < 1.0        # fixed aloft
        assert p_hi[0, -1] - p_lo[0, -1] == pytest.approx(1.0e4)

    def test_degenerate_sigma_equivalence(self):
        """A = ptop(1-s), B = s reproduces the pure sigma coordinate."""
        from repro.dycore.vertical import (
            HybridVerticalCoordinate,
            VerticalCoordinate,
        )

        s = np.linspace(0.0, 1.0, 9)
        sig = VerticalCoordinate(s, ptop=225.0)
        hyb = HybridVerticalCoordinate(225.0 * (1.0 - s), s)
        ps = np.array([1.0e5, 9.5e4, 8.0e4])
        np.testing.assert_allclose(
            hyb.pressure_interfaces(ps), sig.pressure_interfaces(ps)
        )
        np.testing.assert_allclose(hyb.dpi(ps), sig.dpi(ps))

    def test_invalid_boundaries_rejected(self):
        from repro.dycore.vertical import HybridVerticalCoordinate

        s = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            HybridVerticalCoordinate(225.0 * (1.0 - s), s * 0.9)   # B(end) != 1
        with pytest.raises(ValueError):
            HybridVerticalCoordinate(np.ones(5) * 100.0, s)        # A(end) != 0

    def test_model_runs_on_hybrid(self):
        from repro.dycore.solver import DycoreConfig, DynamicalCore
        from repro.dycore.state import solid_body_rotation_state
        from repro.grid.mesh import build_mesh

        mesh = build_mesh(2)
        st = solid_body_rotation_state(mesh, self.hv)
        core = DynamicalCore(mesh, self.hv, DycoreConfig(dt=600.0))
        m0 = st.total_dry_mass()
        st2 = core.run(st, 12)
        assert np.isfinite(st2.ps).all()
        assert st2.total_dry_mass() == pytest.approx(m0, rel=1e-13)

    def test_vertical_mass_flux_boundaries_on_hybrid(self):
        from repro.dycore.tendencies import vertical_mass_flux
        from repro.grid.mesh import build_mesh

        mesh = build_mesh(1)
        rng = np.random.default_rng(0)
        D = rng.normal(size=(mesh.nc, self.hv.nlev))
        M = vertical_mass_flux(mesh, self.hv.b_interfaces, D)
        np.testing.assert_allclose(M[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(M[:, -1], 0.0, atol=1e-12)
