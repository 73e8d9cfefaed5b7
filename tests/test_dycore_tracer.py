"""Tests of the flux-limited (FCT) tracer transport: conservation and
shape preservation — the invariants the limiter exists to protect."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dycore.stencil import compiled_kernels
from repro.dycore.tracer import (
    MassFluxAccumulator,
    tracer_transport_hori_flux_limiter,
    vertical_tracer_transport,
)
from repro.grid.mesh import build_mesh
from repro.precision.policy import PrecisionPolicy


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(3)


def _setup(mesh, seed=0, nlev=3):
    """A divergence-consistent flow and tracer field."""
    rng = np.random.default_rng(seed)
    dpi0 = np.full((mesh.nc, nlev), 1.0e4)
    # Solid-body-like flow scaled to a modest Courant number.
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    vel = np.cross(axis, mesh.edge_xyz)
    un = np.einsum("ej,ej->e", vel, mesh.edge_normal)
    cfl_speed = 0.2 * mesh.de.min() / 600.0
    un = un / np.abs(un).max() * cfl_speed
    F = dpi0.mean() * np.repeat(un[:, None], nlev, axis=1)
    D = compiled_kernels(mesh).divergence(F)
    dt = 600.0
    dpi1 = dpi0 - dt * D
    q = np.clip(
        np.exp(-((mesh.cell_lat - 0.3) ** 2 + (mesh.cell_lon - 1.0) ** 2) / 0.2),
        0.0, None,
    )[:, None] * np.ones(nlev)
    return q, F, dpi0, dpi1, dt


class TestConservation:
    def test_mass_conserved(self, mesh):
        q, F, dpi0, dpi1, dt = _setup(mesh)
        q1 = tracer_transport_hori_flux_limiter(mesh, q, F, dpi0, dpi1, dt)
        m0 = (q * dpi0 * mesh.cell_area[:, None]).sum()
        m1 = (q1 * dpi1 * mesh.cell_area[:, None]).sum()
        assert m1 == pytest.approx(m0, rel=1e-12)

    def test_constant_preserved(self, mesh):
        """A uniform mixing ratio is a fixed point of consistent transport."""
        _, F, dpi0, dpi1, dt = _setup(mesh)
        q = np.full((mesh.nc, 3), 0.007)
        q1 = tracer_transport_hori_flux_limiter(mesh, q, F, dpi0, dpi1, dt)
        np.testing.assert_allclose(q1, 0.007, rtol=1e-10)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_property_conservation(self, seed):
        mesh = build_mesh(2)
        q, F, dpi0, dpi1, dt = _setup(mesh, seed=seed, nlev=2)
        q1 = tracer_transport_hori_flux_limiter(mesh, q, F, dpi0, dpi1, dt)
        m0 = (q * dpi0 * mesh.cell_area[:, None]).sum()
        m1 = (q1 * dpi1 * mesh.cell_area[:, None]).sum()
        assert m1 == pytest.approx(m0, rel=1e-10)


class TestShapePreservation:
    def test_no_new_extrema(self, mesh):
        q, F, dpi0, dpi1, dt = _setup(mesh)
        q1 = tracer_transport_hori_flux_limiter(mesh, q, F, dpi0, dpi1, dt)
        assert q1.min() >= q.min() - 1e-12
        assert q1.max() <= q.max() + 1e-12

    def test_positivity_from_nonnegative(self, mesh):
        q, F, dpi0, dpi1, dt = _setup(mesh)
        q1 = tracer_transport_hori_flux_limiter(mesh, q, F, dpi0, dpi1, dt)
        assert q1.min() >= -1e-14

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_property_monotone(self, seed):
        mesh = build_mesh(2)
        q, F, dpi0, dpi1, dt = _setup(mesh, seed=seed, nlev=2)
        q1 = tracer_transport_hori_flux_limiter(mesh, q, F, dpi0, dpi1, dt)
        assert q1.min() >= q.min() - 1e-10
        assert q1.max() <= q.max() + 1e-10

    def test_limiter_beats_unlimited_overshoot(self, mesh):
        """A step-function tracer: the limited update must not overshoot
        while a purely centred update does."""
        _, F, dpi0, dpi1, dt = _setup(mesh)
        q = (mesh.cell_lat > 0).astype(float)[:, None] * np.ones(3)
        q_lim = tracer_transport_hori_flux_limiter(mesh, q, F, dpi0, dpi1, dt)
        plan = compiled_kernels(mesh)
        q_cen = (dpi0 * q - dt * plan.divergence(F * plan.cell_to_edge(q))) / dpi1
        assert q_lim.max() <= 1.0 + 1e-12
        assert q_lim.min() >= -1e-12
        assert q_cen.max() > 1.0 or q_cen.min() < 0.0


class TestPrecisionPolicy:
    def test_mixed_precision_close_to_double(self, mesh):
        q, F, dpi0, dpi1, dt = _setup(mesh)
        q_dp = tracer_transport_hori_flux_limiter(
            mesh, q, F, dpi0, dpi1, dt, PrecisionPolicy(mixed=False)
        )
        q_mx = tracer_transport_hori_flux_limiter(
            mesh, q, F, dpi0, dpi1, dt, PrecisionPolicy(mixed=True)
        )
        rel = np.abs(q_mx - q_dp).max() / (np.abs(q_dp).max() + 1e-300)
        assert 0.0 < rel < 1e-4      # genuinely different, still accurate

    def test_mixed_precision_still_conservative(self, mesh):
        q, F, dpi0, dpi1, dt = _setup(mesh)
        q1 = tracer_transport_hori_flux_limiter(
            mesh, q, F, dpi0, dpi1, dt, PrecisionPolicy(mixed=True)
        )
        m0 = (q * dpi0 * mesh.cell_area[:, None]).sum()
        m1 = (q1 * dpi1 * mesh.cell_area[:, None]).sum()
        assert m1 == pytest.approx(m0, rel=1e-6)


class TestVerticalTransport:
    def test_column_mass_conserved(self):
        rng = np.random.default_rng(0)
        nc, nlev = 20, 8
        dpi = np.full((nc, nlev), 1.0e4)
        q = rng.random((nc, nlev)) * 1e-3
        M = np.zeros((nc, nlev + 1))
        M[:, 1:-1] = rng.normal(size=(nc, nlev - 1)) * 2.0
        dt = 100.0
        q1 = vertical_tracer_transport(q, M, dpi, dpi, dt)
        np.testing.assert_allclose(
            (q1 * dpi).sum(axis=1), (q * dpi).sum(axis=1), rtol=1e-12
        )

    def test_no_flux_identity(self):
        q = np.random.default_rng(1).random((5, 6))
        dpi = np.full((5, 6), 1e4)
        M = np.zeros((5, 7))
        q1 = vertical_tracer_transport(q, M, dpi, dpi, 100.0)
        np.testing.assert_allclose(q1, q, rtol=1e-14)

    def test_downward_flux_moves_tracer_down(self):
        nc, nlev = 1, 4
        dpi = np.full((nc, nlev), 1e4)
        q = np.array([[1.0, 0.0, 0.0, 0.0]])
        M = np.zeros((nc, nlev + 1))
        M[:, 1] = 5.0  # downward through interface below layer 0
        q1 = vertical_tracer_transport(q, M, dpi, dpi, 100.0)
        assert q1[0, 0] < 1.0
        assert q1[0, 1] > 0.0


class TestAccumulator:
    def test_mean_over_steps(self):
        acc = MassFluxAccumulator(4, 2)
        acc.add(np.full((4, 2), 1.0, dtype=np.float32))
        acc.add(np.full((4, 2), 3.0, dtype=np.float32))
        mean = acc.mean()
        assert mean.dtype == np.float64          # always double (3.4.2)
        np.testing.assert_allclose(mean, 2.0)
        assert acc.steps == 2

    def test_empty_mean_raises(self):
        with pytest.raises(RuntimeError):
            MassFluxAccumulator(2, 2).mean()

    def test_reset(self):
        acc = MassFluxAccumulator(2, 2)
        acc.add(np.ones((2, 2)))
        acc.reset()
        assert acc.steps == 0
