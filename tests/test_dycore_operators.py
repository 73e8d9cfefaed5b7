"""Mimetic/consistency tests of the C-grid operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dycore import operators as ops
from repro.dycore.stencil import mesh_cache
from repro.grid.mesh import build_mesh


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(3)


@pytest.fixture(scope="module")
def mesh2():
    return build_mesh(2)


class TestDivergence:
    def test_conservation_exact(self, mesh):
        """Area-weighted divergence integrates to zero (FV telescoping)."""
        rng = np.random.default_rng(0)
        flux = rng.normal(size=(mesh.ne, 4))
        div = ops.divergence(mesh, flux)
        total = (div * mesh.cell_area[:, None]).sum(axis=0)
        np.testing.assert_allclose(total, 0.0, atol=1e-6 * mesh.cell_area.mean())

    def test_zero_flux(self, mesh):
        div = ops.divergence(mesh, np.zeros(mesh.ne))
        np.testing.assert_array_equal(div, 0.0)

    def test_solid_body_flow_nearly_divergence_free(self, mesh):
        """u = Omega x r projected on normals has ~zero divergence."""
        axis = np.array([0.0, 0.0, 1.0])
        vel = np.cross(axis, mesh.edge_xyz)
        un = np.einsum("ej,ej->e", vel, mesh.edge_normal)
        div = ops.divergence(mesh, un)
        scale = np.abs(un).max() / mesh.de.mean()
        assert np.abs(div).max() < 5e-3 * scale

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_property_conservation_random(self, seed):
        mesh = build_mesh(2)
        rng = np.random.default_rng(seed)
        flux = rng.normal(size=mesh.ne) * rng.lognormal(size=mesh.ne)
        div = ops.divergence(mesh, flux)
        total = (div * mesh.cell_area).sum()
        assert abs(total) < 1e-5 * np.abs(div * mesh.cell_area).sum() + 1e-12


class TestGradient:
    def test_constant_field_zero_gradient(self, mesh):
        g = ops.gradient(mesh, np.full(mesh.nc, 7.5))
        np.testing.assert_allclose(g, 0.0, atol=1e-18)

    def test_antisymmetric_in_cells(self, mesh):
        """grad(psi) = -grad(-psi)."""
        rng = np.random.default_rng(1)
        psi = rng.normal(size=mesh.nc)
        np.testing.assert_allclose(
            ops.gradient(mesh, psi), -ops.gradient(mesh, -psi)
        )

    def test_linear_field_accuracy(self, mesh):
        """gradient of z-coordinate ~ cos(lat) in the north direction."""
        psi = mesh.cell_xyz[:, 2] * mesh.radius
        g = ops.gradient(mesh, psi)
        north = np.cross(mesh.edge_xyz, np.cross([0, 0, 1.0], mesh.edge_xyz))
        north /= np.maximum(np.linalg.norm(north, axis=1, keepdims=True), 1e-12)
        expected = np.cos(mesh.edge_lat) * np.einsum(
            "ej,ej->e", north, mesh.edge_normal
        )
        err = np.abs(g - expected).max()
        assert err < 0.02

    def test_adjointness_div_grad(self, mesh):
        """<div F, psi>_c = -<F, grad psi>_e up to the staggering metric.

        With our metric (le for div, de for grad) this holds exactly when
        weighting the edge inner product by le*de.
        """
        rng = np.random.default_rng(2)
        F = rng.normal(size=mesh.ne)
        psi = rng.normal(size=mesh.nc)
        lhs = (ops.divergence(mesh, F) * psi * mesh.cell_area).sum()
        rhs = -(F * ops.gradient(mesh, psi) * mesh.le * mesh.de).sum()
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestCurl:
    def test_curl_of_gradient_zero(self, mesh):
        """The discrete circulation of a gradient field vanishes exactly."""
        rng = np.random.default_rng(3)
        psi = rng.normal(size=mesh.nc)
        g = ops.gradient(mesh, psi)
        # The circulation uses the normal component along dual edges; the
        # gradient is exactly the dual-edge derivative, so the loop sum
        # telescopes to zero.
        zeta = ops.curl(mesh, g)
        scale = np.abs(g).max() / mesh.de.mean()
        np.testing.assert_allclose(zeta, 0.0, atol=1e-10 * scale)

    def test_solid_body_vorticity(self, mesh):
        """u = Omega x r has vorticity 2*Omega*sin(lat)."""
        omega = 1e-4
        axis = np.array([0.0, 0.0, omega])
        vel = np.cross(axis, mesh.edge_xyz) * mesh.radius
        un = np.einsum("ej,ej->e", vel, mesh.edge_normal)
        zeta = ops.curl(mesh, un)
        expected = 2.0 * omega * np.sin(mesh.vertex_lat)
        err = np.abs(zeta - expected).max() / (2 * omega)
        assert err < 0.05

    def test_global_circulation_zero(self, mesh):
        """Area-weighted vorticity sums to zero on the closed sphere."""
        rng = np.random.default_rng(4)
        un = rng.normal(size=mesh.ne)
        zeta = ops.curl(mesh, un)
        total = (zeta * mesh.vertex_area).sum()
        assert abs(total) < 1e-6 * np.abs(zeta * mesh.vertex_area).sum() + 1e-12


class TestAverages:
    def test_cell_to_edge_of_constant(self, mesh):
        e = ops.cell_to_edge(mesh, np.full(mesh.nc, 3.0))
        np.testing.assert_allclose(e, 3.0)

    def test_upwind_picks_correct_side(self, mesh):
        psi = np.arange(mesh.nc, dtype=float)
        up_pos = ops.cell_to_edge_upwind(mesh, psi, np.ones(mesh.ne))
        up_neg = ops.cell_to_edge_upwind(mesh, psi, -np.ones(mesh.ne))
        np.testing.assert_array_equal(up_pos, psi[mesh.edge_cells[:, 0]])
        np.testing.assert_array_equal(up_neg, psi[mesh.edge_cells[:, 1]])

    def test_vertex_to_cell_constant(self, mesh):
        c = ops.vertex_to_cell(mesh, np.full(mesh.nv, 2.0))
        np.testing.assert_allclose(c, 2.0)

    def test_vertex_to_edge_constant(self, mesh):
        e = ops.vertex_to_edge(mesh, np.full(mesh.nv, -1.5))
        np.testing.assert_allclose(e, -1.5)


class TestKineticEnergyAndTangential:
    def test_ke_nonnegative(self, mesh):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(mesh.ne, 3))
        ke = ops.kinetic_energy(mesh, u)
        assert np.all(ke >= 0.0)

    def test_ke_of_uniform_flow(self, mesh):
        U0 = np.array([5.0, 0.0, 0.0])
        un = mesh.edge_normal @ U0
        ke = ops.kinetic_energy(mesh, un)
        # |U_tangent|^2/2 at each cell: U0 minus radial part.
        tang = U0 - (mesh.cell_xyz @ U0)[:, None] * mesh.cell_xyz
        expected = 0.5 * np.einsum("ni,ni->n", tang, tang)
        err = np.abs(ke - expected).max() / expected.max()
        assert err < 0.1

    def test_tangential_of_solid_body(self, mesh):
        """For solid-body rotation the full vector is recovered: the
        tangential component at each edge matches the analytic value."""
        axis = np.array([0.0, 0.0, 1.0])
        vel = np.cross(axis, mesh.edge_xyz)
        un = np.einsum("ej,ej->e", vel, mesh.edge_normal)
        vt_exact = np.einsum("ej,ej->e", vel, mesh.edge_tangent)
        vt = ops.tangential_velocity(mesh, un)
        err = np.abs(vt - vt_exact).max() / np.abs(vel).max()
        assert err < 0.06

    def test_multilevel_shapes(self, mesh):
        rng = np.random.default_rng(6)
        u = rng.normal(size=(mesh.ne, 5))
        assert ops.kinetic_energy(mesh, u).shape == (mesh.nc, 5)
        assert ops.tangential_velocity(mesh, u).shape == (mesh.ne, 5)
        assert ops.reconstruct_cell_vectors(mesh, u).shape == (mesh.nc, 3, 5)


class TestLaplacians:
    def test_laplacian_cell_constant_zero(self, mesh):
        lap = ops.laplacian_cell(mesh, np.full(mesh.nc, 4.0))
        np.testing.assert_allclose(lap, 0.0, atol=1e-18)

    def test_laplacian_cell_damps_extrema(self, mesh):
        """At a strict local max the Laplacian is negative."""
        psi = np.zeros(mesh.nc)
        psi[100] = 1.0
        lap = ops.laplacian_cell(mesh, psi)
        assert lap[100] < 0
        nbrs = mesh.cell_neighbors[100]
        assert np.all(lap[nbrs[nbrs >= 0]] > 0)

    def test_laplacian_edge_of_uniform_flow_small(self, mesh):
        U0 = np.array([3.0, -1.0, 2.0])
        un = mesh.edge_normal @ U0
        lap = ops.laplacian_edge(mesh, un)
        # A uniform (rigid) flow has small diffusion relative to u/de^2.
        scale = np.abs(un).max() / mesh.de.mean() ** 2
        assert np.abs(lap).max() < 0.1 * scale


class TestOperatorCache:
    """The per-mesh index/weight cache: built once, bitwise-neutral."""

    def test_cache_built_once_per_mesh(self):
        mesh = build_mesh(2)
        c1 = mesh_cache(mesh)
        rng = np.random.default_rng(0)
        ops.divergence(mesh, rng.normal(size=mesh.ne))
        ops.curl(mesh, rng.normal(size=mesh.ne))
        assert mesh_cache(mesh) is c1

    def test_cached_weights_match_definitions(self, mesh):
        from repro.grid.mesh import PAD

        c = mesh_cache(mesh)
        le = np.where(
            mesh.cell_edges >= 0,
            mesh.le[np.clip(mesh.cell_edges, 0, None)], 0.0,
        )
        np.testing.assert_array_equal(c.div_w, mesh.cell_edge_sign * le)
        np.testing.assert_array_equal(c.cell_edges_pad, mesh.cell_edges == PAD)
        de = np.where(
            mesh.vertex_edges >= 0,
            mesh.de[np.clip(mesh.vertex_edges, 0, None)], 0.0,
        )
        np.testing.assert_array_equal(c.curl_w, mesh.vertex_edge_sign * de)
        # The pad-annihilating gather weight is 1 on valid lanes, 0 on PAD.
        np.testing.assert_array_equal(
            c.edge_gather_w, (mesh.cell_edges >= 0).astype(np.float64)
        )
        assert c.edge_gather_w.dtype == np.float64

    def test_vertex_to_cell_dtype_preserved(self, mesh):
        rng = np.random.default_rng(1)
        v32 = rng.normal(size=(mesh.nv, 3)).astype(np.float32)
        out = ops.vertex_to_cell(mesh, v32)
        assert out.dtype == np.float32
        out64 = ops.vertex_to_cell(mesh, v32.astype(np.float64))
        np.testing.assert_allclose(out, out64, rtol=1e-5, atol=1e-6)
