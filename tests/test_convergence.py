"""Grid-convergence tests: discretisation errors must shrink with
resolution at roughly the advertised (second) order."""

import numpy as np
import pytest

from repro.dycore.stencil import compiled_kernels
from repro.grid.mesh import build_mesh


@pytest.fixture(scope="module")
def meshes():
    return [build_mesh(level) for level in (2, 3, 4)]


def _smooth_cell_field(mesh):
    """A smooth large-scale test function psi = x*y + z^2."""
    x, y, z = mesh.cell_xyz.T
    return x * y + z**2


def _gradient_exact(mesh):
    """Tangential gradient of psi at edge midpoints, dotted with normals."""
    x, y, z = mesh.edge_xyz.T
    grad3 = np.stack([y, x, 2.0 * z], axis=1)
    # Project onto the tangent plane, scale by 1/radius (unit-sphere psi).
    radial = np.einsum("ej,ej->e", grad3, mesh.edge_xyz)
    gt = grad3 - radial[:, None] * mesh.edge_xyz
    return np.einsum("ej,ej->e", gt, mesh.edge_normal) / mesh.radius


class TestGradientConvergence:
    def test_error_shrinks_second_order(self, meshes):
        errors = []
        for mesh in meshes:
            psi = _smooth_cell_field(mesh)
            g = compiled_kernels(mesh).gradient(psi)
            exact = _gradient_exact(mesh)
            errors.append(np.abs(g - exact).max() / np.abs(exact).max())
        # Halving the spacing should cut the error by ~4 (allow >= 2.5).
        assert errors[1] < errors[0] / 2.5
        assert errors[2] < errors[1] / 2.5


class TestDivergenceConvergence:
    def test_rotational_field_divergence_converges_to_zero(self, meshes):
        """div of a solid-body (divergence-free) flow must shrink."""
        errors = []
        for mesh in meshes:
            axis = np.array([0.3, -0.5, 0.8])
            vel = np.cross(axis, mesh.edge_xyz)
            un = np.einsum("ej,ej->e", vel, mesh.edge_normal)
            div = compiled_kernels(mesh).divergence(un)
            scale = np.abs(un).max() / mesh.de.mean()
            errors.append(np.abs(div).max() / scale)
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]


class TestVorticityConvergence:
    def test_solid_body_vorticity_error_shrinks(self, meshes):
        errors = []
        for mesh in meshes:
            omega = 1e-4
            vel = np.cross([0.0, 0.0, omega], mesh.edge_xyz) * mesh.radius
            un = np.einsum("ej,ej->e", vel, mesh.edge_normal)
            zeta = compiled_kernels(mesh).curl(un)
            exact = 2.0 * omega * np.sin(mesh.vertex_lat)
            errors.append(np.abs(zeta - exact).max() / (2 * omega))
        assert errors[1] < errors[0] / 1.8
        assert errors[2] < errors[1] / 1.8


class TestReconstructionConvergence:
    def test_tangential_velocity_error_shrinks(self, meshes):
        errors = []
        for mesh in meshes:
            axis = np.array([0.2, 0.9, -0.4])
            vel = np.cross(axis, mesh.edge_xyz)
            un = np.einsum("ej,ej->e", vel, mesh.edge_normal)
            vt_exact = np.einsum(
                "ej,ej->e", vel, mesh.edge_tangent
            )
            vt = compiled_kernels(mesh).tangential_velocity(un)
            errors.append(np.abs(vt - vt_exact).max() / np.abs(vel).max())
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]


class TestHydrostaticConsistency:
    def test_pgf_residual_shrinks_on_balanced_state(self, meshes):
        """The PGF of a balanced solid-body state must converge toward
        the Coriolis term (geostrophic balance) as resolution grows."""
        from repro.dycore import tendencies as tnd
        from repro.dycore.state import solid_body_rotation_state
        from repro.dycore.vertical import VerticalCoordinate

        vc = VerticalCoordinate.uniform(5)
        residuals = []
        for mesh in meshes:
            st = solid_body_rotation_state(mesh, vc, u0=20.0)
            pgf = tnd.pressure_gradient_force(
                mesh, st.theta, st.p_mid(),
                0.5 * (st.phi[:, :-1] + st.phi[:, 1:]),
            )
            cor = tnd.calc_coriolis_term(mesh, st.u)
            ke = tnd.tend_grad_ke_at_edge(mesh, st.u)
            resid = np.abs(pgf + cor + ke)
            residuals.append(resid.mean() / np.abs(pgf).mean())
        assert residuals[2] < residuals[0]
