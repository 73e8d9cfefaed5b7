"""Tests of the orographic-flow extension (terrain via the surface geopotential)."""

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.dycore.solver import DycoreConfig, DynamicalCore
from repro.dycore.state import mountain_flow_state
from repro.dycore.vertical import VerticalCoordinate
from repro.grid.mesh import build_mesh


class TestMountainFlow:
    @pytest.fixture(scope="class")
    def mesh(self):
        return build_mesh(3)

    @pytest.fixture(scope="class")
    def vc(self):
        return VerticalCoordinate.stretched(8)

    def test_terrain_reduces_column_mass(self, mesh, vc):
        st = mountain_flow_state(mesh, vc, h0=1500.0)
        top = int(np.argmax(st.phi_surface))
        assert st.ps[top] < st.ps.min() + 0.3 * (st.ps.max() - st.ps.min())
        assert st.phi_surface.max() / GRAVITY > 1000.0

    def test_runs_stably_with_exact_mass(self, mesh, vc):
        st = mountain_flow_state(mesh, vc)
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=450.0))
        m0 = st.total_dry_mass()
        st2 = core.run(st, 32)
        assert np.isfinite(st2.ps).all()
        assert st2.total_dry_mass() == pytest.approx(m0, rel=1e-13)
        assert np.abs(st2.u).max() < 60.0

    def test_flow_responds_near_mountain(self, mesh, vc):
        st = mountain_flow_state(mesh, vc)
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=450.0))
        st2 = core.run(st.copy(), 32)
        du = np.abs(st2.u - st.u).max(axis=1)
        lat0, lon0 = np.deg2rad(40.0), 0.0
        lon_e = np.arctan2(mesh.edge_xyz[:, 1], mesh.edge_xyz[:, 0])
        d = np.arccos(np.clip(
            np.sin(mesh.edge_lat) * np.sin(lat0)
            + np.cos(mesh.edge_lat) * np.cos(lat0) * np.cos(lon_e - lon0),
            -1, 1))
        near = d < 0.3
        far = d > 1.5
        assert du[near].mean() > 1.5 * du[far].mean()

    def test_flat_mountain_matches_solid_body(self, mesh, vc):
        """h0 = 0 degenerates to the balanced zonal flow (no spurious
        orographic forcing from the terrain machinery itself)."""
        st = mountain_flow_state(mesh, vc, h0=0.0)
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=450.0))
        wind0 = np.abs(st.u).max()
        st2 = core.run(st, 24)
        assert abs(np.abs(st2.u).max() - wind0) / wind0 < 0.05
