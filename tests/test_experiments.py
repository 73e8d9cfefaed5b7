"""Tests of the science experiments (Doksuri / climate comparisons)."""

import numpy as np
import pytest

from repro.dycore.vertical import VerticalCoordinate
from repro.experiments.climate import (
    north_america_box_mean,
    run_climate_case,
    zonal_mean_precip,
)
from repro.experiments.doksuri import (
    _in_box,
    regrid_to,
    run_doksuri_case,
    spatial_correlation,
    tropical_cyclone_state,
)
from repro.grid.mesh import build_mesh


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(3)


@pytest.fixture(scope="module")
def vc():
    return VerticalCoordinate.stretched(8)


class TestTropicalCycloneState:
    def test_vortex_structure(self, mesh, vc):
        st = tropical_cyclone_state(mesh, vc, v_max=25.0)
        # Pressure minimum near the prescribed centre.
        from repro.experiments.doksuri import STORM_LAT, STORM_LON

        imin = int(np.argmin(st.ps))
        d = np.arccos(
            np.clip(
                np.sin(mesh.cell_lat[imin]) * np.sin(STORM_LAT)
                + np.cos(mesh.cell_lat[imin]) * np.cos(STORM_LAT)
                * np.cos(mesh.cell_lon[imin] - STORM_LON),
                -1, 1,
            )
        )
        assert d < 0.2                       # within ~1200 km on G3
        # A real depression (coarse G3 cells sit ~1 r_max from the
        # centre, sampling only part of the 25 hPa core).
        assert st.ps.min() < 0.995e5

    def test_cyclonic_circulation(self, mesh, vc):
        """NH vortex: positive relative vorticity at the core."""
        from repro.dycore.stencil import compiled_kernels
        from repro.experiments.doksuri import STORM_LAT, STORM_LON

        st = tropical_cyclone_state(mesh, vc)
        zeta = compiled_kernels(mesh).curl(st.u[:, -1])
        d = np.arccos(
            np.clip(
                np.sin(mesh.vertex_lat) * np.sin(STORM_LAT)
                + np.cos(mesh.vertex_lat) * np.cos(STORM_LAT)
                * np.cos(np.arctan2(mesh.vertex_xyz[:, 1], mesh.vertex_xyz[:, 0]) - STORM_LON),
                -1, 1,
            )
        )
        core = d < 0.12
        assert zeta[core].mean() > 0.0

    def test_warm_core(self, mesh, vc):
        from repro.dycore.state import tropical_profile_state

        st_bg = tropical_profile_state(mesh, vc, 300.0)
        st = tropical_cyclone_state(mesh, vc)
        anomaly = st.theta - st_bg.theta
        assert anomaly.max() > 0.5

    def test_moist_core(self, mesh, vc):
        from repro.experiments.doksuri import STORM_LAT, STORM_LON

        st = tropical_cyclone_state(mesh, vc)
        d = np.arccos(
            np.clip(
                np.sin(mesh.cell_lat) * np.sin(STORM_LAT)
                + np.cos(mesh.cell_lat) * np.cos(STORM_LAT)
                * np.cos(mesh.cell_lon - STORM_LON),
                -1, 1,
            )
        )
        core = d < 0.1
        far = d > 1.0
        qv_sfc = st.tracers["qv"][:, -1]
        assert qv_sfc[core].mean() > qv_sfc[far].mean()


class TestDoksuriRun:
    def test_produces_localised_rain(self):
        r = run_doksuri_case(3, nlev=8, hours=6.0)
        assert r.box_max_mm_day > 0.5
        raining = (r.mean_rain > 1e-9).mean()
        assert 0.0 < raining < 0.2           # a rain band, not global drizzle

    def test_rain_concentrated_in_box(self):
        r = run_doksuri_case(3, nlev=8, hours=6.0)
        box = _in_box(r.mesh)
        assert r.mean_rain[box].sum() > 0.7 * r.mean_rain.sum()


class TestRegridAndCorrelation:
    def test_regrid_constant(self, mesh):
        fine = build_mesh(4)
        out = regrid_to(mesh, fine, np.full(fine.nc, 3.3))
        np.testing.assert_allclose(out, 3.3)

    def test_regrid_conserves_integral(self, mesh):
        fine = build_mesh(4)
        rng = np.random.default_rng(0)
        f = np.abs(rng.normal(size=fine.nc))
        coarse = regrid_to(mesh, fine, f)
        # Integral against each coarse cell's received area.
        total_f = (f * fine.cell_area).sum()
        # Received areas:
        from scipy.spatial import cKDTree

        _, assign = cKDTree(mesh.cell_xyz).query(fine.cell_xyz)
        recv = np.bincount(assign, weights=fine.cell_area, minlength=mesh.nc)
        assert (coarse * recv).sum() == pytest.approx(total_f, rel=1e-10)

    def test_correlation_properties(self, rng):
        a = rng.normal(size=200)
        assert spatial_correlation(a, a) == pytest.approx(1.0)
        assert spatial_correlation(a, -a) == pytest.approx(-1.0)
        assert abs(spatial_correlation(a, rng.normal(size=200))) < 0.3
        assert spatial_correlation(a, np.zeros(200)) == 0.0

    def test_correlation_mask(self, rng):
        a = rng.normal(size=100)
        b = a.copy()
        b[50:] = rng.normal(size=50)         # decorrelate half
        mask = np.zeros(100, dtype=bool)
        mask[:50] = True
        assert spatial_correlation(a, b, mask) == pytest.approx(1.0)


class TestClimateExperiment:
    def test_conventional_run_produces_rain(self, mesh, vc):
        res = run_climate_case(mesh, vc, "DP-PHY", hours=10.0)
        assert res.stable
        assert res.global_mean_mm_day >= 0.0
        assert np.isfinite(res.na_box_mean_mm_day)

    def test_unusable_tendencies_flag_the_run_unstable(self, mesh, vc):
        """A suite returning NaN ``dtheta`` must end the run with
        ``stable is False`` — the experiment models validate their
        physics and state, and ``run_climate_case`` catches what they
        raise."""
        from dataclasses import replace

        from repro.ensemble.scenarios import get_scenario
        from repro.physics.column import PhysicsSuite

        class NaNPhysics(PhysicsSuite):
            def compute(self, state, wind_speed_sfc):
                tend = super().compute(state, wind_speed_sfc)
                return replace(
                    tend, dtheta=np.full_like(tend.dtheta, np.nan)
                )

        suite = NaNPhysics(
            mesh, vc, get_scenario("aquaplanet").build_surface(mesh)
        )
        res = run_climate_case(
            mesh, vc, "DP-PHY", hours=3.0, physics_suite=suite
        )
        assert res.stable is False

    def test_na_box_mean_weighting(self, mesh):
        ones = np.ones(mesh.nc)
        assert north_america_box_mean(mesh, ones) == pytest.approx(1.0)

    def test_zonal_mean_shape(self, mesh, rng):
        p = np.abs(rng.normal(size=mesh.nc))
        lats, prof = zonal_mean_precip(mesh, p, nbins=12)
        assert lats.shape == (12,)
        assert prof.shape == (12,)
        assert np.all(prof >= 0.0)

    def test_zonal_mean_of_constant(self, mesh):
        _, prof = zonal_mean_precip(mesh, np.full(mesh.nc, 2.0))
        np.testing.assert_allclose(prof, 2.0)
