"""Tests of the conventional physics suite: every scheme's invariants
plus the assembled column driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import CP_DRY, GRAVITY, LATENT_HEAT_VAP, SOLAR_CONSTANT, STEFAN_BOLTZMANN
from repro.dycore.state import tropical_profile_state
from repro.dycore.vertical import VerticalCoordinate, exner
from repro.grid.mesh import build_mesh
from repro.physics.column import PhysicsConfig, PhysicsSuite
from repro.physics.convection import convective_adjustment, parcel_cape
from repro.physics.microphysics import kessler_microphysics
from repro.physics.pbl import pbl_diffusion
from repro.physics.radiation import RadiationScheme, cosine_solar_zenith
from repro.physics.surface import (
    SurfaceModel,
    idealized_land_mask,
    idealized_sst,
    saturation_mixing_ratio,
    saturation_vapor_pressure,
)
from tests.contracts import bitwise


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(2)


@pytest.fixture(scope="module")
def vc():
    return VerticalCoordinate.stretched(8)


def _columns(mesh, vc, t0=300.0):
    st = tropical_profile_state(mesh, vc, t0)
    p = st.p_mid()
    ex = exner(p)
    return st, st.dpi(), p, ex, st.theta * ex


def _column_major_radiation(scheme, temp, qv, qc, dpi, tskin, coszen, albedo):
    """``RadiationScheme.compute`` as it was before its level-major sweeps,
    verbatim (the oracle): strided ``[:, k]`` columns, ``exp`` taken again
    for the reflected pass."""
    nc, nlev = temp.shape
    wpath = qv * dpi / GRAVITY
    cpath = qc * dpi / GRAVITY
    mpath = dpi / GRAVITY
    mu = np.clip(coszen, 0.0, 1.0)
    sw_abs = np.zeros((nc, nlev))
    gsw = np.zeros(nc)
    toa = SOLAR_CONSTANT * mu
    for b in range(scheme.n_sw_bands):
        tau = scheme.k_sw_vapor[b] * wpath + scheme.k_cloud_sw * cpath
        slant = tau / np.maximum(mu, 0.05)[:, None]
        trans = np.exp(-slant)
        cum_down = np.cumprod(trans, axis=1)
        f_in = toa * scheme.sw_band_weights[b]
        down_int = np.concatenate([np.ones((nc, 1)), cum_down], axis=1) * f_in[:, None]
        absorbed = down_int[:, :-1] - down_int[:, 1:]
        sw_abs += absorbed
        gsw += down_int[:, -1]
    for b in range(scheme.n_sw_bands):
        tau = scheme.k_sw_vapor[b] * wpath + scheme.k_cloud_sw * cpath
        slant = tau / np.maximum(mu, 0.05)[:, None]
        trans = np.exp(-slant)
        f_up = albedo * gsw * scheme.sw_band_weights[b]
        cum_up = np.cumprod(trans[:, ::-1], axis=1)
        up_int = np.concatenate([np.ones((nc, 1)), cum_up], axis=1) * f_up[:, None]
        sw_abs += (up_int[:, :-1] - up_int[:, 1:])[:, ::-1]
    lw_net = np.zeros((nc, nlev + 1))
    glw = np.zeros(nc)
    olr = np.zeros(nc)
    planck_layer = STEFAN_BOLTZMANN * temp**4
    planck_sfc = STEFAN_BOLTZMANN * tskin**4
    for b in range(scheme.n_lw_bands):
        tau = (
            scheme.k_lw_vapor[b] * wpath
            + scheme.k_cloud_lw * cpath
            + scheme.k_lw_background * mpath
        )
        trans = np.exp(-1.66 * tau)
        emis = 1.0 - trans
        wb = scheme.lw_band_weights[b]
        down = np.zeros((nc, nlev + 1))
        for k in range(nlev):
            down[:, k + 1] = down[:, k] * trans[:, k] + emis[:, k] * planck_layer[:, k]
        up = np.zeros((nc, nlev + 1))
        up[:, nlev] = planck_sfc
        for k in range(nlev - 1, -1, -1):
            up[:, k] = up[:, k + 1] * trans[:, k] + emis[:, k] * planck_layer[:, k]
        glw += wb * down[:, -1]
        olr += wb * up[:, 0]
        lw_net += wb * (up - down)
    lw_heat = -(lw_net[:, :-1] - lw_net[:, 1:])
    heating = (sw_abs + lw_heat) * GRAVITY / (CP_DRY * dpi)
    return {"heating_rate": heating, "gsw": gsw, "glw": glw, "olr": olr}


class TestSaturation:
    def test_es_at_freezing(self):
        assert saturation_vapor_pressure(273.15) == pytest.approx(610.78)

    def test_es_monotone_in_t(self):
        t = np.linspace(230.0, 320.0, 50)
        assert np.all(np.diff(saturation_vapor_pressure(t)) > 0)

    def test_qsat_decreases_with_pressure(self):
        q1 = saturation_mixing_ratio(280.0, 7.0e4)
        q2 = saturation_mixing_ratio(280.0, 1.0e5)
        assert q1 > q2

    def test_qsat_magnitude(self):
        # ~23 g/kg at 300K, 1000 hPa — textbook value.
        q = saturation_mixing_ratio(300.0, 1.0e5)
        assert 0.020 < q < 0.026


class TestRadiation:
    def test_energy_bounds(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        rad = RadiationScheme()
        coszen = cosine_solar_zenith(mesh.cell_lat, mesh.cell_lon, 0.0)
        res = rad.compute(
            temp, st.tracers["qv"], st.tracers["qc"], dpi,
            np.full(mesh.nc, 300.0), coszen, np.full(mesh.nc, 0.1),
        )
        assert np.all(res.gsw >= 0.0)
        assert np.all(res.gsw <= SOLAR_CONSTANT + 1e-9)
        assert np.all(res.glw > 0.0)
        assert np.all(res.olr > 0.0)

    def test_night_side_dark(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        rad = RadiationScheme()
        res = rad.compute(
            temp, st.tracers["qv"], st.tracers["qc"], dpi,
            np.full(mesh.nc, 300.0), np.zeros(mesh.nc), np.full(mesh.nc, 0.1),
        )
        np.testing.assert_allclose(res.gsw, 0.0, atol=1e-9)

    def test_clouds_dim_the_surface(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        rad = RadiationScheme()
        cz = np.full(mesh.nc, 0.8)
        clear = rad.compute(temp, st.tracers["qv"], np.zeros_like(temp), dpi,
                            np.full(mesh.nc, 300.0), cz, np.full(mesh.nc, 0.1))
        qc = np.full_like(temp, 2e-4)
        cloudy = rad.compute(temp, st.tracers["qv"], qc, dpi,
                             np.full(mesh.nc, 300.0), cz, np.full(mesh.nc, 0.1))
        assert cloudy.gsw.mean() < 0.8 * clear.gsw.mean()
        # Clouds also increase downward longwave (greenhouse).
        assert cloudy.glw.mean() > clear.glw.mean()

    def test_moist_columns_radiate_more_downward_lw(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        rad = RadiationScheme()
        dry = rad.compute(temp, st.tracers["qv"] * 0.1, st.tracers["qc"], dpi,
                          np.full(mesh.nc, 300.0), np.zeros(mesh.nc),
                          np.full(mesh.nc, 0.1))
        wet = rad.compute(temp, st.tracers["qv"], st.tracers["qc"], dpi,
                          np.full(mesh.nc, 300.0), np.zeros(mesh.nc),
                          np.full(mesh.nc, 0.1))
        assert wet.glw.mean() > dry.glw.mean()

    def test_level_major_sweeps_match_the_column_major_body(self):
        """Bitwise, on a G3 tropical state with cloud, day and night
        columns (``coszen = 0``), varied skin temperature and albedo."""
        mesh, vc = build_mesh(3), VerticalCoordinate.stretched(8)
        st, dpi, p, ex, temp = _columns(mesh, vc)
        rng = np.random.default_rng(4)
        qc = st.tracers["qc"] + 3e-4 * rng.random(temp.shape) * (rng.random(temp.shape) < 0.3)
        tskin = 300.0 + 5.0 * rng.normal(size=mesh.nc)
        albedo = rng.uniform(0.05, 0.4, size=mesh.nc)
        coszen = cosine_solar_zenith(mesh.cell_lat, mesh.cell_lon, 20000.0)
        assert (coszen == 0.0).any() and (coszen > 0.5).any()
        scheme = RadiationScheme()
        args = (temp, st.tracers["qv"], qc, dpi, tskin, coszen, albedo)
        res = scheme.compute(*args)
        bitwise({k: getattr(res, k) for k in ("heating_rate", "gsw", "glw", "olr")},
                _column_major_radiation(scheme, *args))
        assert res.heating_rate.flags.c_contiguous

    def test_coszen_geometry(self):
        lat = np.array([0.0, np.pi / 2, -np.pi / 2])
        lon = np.zeros(3)
        # Noon at lon=0 is time 43200 with the hour-angle convention.
        cz = cosine_solar_zenith(lat, lon, 43200.0, day_of_year=81.0)
        assert cz[0] == pytest.approx(1.0, abs=0.02)    # equator noon
        assert cz[1] < 0.15 and cz[2] < 0.15            # poles


class TestMicrophysics:
    def test_supersaturation_condenses_and_warms(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        qv = saturation_mixing_ratio(temp, p) * 1.1
        res = kessler_microphysics(temp, qv, np.zeros_like(qv), np.zeros_like(qv),
                                   p, dpi, ex, 600.0)
        assert res.dqv.min() < 0.0
        assert (res.dtheta * ex)[res.dqv < 0].max() > 0.0

    def test_water_conservation(self, mesh, vc):
        """Column water change = -precipitation, exactly."""
        st, dpi, p, ex, temp = _columns(mesh, vc)
        rng = np.random.default_rng(0)
        qv = saturation_mixing_ratio(temp, p) * rng.uniform(0.7, 1.2, temp.shape)
        qc = rng.uniform(0.0, 1e-3, temp.shape)
        qr = rng.uniform(0.0, 1e-3, temp.shape)
        dt = 600.0
        res = kessler_microphysics(temp, qv, qc, qr, p, dpi, ex, dt)
        dwater = ((res.dqv + res.dqc + res.dqr) * dpi).sum(axis=1) / GRAVITY
        np.testing.assert_allclose(dwater, -res.precip_rate, rtol=1e-8, atol=1e-15)

    def test_moist_enthalpy_conserved_without_sedimentation(self, mesh, vc):
        """cp*dT + L*dqv = 0 per layer for phase changes."""
        st, dpi, p, ex, temp = _columns(mesh, vc)
        qv = saturation_mixing_ratio(temp, p) * 1.05
        res = kessler_microphysics(temp, qv, np.zeros_like(qv), np.zeros_like(qv),
                                   p, dpi, ex, 600.0)
        enthalpy = CP_DRY * res.dtheta * ex + LATENT_HEAT_VAP * res.dqv
        np.testing.assert_allclose(enthalpy, 0.0, atol=1e-8)

    def test_no_negative_species(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        rng = np.random.default_rng(1)
        qv = saturation_mixing_ratio(temp, p) * rng.uniform(0.3, 1.3, temp.shape)
        qc = rng.uniform(0.0, 2e-3, temp.shape)
        qr = rng.uniform(0.0, 2e-3, temp.shape)
        dt = 600.0
        res = kessler_microphysics(temp, qv, qc, qr, p, dpi, ex, dt)
        assert np.all(qv + dt * res.dqv >= -1e-12)
        assert np.all(qc + dt * res.dqc >= -1e-12)
        assert np.all(qr + dt * res.dqr >= -1e-12)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_property_conservation_random(self, seed):
        rng = np.random.default_rng(seed)
        nc, nlev = 30, 6
        p = np.linspace(2e4, 1e5, nlev)[None, :] * np.ones((nc, 1))
        dpi = np.full((nc, nlev), 1e4)
        ex = exner(p)
        temp = rng.uniform(230.0, 310.0, (nc, nlev))
        qv = saturation_mixing_ratio(temp, p) * rng.uniform(0.0, 1.5, (nc, nlev))
        qc = rng.uniform(0.0, 3e-3, (nc, nlev))
        qr = rng.uniform(0.0, 3e-3, (nc, nlev))
        res = kessler_microphysics(temp, qv, qc, qr, p, dpi, ex, 300.0)
        dwater = ((res.dqv + res.dqc + res.dqr) * dpi).sum(axis=1) / GRAVITY
        np.testing.assert_allclose(dwater, -res.precip_rate, rtol=1e-6, atol=1e-13)
        assert np.all(res.precip_rate >= 0.0)


class TestConvection:
    def test_stable_dry_column_inactive(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        qv = st.tracers["qv"] * 0.05        # very dry
        res = convective_adjustment(temp, qv, p, dpi, ex, 600.0)
        assert not res.active.any()
        np.testing.assert_array_equal(res.precip_rate, 0.0)

    def test_moist_unstable_column_rains(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        qv = saturation_mixing_ratio(temp, p) * 0.95
        res = convective_adjustment(temp, qv, p, dpi, ex, 600.0)
        assert res.active.any()
        assert res.precip_rate.max() > 0.0

    def test_energy_closure_exact(self, mesh, vc):
        """Column enthalpy change equals latent heat of the rain."""
        st, dpi, p, ex, temp = _columns(mesh, vc)
        qv = saturation_mixing_ratio(temp, p) * 0.95
        dt = 600.0
        res = convective_adjustment(temp, qv, p, dpi, ex, dt)
        dh = (CP_DRY * res.dtheta * ex * dpi).sum(axis=1) / GRAVITY
        lh = LATENT_HEAT_VAP * res.precip_rate
        np.testing.assert_allclose(dh, lh, rtol=1e-10, atol=1e-12)

    def test_never_negative_humidity(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        qv = saturation_mixing_ratio(temp, p) * 0.95
        dt = 600.0
        res = convective_adjustment(temp, qv, p, dpi, ex, dt)
        assert np.all(qv + dt * res.dqv >= -1e-15)

    def test_cape_positive_for_warm_moist_surface(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        qv = saturation_mixing_ratio(temp, p) * 0.9
        cape = parcel_cape(temp, qv, p, dpi, ex)
        assert cape.max() > 100.0


class TestPBL:
    def test_conserves_column_theta_without_flux(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        res = pbl_diffusion(
            st.theta, st.tracers["qv"], dpi, p, temp,
            np.zeros(mesh.nc), np.zeros(mesh.nc),
            np.full(mesh.nc, 5.0), ex[:, -1], 600.0,
        )
        col = (res.dtheta * dpi).sum(axis=1)
        np.testing.assert_allclose(col, 0.0, atol=1e-10 * dpi.sum(axis=1).mean())

    def test_surface_heating_enters_column(self, mesh, vc):
        """The theta budget closes exactly against the surface source:
        cp * ex_sfc * d/dt(column theta mass) == SHF."""
        st, dpi, p, ex, temp = _columns(mesh, vc)
        shf = np.full(mesh.nc, 100.0)
        dt = 600.0
        res = pbl_diffusion(
            st.theta, st.tracers["qv"], dpi, p, temp,
            shf, np.zeros(mesh.nc), np.full(mesh.nc, 5.0), ex[:, -1], dt,
        )
        col_theta = (res.dtheta * dpi).sum(axis=1) / GRAVITY
        np.testing.assert_allclose(CP_DRY * col_theta * ex[:, -1], 100.0, rtol=1e-8)

    def test_diffusion_smooths_profile(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        theta = st.theta.copy()
        theta[:, -2] += 5.0              # a kink
        res = pbl_diffusion(
            theta, st.tracers["qv"], dpi, p, temp,
            np.full(mesh.nc, 200.0), np.zeros(mesh.nc),
            np.full(mesh.nc, 10.0), ex[:, -1], 1800.0,
        )
        assert res.dtheta[:, -2].mean() < 0.0


class TestSurfaceModel:
    def _model(self, mesh):
        return SurfaceModel(
            land_mask=idealized_land_mask(mesh.cell_lat, mesh.cell_lon),
            sst=idealized_sst(mesh.cell_lat),
        )

    def test_ocean_skin_is_sst(self, mesh):
        m = self._model(mesh)
        ocean = m.land_mask == 0.0
        np.testing.assert_allclose(m.skin_temperature()[ocean], m.sst[ocean])

    def test_fluxes_signs(self, mesh):
        m = self._model(mesh)
        t_air = m.skin_temperature() - 2.0     # unstable: warm surface
        fl = m.fluxes(t_air, np.full(mesh.nc, 0.005), np.full(mesh.nc, 8.0),
                      np.full(mesh.nc, 1.0e5))
        assert fl.sensible.mean() > 0.0
        assert np.all(fl.evaporation >= 0.0)
        assert np.all(fl.momentum_drag > 0.0)

    def test_land_slab_warms_under_sun(self, mesh):
        m = self._model(mesh)
        t0 = m.t_land.copy()
        fl = m.fluxes(m.skin_temperature(), np.full(mesh.nc, 0.01),
                      np.full(mesh.nc, 2.0), np.full(mesh.nc, 1.0e5))
        m.step_land(np.full(mesh.nc, 800.0), np.full(mesh.nc, 400.0), fl, 1800.0)
        land = m.land_mask > 0.5
        assert (m.t_land[land] - t0[land]).mean() > 0.0
        ocean = m.land_mask == 0.0
        np.testing.assert_array_equal(m.t_land[ocean], t0[ocean])

    def test_land_slab_bounded(self, mesh):
        m = self._model(mesh)
        fl = m.fluxes(m.skin_temperature(), np.full(mesh.nc, 0.01),
                      np.full(mesh.nc, 2.0), np.full(mesh.nc, 1.0e5))
        for _ in range(1000):
            m.step_land(np.full(mesh.nc, 1200.0), np.full(mesh.nc, 450.0), fl, 3600.0)
        assert m.t_land.max() <= 340.0

    def test_land_mask_covers_na_box(self, mesh):
        mask = idealized_land_mask(mesh.cell_lat, mesh.cell_lon)
        inside = (
            (mesh.cell_lat > np.deg2rad(20)) & (mesh.cell_lat < np.deg2rad(60))
            & (np.mod(mesh.cell_lon + np.pi, 2 * np.pi) - np.pi > np.deg2rad(-130))
            & (np.mod(mesh.cell_lon + np.pi, 2 * np.pi) - np.pi < np.deg2rad(-60))
        )
        assert mask[inside].mean() > 0.9

    def test_sst_peaks_at_equator(self, mesh):
        sst = idealized_sst(mesh.cell_lat)
        eq = np.abs(mesh.cell_lat) < 0.1
        pole = mesh.cell_lat > 1.3
        assert sst[eq].mean() > sst[pole].mean() + 15.0


class TestPhysicsSuite:
    def test_full_suite_runs_and_is_finite(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        suite = PhysicsSuite(
            mesh, vc,
            SurfaceModel(
                land_mask=idealized_land_mask(mesh.cell_lat, mesh.cell_lon),
                sst=idealized_sst(mesh.cell_lat),
            ),
            config=PhysicsConfig(dt_physics=600.0),
        )
        tend = suite.compute(st, np.full(mesh.nc, 5.0))
        for arr in (tend.dtheta, tend.dqv, tend.dqc, tend.dqr,
                    tend.precip_total, tend.gsw, tend.glw, tend.tskin):
            assert np.isfinite(arr).all()
        assert np.all(tend.precip_total >= 0.0)

    def test_radiation_caching(self, mesh, vc):
        st, *_ = _columns(mesh, vc)
        suite = PhysicsSuite(
            mesh, vc,
            SurfaceModel(
                land_mask=np.zeros(mesh.nc), sst=idealized_sst(mesh.cell_lat)
            ),
            config=PhysicsConfig(dt_physics=600.0, rad_ratio=3),
        )
        suite.compute(st, np.full(mesh.nc, 5.0))
        first = suite._cached_rad
        suite.compute(st, np.full(mesh.nc, 5.0))
        assert suite._cached_rad is first          # step 1: cached
        suite.compute(st, np.full(mesh.nc, 5.0))
        suite.compute(st, np.full(mesh.nc, 5.0))
        assert suite._cached_rad is not first      # step 3: recomputed

    def test_q1_q2_definitions(self, mesh, vc):
        st, dpi, p, ex, temp = _columns(mesh, vc)
        suite = PhysicsSuite(
            mesh, vc,
            SurfaceModel(land_mask=np.zeros(mesh.nc), sst=idealized_sst(mesh.cell_lat)),
            config=PhysicsConfig(dt_physics=600.0),
        )
        tend = suite.compute(st, np.full(mesh.nc, 5.0))
        np.testing.assert_allclose(tend.q1(ex), tend.dtheta * ex)
        np.testing.assert_allclose(
            tend.q2(), -(LATENT_HEAT_VAP / CP_DRY) * tend.dqv
        )
