"""The "23.7" extreme-rainfall experiment (paper Fig. 7).

The paper simulates super Typhoon Doksuri's remnants driving extreme
rainfall over North China, at G11L60 and G12L30, against CMPA
observations; the headline finding is that *horizontal* resolution
dominates: G12L30 reproduces the typhoon rain band and rainfall
magnitude better, "as quantified by G12L30's higher spatial correlation
coefficients".

ERA5 initial conditions and CMPA data are proprietary, so the runnable
analogue is an idealised warm-core vortex northwest of the idealised
continent, integrated at two grid levels plus a finer reference run that
plays the role of the observations.  The experiment's logic — rain-band
spatial correlation against the reference increasing with horizontal
resolution — carries over unchanged.  The vortex, its +2 K SST and its
storm-permitting dissipation are the registered ``doksuri`` scenario
(:mod:`repro.ensemble.scenarios`), where the model is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from repro.constants import P0
from repro.dycore.state import ModelState, tropical_profile_state, _great_circle, _lon
from repro.dycore.vertical import VerticalCoordinate
from repro.ensemble.scenarios import build_scenario_model, get_scenario
from repro.grid.mesh import Mesh


#: Landfall region of the idealised case (the "North China" analogue):
#: just northwest of the big continent's coastline.
STORM_LAT = np.deg2rad(24.0)
STORM_LON = np.deg2rad(-60.0)
RAIN_BOX = (np.deg2rad(15.0), np.deg2rad(45.0), np.deg2rad(-90.0), np.deg2rad(-35.0))


def tropical_cyclone_state(
    mesh: Mesh,
    vcoord: VerticalCoordinate,
    v_max: float = 25.0,
    r_max: float = 300.0e3,
    lat0: float = STORM_LAT,
    lon0: float = STORM_LON,
    env_temperature: float = 300.0,
) -> ModelState:
    """Idealised warm-core tropical vortex in gradient-wind-like balance.

    Tangential wind ``v(r) = v_max * (r/rm) * exp((1 - (r/rm)^2)/2)``
    decaying with height, a hydrostatically consistent surface-pressure
    depression, a warm core, and a saturated inner-core boundary layer to
    feed the rain band.
    """
    state = tropical_profile_state(mesh, vcoord, env_temperature)
    R = mesh.radius

    # --- edge tangential winds of the vortex.
    lat_e, lon_e = mesh.edge_lat, _lon(mesh.edge_xyz)
    d_e = _great_circle(lat_e, lon_e, lat0, lon0) * R
    x = d_e / r_max
    vt = v_max * x * np.exp(0.5 * (1.0 - x**2))
    # Unit vector of cyclonic (counter-clockwise, NH) flow at each edge:
    # cross(radial_from_center, up).
    center = np.array([
        np.cos(lat0) * np.cos(lon0), np.cos(lat0) * np.sin(lon0), np.sin(lat0),
    ])
    to_edge = mesh.edge_xyz - center[None, :]
    to_edge -= np.einsum("ej,ej->e", to_edge, mesh.edge_xyz)[:, None] * mesh.edge_xyz
    nrm = np.linalg.norm(to_edge, axis=1, keepdims=True)
    to_edge = np.where(nrm > 1e-9, to_edge / np.maximum(nrm, 1e-9), 0.0)
    azim = np.cross(mesh.edge_xyz, to_edge)            # CCW tangential dir
    proj = np.einsum("ej,ej->e", azim, mesh.edge_normal)
    # Vertical decay: strongest at the surface, gone near the tropopause.
    sig = vcoord.sigma_mid
    decay = np.clip((sig - 0.15) / 0.85, 0.0, 1.0) ** 0.7
    state.u = (vt * proj)[:, None] * decay[None, :]

    # --- pressure depression and warm core at cells.
    lat_c, lon_c = mesh.cell_lat, mesh.cell_lon
    d_c = _great_circle(lat_c, lon_c, lat0, lon0) * R
    xc = d_c / r_max
    depression = 2500.0 * np.exp(-(xc**2) / 2.0)        # ~25 hPa core
    state.ps = np.full(mesh.nc, P0) - depression
    warm = 3.0 * np.exp(-(xc**2) / 2.0)
    state.theta = state.theta + warm[:, None] * (1.0 - np.abs(2 * sig - 1.0))[None, :]

    # --- saturated inner core feeding the rain band.
    if "qv" in state.tracers:
        moist = np.exp(-(xc**2) / 4.0)
        boost = 1.0 + 0.6 * moist[:, None] * np.clip((sig - 0.4) / 0.6, 0, 1)[None, :]
        state.tracers["qv"] = state.tracers["qv"] * boost

    from repro.dycore.hevi import discrete_balanced_phi

    state.phi = discrete_balanced_phi(
        vcoord.dpi(state.ps), state.theta, state.phi_surface, vcoord.ptop
    )
    return state


@dataclass
class DoksuriResult:
    level: int
    mean_rain: np.ndarray          # (nc,) kg/m^2/s time-mean rain rate
    box_mean_mm_day: float
    box_max_mm_day: float
    min_ps: float
    cloud_top_temp: np.ndarray     # (nc,) K — the Fig. 7 right-panel proxy
    mesh: Mesh


def run_doksuri_case(
    level: int, nlev: int = 10, hours: float = 12.0
) -> DoksuriResult:
    """Run the registered ``doksuri`` scenario at one grid level; returns
    rain metrics."""
    from repro.dycore.vertical import exner

    scenario = get_scenario("doksuri")
    model = build_scenario_model(scenario, level, nlev, "DP-PHY")
    mesh = model.mesh
    state = scenario.base_state(mesh, model.vcoord)
    state = model.run_hours(state, hours)

    rain = model.history.mean_precip()
    box = _in_box(mesh)
    # Cloud-top temperature: temperature of the highest layer with cloud.
    temp = state.theta * exner(state.p_mid())
    qc = state.tracers.get("qc", np.zeros_like(temp))
    cloudy = qc > 1e-6
    top_idx = np.where(cloudy.any(axis=1), cloudy.argmax(axis=1), temp.shape[1] - 1)
    ctt = temp[np.arange(mesh.nc), top_idx]
    return DoksuriResult(
        level=level,
        mean_rain=rain,
        box_mean_mm_day=float(rain[box].mean() * 86400.0),
        box_max_mm_day=float(rain[box].max() * 86400.0),
        min_ps=float(state.ps.min()),
        cloud_top_temp=ctt,
        mesh=mesh,
    )


def _in_box(mesh: Mesh) -> np.ndarray:
    lat0, lat1, lon0, lon1 = RAIN_BOX
    lon = np.mod(mesh.cell_lon + np.pi, 2 * np.pi) - np.pi
    return (
        (mesh.cell_lat >= lat0) & (mesh.cell_lat <= lat1)
        & (lon >= lon0) & (lon <= lon1)
    )


def regrid_to(coarse: Mesh, fine: Mesh, field_fine: np.ndarray) -> np.ndarray:
    """Area-style aggregation of a fine cell field onto a coarser mesh."""
    tree = cKDTree(coarse.cell_xyz)
    _, assign = tree.query(fine.cell_xyz)
    num = np.bincount(assign, weights=field_fine * fine.cell_area, minlength=coarse.nc)
    den = np.bincount(assign, weights=fine.cell_area, minlength=coarse.nc)
    den = np.maximum(den, 1e-30)
    return num / den


def spatial_correlation(a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Pearson pattern correlation — the Fig. 7 skill metric."""
    if mask is not None:
        a, b = a[mask], b[mask]
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0.0:
        return 0.0
    return float((a * b).sum() / denom)


def resolution_comparison(
    low_level: int = 3,
    high_level: int = 4,
    ref_level: int = 5,
    nlev: int = 10,
    hours: float = 8.0,
) -> dict:
    """The Fig. 7 experiment: correlation vs the reference, per resolution.

    Returns correlations of the low/high-resolution rain fields against
    the reference ("CMPA") field, all compared on the low-res mesh.
    """
    low = run_doksuri_case(low_level, nlev, hours)
    high = run_doksuri_case(high_level, nlev, hours)
    ref = run_doksuri_case(ref_level, nlev, hours)

    rain_high_on_low = regrid_to(low.mesh, high.mesh, high.mean_rain)
    rain_ref_on_low = regrid_to(low.mesh, ref.mesh, ref.mean_rain)
    box = _in_box(low.mesh)
    return {
        "corr_low": spatial_correlation(low.mean_rain, rain_ref_on_low, box),
        "corr_high": spatial_correlation(rain_high_on_low, rain_ref_on_low, box),
        "box_mean_low": low.box_mean_mm_day,
        "box_mean_high": high.box_mean_mm_day,
        "box_mean_ref": ref.box_mean_mm_day,
        "min_ps_low": low.min_ps,
        "min_ps_high": high.min_ps,
    }
