"""Conventional-vs-ML physics comparison experiments (paper Fig. 8).

Fig. 8 shows (a,b) rainfall from a 3-hour high-resolution integration
with each suite, and (c-f) one-year annual-mean rainfall over North
America at G6 and G8.  Here the analogue runs the same model with both
suites at two laptop grid levels and scores the precipitation pattern
over the idealised "North America" continent box.  Every run is the
registered ``aquaplanet`` scenario (:mod:`repro.ensemble.scenarios`),
where the model is assembled; the trained ML suite rides in as
``suite=``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dycore.vertical import VerticalCoordinate
from repro.ensemble.scenarios import assemble_scenario_model, get_scenario
from repro.experiments.doksuri import spatial_correlation
from repro.grid.mesh import Mesh
from repro.resilience.recovery import StepFailure


#: Every Fig. 8 run is this registered scenario (warm aquaplanet, +4 K SST).
AQUAPLANET = get_scenario("aquaplanet")

#: The Fig. 8 diagnostic box (idealised North America).
NA_BOX = (np.deg2rad(10.0), np.deg2rad(70.0), np.deg2rad(-140.0), np.deg2rad(-50.0))


def north_america_box_mean(mesh: Mesh, field: np.ndarray) -> float:
    """Area-weighted mean of a cell field over the NA box."""
    lat0, lat1, lon0, lon1 = NA_BOX
    lon = np.mod(mesh.cell_lon + np.pi, 2 * np.pi) - np.pi
    box = (
        (mesh.cell_lat >= lat0) & (mesh.cell_lat <= lat1)
        & (lon >= lon0) & (lon <= lon1)
    )
    w = mesh.cell_area[box]
    return float((field[box] * w).sum() / w.sum())


@dataclass
class ClimateRunResult:
    scheme: str
    level: int
    mean_precip: np.ndarray      # (nc,) kg/m^2/s
    na_box_mean_mm_day: float
    global_mean_mm_day: float
    tskin_trend: float           # K over the run — drift check
    stable: bool


def _perturbed_aquaplanet_state(mesh, vcoord, seed: int):
    """The aquaplanet base state plus this module's ``default_rng(seed)``
    theta noise."""
    state = AQUAPLANET.base_state(mesh, vcoord)
    rng = np.random.default_rng(seed)
    state.theta = state.theta + 0.3 * rng.normal(size=state.theta.shape)
    return state


def run_climate_case(
    mesh: Mesh,
    vcoord: VerticalCoordinate,
    scheme_label: str,
    hours: float,
    physics_suite=None,
    seed: int = 0,
) -> ClimateRunResult:
    """One climate-style run (conventional or ML physics)."""
    model = assemble_scenario_model(
        AQUAPLANET, mesh, vcoord, scheme_label, suite=physics_suite
    )
    state = _perturbed_aquaplanet_state(mesh, vcoord, seed)
    stable = True
    try:
        state = model.run_hours(state, hours)
    except StepFailure:
        stable = False
    precip = (
        model.history.mean_precip()
        if model.history.precip
        else np.zeros(mesh.nc)
    )
    tsk = model.history.tskin_mean
    trend = (tsk[-1] - tsk[0]) if len(tsk) >= 2 else 0.0
    w = mesh.cell_area
    return ClimateRunResult(
        scheme=scheme_label,
        level=mesh.level,
        mean_precip=precip,
        na_box_mean_mm_day=north_america_box_mean(mesh, precip) * 86400.0,
        global_mean_mm_day=float((precip * w).sum() / w.sum()) * 86400.0,
        tskin_trend=float(trend),
        stable=stable,
    )


def short_integration_comparison(
    mesh: Mesh,
    vcoord: VerticalCoordinate,
    ml_suite,
    spinup_hours: float = 24.0,
    run_hours: float = 8.0,
    seed: int = 1,
) -> dict:
    """Fig. 8(a,b): both suites integrated from the *same* spun-up state.

    The paper's panels (a,b) compare the rainfall of short (3-hour)
    integrations; starting both suites from one shared state isolates
    the parameterisation difference from synoptic drift.  Returns the
    time-mean precipitation of each run plus the pattern and zonal-band
    correlations.
    """
    spin = assemble_scenario_model(AQUAPLANET, mesh, vcoord, "DP-PHY")
    st0 = spin.run_hours(
        _perturbed_aquaplanet_state(mesh, vcoord, seed), spinup_hours
    )

    conv = assemble_scenario_model(AQUAPLANET, mesh, vcoord, "DP-PHY")
    conv.run_hours(st0.copy(), run_hours)
    p_conv = conv.history.mean_precip()

    ml = assemble_scenario_model(
        AQUAPLANET, mesh, vcoord, "DP-ML", suite=ml_suite
    )
    ml.run_hours(st0.copy(), run_hours)
    p_ml = ml.history.mean_precip()

    _, z_conv = zonal_mean_precip(mesh, p_conv, 12)
    _, z_ml = zonal_mean_precip(mesh, p_ml, 12)
    zcorr = float(np.corrcoef(z_conv, z_ml)[0, 1]) if z_conv.std() > 0 else 0.0
    return {
        "precip_conv": p_conv,
        "precip_ml": p_ml,
        "pattern_correlation": spatial_correlation(p_conv, p_ml),
        "zonal_band_correlation": zcorr,
        "conv_mean_mm_day": float(p_conv.mean() * 86400.0),
        "ml_mean_mm_day": float(p_ml.mean() * 86400.0),
    }


def zonal_mean_precip(
    mesh: Mesh, precip: np.ndarray, nbins: int = 18
) -> tuple[np.ndarray, np.ndarray]:
    """Zonal-mean precipitation profile (for the rain-band diagnostic)."""
    edges = np.linspace(-np.pi / 2, np.pi / 2, nbins + 1)
    idx = np.clip(np.digitize(mesh.cell_lat, edges) - 1, 0, nbins - 1)
    w = mesh.cell_area
    num = np.bincount(idx, weights=precip * w, minlength=nbins)
    den = np.maximum(np.bincount(idx, weights=w, minlength=nbins), 1e-30)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, num / den
