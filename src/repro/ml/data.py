"""Training data generation — the synthetic GSRM archive (Table 1).

The paper trains on hourly 5 km GRIST-GSRM output from four 20-day
periods spanning ENSO and MJO phases (Table 1).  That archive is
proprietary, so we generate the closest runnable equivalent: hourly
snapshots of *this repo's own model* run with the conventional physics
suite, under SST patterns modulated by each period's Oceanic Nino Index
and an MJO-like eastward-propagating warm-pool anomaly with the quoted
RMM amplitude range.  The substitution preserves what matters for the
method: the (inputs -> Q1/Q2, gsw/glw) functional relationship is
diagnosed from a storm-scale model the same way the paper does it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dycore.state import tropical_profile_state
from repro.dycore.vertical import VerticalCoordinate
from repro.grid.mesh import Mesh
from repro.model.config import SchemeConfig, scaled_grid_config
from repro.model.grist import GristModel
from repro.physics.surface import SurfaceModel, idealized_land_mask, idealized_sst


@dataclass(frozen=True)
class TrainingPeriod:
    """One row of Table 1."""

    name: str
    time_period: str
    oni: float                      # Oceanic Nino Index
    enso_phase: str
    rmm_range: tuple[float, float]  # Real-time Multivariate MJO index


#: Table 1 of the paper.
TABLE1_PERIODS: tuple[TrainingPeriod, ...] = (
    TrainingPeriod("jan1998", "1-20 January 1998", 2.2, "El Nino", (0.69, 1.98)),
    TrainingPeriod("apr2005", "1-20 April 2005", 0.4, "neutral", (2.72, 3.71)),
    TrainingPeriod("jul2015", "10-29 July 2015", -0.4, "neutral", (0.17, 1.05)),
    TrainingPeriod("oct1988", "1-20 October 1988", -1.5, "La Nina", (0.67, 2.98)),
)


def period_sst(mesh: Mesh, period: TrainingPeriod, time_days: float = 0.0) -> np.ndarray:
    """SST field for a training period: control + ENSO + MJO anomalies."""
    lat, lon = mesh.cell_lat, mesh.cell_lon
    sst = idealized_sst(lat)
    # ENSO: equatorial eastern-Pacific anomaly proportional to ONI.
    lon_pac = np.mod(lon - np.deg2rad(-120.0) + np.pi, 2 * np.pi) - np.pi
    enso = period.oni * np.exp(-((lat / np.deg2rad(12)) ** 2)) * np.exp(
        -((lon_pac / np.deg2rad(50)) ** 2)
    )
    # MJO: eastward-propagating equatorial warm anomaly, ~45-day period,
    # amplitude from the period's RMM midpoint.
    rmm = 0.5 * (period.rmm_range[0] + period.rmm_range[1])
    phase = 2.0 * np.pi * time_days / 45.0
    mjo = 0.4 * rmm * np.exp(-((lat / np.deg2rad(10)) ** 2)) * np.cos(lon - phase)
    return sst + enso + mjo


@dataclass
class ArchiveSnapshot:
    """One hourly record of the synthetic GSRM archive."""

    time: float
    u: np.ndarray
    v: np.ndarray
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    tskin: np.ndarray
    coszr: np.ndarray
    q1: np.ndarray      # K/s — from the conventional suite's tendencies
    q2: np.ndarray      # K/s
    gsw: np.ndarray
    glw: np.ndarray


def generate_archive(
    mesh: Mesh,
    vcoord: VerticalCoordinate,
    period: TrainingPeriod,
    n_hours: int = 24,
    spinup_hours: float = 2.0,
    seed: int = 0,
) -> list[ArchiveSnapshot]:
    """Run the conventional-physics model and record hourly snapshots.

    The recorded targets (Q1, Q2, gsw, glw) come straight from the
    physics suite at each snapshot, mirroring how the paper's archive
    pairs coarse-grained states with diagnosed sources.  The inputs are
    the model's own coupler fields, and recording leaves the run
    exactly as an unrecorded one.
    """
    grid_cfg = scaled_grid_config(mesh.level, vcoord.nlev)
    surface = SurfaceModel(
        land_mask=idealized_land_mask(mesh.cell_lat, mesh.cell_lon),
        # A uniform warm offset keeps the archive in a precipitating
        # regime so Q1/Q2 carry a convection signal worth learning.
        sst=period_sst(mesh, period) + 2.0,
    )
    model = GristModel(
        mesh, vcoord, grid_cfg, SchemeConfig("DP-PHY", False, False), surface=surface
    )
    rng = np.random.default_rng(seed)
    state = tropical_profile_state(mesh, vcoord, 297.0, rh_surface=0.85)
    # Seed variability so columns differ.
    state.theta = state.theta + 0.5 * rng.normal(size=state.theta.shape)
    state = model.run_hours(state, spinup_hours)

    snapshots: list[ArchiveSnapshot] = []
    for h in range(n_hours):
        # Update the MJO phase as time advances.
        model.surface.sst = period_sst(mesh, period, time_days=state.time / 86400.0) + 2.0
        state = model.run_hours(state, 1.0)
        fields = model.coupling_fields(state)
        # Recording must not advance the run: the suite call steps the
        # land slab and the radiation cadence, so bracket it.
        saved = model.snapshot_mutable()
        tend = model.physics.compute(state, fields.wind_speed_sfc)
        model.restore_mutable(saved)
        snapshots.append(
            ArchiveSnapshot(
                time=state.time,
                u=fields.u, v=fields.v, t=fields.t, q=fields.q, p=fields.p,
                tskin=fields.tskin.copy(), coszr=fields.coszr,
                q1=tend.q1(fields.exner_mid), q2=tend.q2(),
                gsw=tend.gsw.copy(), glw=tend.glw.copy(),
            )
        )
    return snapshots


def build_tendency_dataset(
    snapshots: list[ArchiveSnapshot],
) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) matrices for the tendency CNN: columns are samples.

    x: (n_samples, 5, nlev) stacked (U, V, T, Q, P);
    y: (n_samples, 2, nlev) stacked (Q1, Q2).
    """
    xs, ys = [], []
    for s in snapshots:
        xs.append(np.stack([s.u, s.v, s.t, s.q, s.p], axis=1))
        ys.append(np.stack([s.q1, s.q2], axis=1))
    return np.concatenate(xs, axis=0), np.concatenate(ys, axis=0)


def build_radiation_dataset(
    snapshots: list[ArchiveSnapshot],
) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) matrices for the radiation MLP."""
    xs, ys = [], []
    for s in snapshots:
        xs.append(np.concatenate([s.t, s.q, s.tskin[:, None], s.coszr[:, None]], axis=1))
        ys.append(np.stack([s.gsw, s.glw], axis=1))
    return np.concatenate(xs, axis=0), np.concatenate(ys, axis=0)
