"""The conventional physics suite driver.

Runs the full column-physics chain in GRIST's calling order —
radiation (on the longer radiation timestep, Table 2's Phy=60 s /
Rad=180 s ratio), surface fluxes + land update, PBL diffusion, convective
adjustment, then grid-scale microphysics — and returns the summed
tendencies plus the diagnostics the coupling interface exposes.

It also computes the **Q1/Q2 residual diagnostics** (apparent heat source
and apparent moisture sink) that section 3.2.2 selects as the ML suite's
training targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import CP_DRY, LATENT_HEAT_VAP
from repro.dycore.state import ModelState
from repro.dycore.vertical import exner
from repro.physics.convection import convective_adjustment
from repro.physics.microphysics import kessler_microphysics
from repro.physics.pbl import pbl_diffusion
from repro.physics.radiation import RadiationScheme, cosine_solar_zenith
from repro.physics.surface import SurfaceModel


@dataclass
class PhysicsTendencies:
    """Summed physics tendencies and coupling diagnostics."""

    dtheta: np.ndarray        # (nc, nlev) K/s
    dqv: np.ndarray           # (nc, nlev) 1/s
    dqc: np.ndarray
    dqr: np.ndarray
    surface_drag: np.ndarray  # (nc,) 1/s bulk drag for the lowest layer
    precip_conv: np.ndarray   # (nc,) kg/m^2/s
    precip_ls: np.ndarray     # (nc,) kg/m^2/s
    gsw: np.ndarray           # (nc,) W/m^2
    glw: np.ndarray           # (nc,) W/m^2
    tskin: np.ndarray         # (nc,) K
    coszen: np.ndarray        # (nc,)

    @property
    def precip_total(self) -> np.ndarray:
        return self.precip_conv + self.precip_ls

    def q1(self, exner_mid: np.ndarray) -> np.ndarray:
        """Apparent heat source Q1 [K/s as temperature tendency]."""
        return self.dtheta * exner_mid

    def q2(self) -> np.ndarray:
        """Apparent moisture sink Q2 [K/s equivalent], -L/cp dqv."""
        return -(LATENT_HEAT_VAP / CP_DRY) * self.dqv


@dataclass
class PhysicsConfig:
    dt_physics: float = 600.0
    #: radiation runs every ``rad_ratio`` physics steps (Table 2: 3).
    rad_ratio: int = 3
    day_of_year: float = 200.0


class PhysicsSuite:
    """Conventional parameterisation suite bound to a mesh + surface."""

    def __init__(
        self,
        mesh,
        vcoord,
        surface: SurfaceModel,
        radiation: RadiationScheme | None = None,
        config: PhysicsConfig | None = None,
    ):
        self.mesh = mesh
        self.vcoord = vcoord
        self.surface = surface
        self.radiation = radiation or RadiationScheme()
        self.config = config or PhysicsConfig()
        self._step = 0
        self._cached_rad = None

    def snapshot(self):
        """The radiation cadence: step count and cached radiation."""
        return self._step, self._cached_rad

    def restore(self, snap) -> None:
        self._step, self._cached_rad = snap

    def compute_from_coupler(self, state: ModelState, fields) -> PhysicsTendencies:
        """The coupling interface's call (section 3.2.4)."""
        return self.compute(state, fields.wind_speed_sfc)

    def compute(self, state: ModelState, wind_speed_sfc: np.ndarray) -> PhysicsTendencies:
        """Full physics step for the current state.

        ``wind_speed_sfc`` is the lowest-layer wind speed at cells (the
        coupler reconstructs it from edge velocities).
        """
        mesh, vc, cfg = self.mesh, self.vcoord, self.config
        dt = cfg.dt_physics
        dpi = state.dpi()
        p_mid = state.p_mid()
        ex = exner(p_mid)
        temp = state.theta * ex
        qv = state.tracers.get("qv", np.zeros_like(temp))
        qc = state.tracers.get("qc", np.zeros_like(temp))
        qr = state.tracers.get("qr", np.zeros_like(temp))

        # --- Radiation (long timestep, cached between calls).
        coszen = cosine_solar_zenith(
            mesh.cell_lat, mesh.cell_lon, state.time, cfg.day_of_year
        )
        if self._cached_rad is None or self._step % cfg.rad_ratio == 0:
            self._cached_rad = self.radiation.compute(
                temp, qv, qc, dpi,
                self.surface.skin_temperature(), coszen, self.surface.albedo,
            )
        rad = self._cached_rad

        # --- Surface fluxes and land slab update.
        flux = self.surface.fluxes(temp[:, -1], qv[:, -1], wind_speed_sfc, state.ps)
        self.surface.step_land(rad.gsw, rad.glw, flux, dt)

        # --- PBL diffusion (implicit).
        pbl = pbl_diffusion(
            state.theta, qv, dpi, p_mid, temp,
            flux.sensible, flux.evaporation, wind_speed_sfc, ex[:, -1], dt,
        )
        theta1 = state.theta + dt * pbl.dtheta
        qv1 = qv + dt * pbl.dqv
        temp1 = theta1 * ex

        # --- Convection.
        conv = convective_adjustment(temp1, qv1, p_mid, dpi, ex, dt)
        theta2 = theta1 + dt * conv.dtheta
        qv2 = qv1 + dt * conv.dqv
        temp2 = theta2 * ex

        # --- Grid-scale microphysics.
        mp = kessler_microphysics(temp2, qv2, qc, qr, p_mid, dpi, ex, dt)

        dtheta_rad = rad.heating_rate / ex
        dtheta = pbl.dtheta + conv.dtheta + mp.dtheta + dtheta_rad
        dqv = pbl.dqv + conv.dqv + mp.dqv
        self._step += 1
        return PhysicsTendencies(
            dtheta=dtheta,
            dqv=dqv,
            dqc=mp.dqc,
            dqr=mp.dqr,
            surface_drag=flux.momentum_drag,
            precip_conv=conv.precip_rate,
            precip_ls=mp.precip_rate,
            gsw=rad.gsw,
            glw=rad.glw,
            tskin=flux.tskin,
            coszen=coszen,
        )
