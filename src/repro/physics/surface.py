"""Surface layer and Noah-MP-lite slab land model.

Bulk aerodynamic surface fluxes over a lower boundary that is prescribed
SST over ocean (the paper prescribes sea surface temperature and sea-ice)
and an active slab land model elsewhere (standing in for Noah-MP [22]):
one heat-capacity layer whose temperature integrates the surface energy
balance (absorbed shortwave ``gsw``, downward longwave ``glw``, upwelling
longwave, sensible and latent heat).  The skin temperature it produces
(``tskin``) is an *input of the ML radiation diagnostic module*
(section 3.2.3), which is why the land model is part of the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    CP_DRY,
    LATENT_HEAT_VAP,
    R_DRY,
    STEFAN_BOLTZMANN,
    T_FREEZE,
)


def saturation_vapor_pressure(temp: np.ndarray) -> np.ndarray:
    """Tetens formula [Pa]."""
    t = np.asarray(temp)
    return 610.78 * np.exp(17.27 * (t - T_FREEZE) / np.maximum(t - 35.85, 1.0))


def saturation_mixing_ratio(temp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Saturation water-vapour mixing ratio [kg/kg]."""
    es = saturation_vapor_pressure(temp)
    es = np.minimum(es, 0.5 * np.asarray(p))  # cap at very warm/low-p corner
    return 0.622 * es / (np.asarray(p) - 0.378 * es)


@dataclass
class SurfaceFluxes:
    sensible: np.ndarray      # W/m^2, positive upward (into atmosphere)
    latent: np.ndarray        # W/m^2
    evaporation: np.ndarray   # kg/m^2/s
    tskin: np.ndarray         # K
    momentum_drag: np.ndarray  # 1/s bulk drag coefficient * wind / depth


@dataclass
class SurfaceModel:
    """Prescribed-SST ocean + slab land with a prognostic skin temperature.

    ``land_mask`` is 1 over land, 0 over ocean; intermediate values blend.
    """

    land_mask: np.ndarray
    sst: np.ndarray
    t_land: np.ndarray = None
    heat_capacity: float = 3.0e5      # J/m^2/K (thin slab soil)
    drag_coefficient: float = 1.3e-3
    albedo_ocean: float = 0.07
    albedo_land: float = 0.22
    emissivity: float = 0.98
    beta_land: float = 0.5            # soil moisture availability

    def __post_init__(self) -> None:
        self.land_mask = np.asarray(self.land_mask, dtype=np.float64)
        self.sst = np.asarray(self.sst, dtype=np.float64)
        if self.t_land is None:
            self.t_land = self.sst.copy()

    @property
    def albedo(self) -> np.ndarray:
        return (
            self.land_mask * self.albedo_land
            + (1.0 - self.land_mask) * self.albedo_ocean
        )

    def snapshot(self):
        """Bit-exact copy of the slab's mutable state (:meth:`restore`)."""
        return self.t_land.copy()

    def restore(self, snap) -> None:
        self.t_land[:] = snap

    def skin_temperature(self) -> np.ndarray:
        return self.land_mask * self.t_land + (1.0 - self.land_mask) * self.sst

    def fluxes(
        self,
        t_air: np.ndarray,
        qv_air: np.ndarray,
        wind: np.ndarray,
        p_sfc: np.ndarray,
    ) -> SurfaceFluxes:
        """Bulk fluxes from the lowest model layer state."""
        tskin = self.skin_temperature()
        rho = p_sfc / (R_DRY * t_air)
        vel = np.maximum(wind, 1.0)                     # gustiness floor
        ch = self.drag_coefficient
        shf = rho * CP_DRY * ch * vel * (tskin - t_air)
        qsat = saturation_mixing_ratio(tskin, p_sfc)
        beta = self.land_mask * self.beta_land + (1.0 - self.land_mask)
        evap = np.maximum(rho * ch * vel * beta * (qsat - qv_air), 0.0)
        lhf = LATENT_HEAT_VAP * evap
        drag = ch * vel
        return SurfaceFluxes(
            sensible=shf, latent=lhf, evaporation=evap, tskin=tskin,
            momentum_drag=drag,
        )

    def step_land(
        self,
        gsw: np.ndarray,
        glw: np.ndarray,
        fluxes: SurfaceFluxes,
        dt: float,
    ) -> None:
        """Integrate the land slab energy balance over ``dt``.

        ``gsw``/``glw`` are the downward surface short/longwave fluxes
        the radiation (conventional or ML) scheme diagnosed.
        """
        absorbed_sw = (1.0 - self.albedo_land) * gsw
        up_lw = self.emissivity * STEFAN_BOLTZMANN * self.t_land**4
        net = absorbed_sw + self.emissivity * glw - up_lw - fluxes.sensible - fluxes.latent
        self.t_land = self.t_land + dt * self.land_mask * net / self.heat_capacity
        # keep the slab physical
        self.t_land = np.clip(self.t_land, 180.0, 340.0)


def idealized_land_mask(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """A simple two-continent land mask for aquaplanet-plus experiments.

    A big northern-hemisphere continent (an "Asia/North-America" stand-in
    covering the Fig. 8 North America diagnostic box) and a smaller
    southern one.
    """
    lon = np.mod(lon + np.pi, 2 * np.pi) - np.pi
    na = (
        (lat > np.deg2rad(10)) & (lat < np.deg2rad(70))
        & (lon > np.deg2rad(-140)) & (lon < np.deg2rad(-50))
    )
    afr = (
        (lat > np.deg2rad(-35)) & (lat < np.deg2rad(35))
        & (lon > np.deg2rad(-15)) & (lon < np.deg2rad(50))
    )
    return (na | afr).astype(np.float64)


def idealized_sst(lat: np.ndarray) -> np.ndarray:
    """Zonally symmetric control SST (QOBS-like) [K]."""
    s = np.sin(np.clip(lat, -np.pi / 3, np.pi / 3) * 1.5)
    return T_FREEZE + 27.0 * (1.0 - s * s)
