"""Model state container and idealised initial conditions.

Initial states cover the paper's hierarchy of tests (section 3.4.2):
rest/isothermal (stability), solid-body rotation (balance), baroclinic
wave (dynamics), plus the idealised tropical cyclone used by the Doksuri
experiment (in :mod:`repro.experiments.doksuri`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import EARTH_RADIUS, GRAVITY, OMEGA, P0, R_DRY
from repro.dycore.vertical import (
    VerticalCoordinate,
    geopotential_interfaces,
    theta_from_temperature,
)
from repro.grid.mesh import Mesh


@dataclass
class ModelState:
    """Prognostic + key diagnostic fields of the dynamical core.

    Shapes: ``ps (nc,)``, ``u (ne, nlev)``, ``theta (nc, nlev)``,
    ``w``/``phi`` ``(nc, nlev+1)`` (interfaces, index 0 at model top),
    tracers ``(nc, nlev)`` each.
    """

    mesh: Mesh
    vcoord: VerticalCoordinate
    ps: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    w: np.ndarray
    phi: np.ndarray
    phi_surface: np.ndarray
    tracers: dict = field(default_factory=dict)
    time: float = 0.0

    @property
    def nlev(self) -> int:
        return self.vcoord.nlev

    def dpi(self) -> np.ndarray:
        """Layer dry-mass increments (nc, nlev) [Pa]."""
        return self.vcoord.dpi(self.ps)

    def p_mid(self) -> np.ndarray:
        return self.vcoord.pressure_mid(self.ps)

    def total_dry_mass(self) -> float:
        """Global integral of surface dry pressure * area / g [kg]."""
        return float(((self.ps - self.vcoord.ptop) * self.mesh.cell_area).sum() / GRAVITY)

    def copy(self) -> "ModelState":
        return ModelState(
            mesh=self.mesh,
            vcoord=self.vcoord,
            ps=self.ps.copy(),
            u=self.u.copy(),
            theta=self.theta.copy(),
            w=self.w.copy(),
            phi=self.phi.copy(),
            phi_surface=self.phi_surface.copy(),
            tracers={k: v.copy() for k, v in self.tracers.items()},
            time=self.time,
        )


def _hydrostatic_phi(
    mesh: Mesh, vcoord: VerticalCoordinate, ps: np.ndarray, theta: np.ndarray,
    phi_surface: np.ndarray,
) -> np.ndarray:
    """Initial geopotential in discrete NH balance (see hevi module)."""
    from repro.dycore.hevi import discrete_balanced_phi

    return discrete_balanced_phi(vcoord.dpi(ps), theta, phi_surface, vcoord.ptop)


def isothermal_rest_state(
    mesh: Mesh,
    vcoord: VerticalCoordinate,
    temperature: float = 300.0,
    ps0: float = P0,
    moisture: bool = True,
) -> ModelState:
    """Atmosphere at rest with uniform temperature — exact steady state."""
    nc, ne, nlev = mesh.nc, mesh.ne, vcoord.nlev
    ps = np.full(nc, ps0)
    p_mid = vcoord.pressure_mid(ps)
    theta = theta_from_temperature(np.full((nc, nlev), temperature), p_mid)
    phi_surface = np.zeros(nc)
    phi = _hydrostatic_phi(mesh, vcoord, ps, theta, phi_surface)
    tracers = {}
    if moisture:
        # Moisture decaying with height, saturated nowhere.
        sig = vcoord.sigma_mid
        qv = 0.012 * np.exp(-((1.0 - sig) / 0.25) ** 2)
        tracers = {
            "qv": np.broadcast_to(qv, (nc, nlev)).copy(),
            "qc": np.zeros((nc, nlev)),
            "qr": np.zeros((nc, nlev)),
        }
    return ModelState(
        mesh=mesh,
        vcoord=vcoord,
        ps=ps,
        u=np.zeros((ne, nlev)),
        theta=theta,
        w=np.zeros((nc, nlev + 1)),
        phi=phi,
        phi_surface=phi_surface,
        tracers=tracers,
    )


def tropical_profile_state(
    mesh: Mesh,
    vcoord: VerticalCoordinate,
    t_surface: float = 300.0,
    lapse_total: float = 65.0,
    rh_surface: float = 0.80,
    ps0: float = P0,
) -> ModelState:
    """Rest state with a realistic tropospheric lapse rate and humidity.

    Temperature decreases by ``lapse_total`` K from the surface to the
    model top (roughly 6.5 K/km); relative humidity decays from
    ``rh_surface`` at the bottom to near zero aloft.  This state is
    conditionally unstable to moist convection — the environment the
    typhoon and climate experiments need (an isothermal atmosphere has
    no CAPE and never rains).
    """
    from repro.physics.surface import saturation_mixing_ratio

    state = isothermal_rest_state(mesh, vcoord, t_surface, ps0, moisture=False)
    sig = vcoord.sigma_mid
    p_mid = state.p_mid()
    temp = t_surface - lapse_total * (1.0 - sig)        # (nlev,)
    temp2d = np.broadcast_to(temp, (mesh.nc, vcoord.nlev)).copy()
    state.theta = theta_from_temperature(temp2d, p_mid)
    rh = rh_surface * np.clip((sig - 0.15) / 0.85, 0.0, 1.0) ** 1.5
    qsat = saturation_mixing_ratio(temp2d, p_mid)
    state.tracers = {
        "qv": rh[None, :] * qsat,
        "qc": np.zeros((mesh.nc, vcoord.nlev)),
        "qr": np.zeros((mesh.nc, vcoord.nlev)),
    }
    state.phi = _hydrostatic_phi(mesh, vcoord, state.ps, state.theta, state.phi_surface)
    return state


def solid_body_rotation_state(
    mesh: Mesh,
    vcoord: VerticalCoordinate,
    u0: float = 20.0,
    temperature: float = 300.0,
) -> ModelState:
    """Balanced zonal solid-body rotation (Williamson test 2 analogue).

    For an isothermal atmosphere, ps in gradient-wind balance with a
    zonal flow ``u = u0 cos(lat)`` is
    ``ps = p00 * exp(-(R_e Omega u0 + u0^2/2) sin^2(lat) / (R_d T))``.
    """
    state = isothermal_rest_state(mesh, vcoord, temperature, moisture=True)
    lat_c = mesh.cell_lat
    amp = (EARTH_RADIUS * OMEGA * u0 + 0.5 * u0**2) / (R_DRY * temperature)
    state.ps = P0 * np.exp(-amp * np.sin(lat_c) ** 2)
    # Zonal wind projected onto edge normals.
    east = np.stack(
        [-np.sin(_lon(mesh.edge_xyz)), np.cos(_lon(mesh.edge_xyz)), np.zeros(mesh.ne)],
        axis=1,
    )
    lat_e = mesh.edge_lat
    uzon = u0 * np.cos(lat_e)
    un = uzon * np.einsum("ej,ej->e", east, mesh.edge_normal)
    state.u = np.repeat(un[:, None], vcoord.nlev, axis=1)
    p_mid = state.p_mid()
    state.theta = theta_from_temperature(np.full_like(p_mid, temperature), p_mid)
    state.phi = _hydrostatic_phi(mesh, vcoord, state.ps, state.theta, state.phi_surface)
    return state


def mountain_flow_state(
    mesh: Mesh,
    vcoord: VerticalCoordinate,
    h0: float = 1500.0,
    half_width: float = 1.2e6,
    u0: float = 15.0,
    temperature: float = 288.0,
    lat0: float = np.deg2rad(40.0),
    lon0: float = 0.0,
) -> ModelState:
    """Zonal flow over an isolated bell-shaped mountain.

    The terrain enters through the surface geopotential; the
    sigma-coordinate columns over the mountain carry correspondingly less
    dry mass (``ps = p00 * exp(-phi_s / (R T))`` for an isothermal
    column), and the pressure-gradient force sees ``grad(phi)`` built on
    the raised surface — the standard orography test of a terrain-
    following coordinate.
    """
    state = isothermal_rest_state(mesh, vcoord, temperature, moisture=True)
    # Bell mountain.
    d = _great_circle(mesh.cell_lat, mesh.cell_lon, lat0, lon0) * mesh.radius
    h = h0 / (1.0 + (d / half_width) ** 2)
    state.phi_surface = GRAVITY * h
    state.ps = P0 * np.exp(-state.phi_surface / (R_DRY * temperature))
    # Gradient-balanced zonal flow (same balance as solid-body rotation).
    amp = (EARTH_RADIUS * OMEGA * u0 + 0.5 * u0**2) / (R_DRY * temperature)
    state.ps = state.ps * np.exp(-amp * np.sin(mesh.cell_lat) ** 2)
    east = np.stack(
        [-np.sin(_lon(mesh.edge_xyz)), np.cos(_lon(mesh.edge_xyz)), np.zeros(mesh.ne)],
        axis=1,
    )
    un = u0 * np.cos(mesh.edge_lat) * np.einsum("ej,ej->e", east, mesh.edge_normal)
    state.u = np.repeat(un[:, None], vcoord.nlev, axis=1)
    p_mid = state.p_mid()
    state.theta = theta_from_temperature(np.full_like(p_mid, temperature), p_mid)
    state.phi = _hydrostatic_phi(mesh, vcoord, state.ps, state.theta, state.phi_surface)
    return state


def baroclinic_wave_state(
    mesh: Mesh,
    vcoord: VerticalCoordinate,
    u0: float = 35.0,
    perturb: bool = True,
) -> ModelState:
    """A balanced mid-latitude jet with an optional localised perturbation.

    A simplified Jablonowski–Williamson-style setup: westerly jets at
    +-45 degrees with vertical shear, temperature in approximate
    gradient-wind balance, and a small Gaussian zonal-wind bump that
    seeds baroclinic growth.
    """
    temperature0 = 288.0
    state = isothermal_rest_state(mesh, vcoord, temperature0, moisture=True)
    lat_e = mesh.edge_lat
    lat_c = mesh.cell_lat
    sig = vcoord.sigma_mid                      # (nlev,)

    # Jet: u(lat, sigma) = u0 * sin^2(2 lat) * sin(pi sigma)-like shear.
    shear = np.cos(0.5 * np.pi * (1.0 - sig)) ** 2  # max aloft
    jet_e = u0 * np.sin(2.0 * lat_e) ** 2
    east = np.stack(
        [-np.sin(_lon(mesh.edge_xyz)), np.cos(_lon(mesh.edge_xyz)), np.zeros(mesh.ne)],
        axis=1,
    )
    proj = np.einsum("ej,ej->e", east, mesh.edge_normal)
    state.u = jet_e[:, None] * shear[None, :] * proj[:, None]

    # Approximate balance: integrate -(f u + u^2 tan(lat)/a) dy for the
    # barotropic part of the jet into a ps perturbation.
    mean_shear = float((shear * vcoord.dsigma).sum())
    # d(ln ps)/dlat = -a/(R T) * (f u) ; integrate analytically for
    # u = u0 sin^2(2 lat):  int f u dlat has closed form, use numeric.
    lats = np.linspace(-np.pi / 2, np.pi / 2, 721)
    integrand = (
        2.0 * OMEGA * np.sin(lats) * u0 * np.sin(2.0 * lats) ** 2 * mean_shear
    )
    lnps = -np.cumsum(integrand) * (lats[1] - lats[0]) * EARTH_RADIUS / (
        R_DRY * temperature0
    )
    lnps -= lnps[lats.size // 2]
    state.ps = P0 * np.exp(np.interp(lat_c, lats, lnps))

    if perturb:
        # Gaussian zonal-wind perturbation at (20E, 40N), JW-style.
        lon_e = _lon(mesh.edge_xyz)
        d = _great_circle(lat_e, lon_e, np.deg2rad(40.0), np.deg2rad(20.0))
        bump = np.exp(-((d / 0.12) ** 2))
        state.u += (1.0 * bump[:, None]) * proj[:, None]

    p_mid = state.p_mid()
    state.theta = theta_from_temperature(np.full_like(p_mid, temperature0), p_mid)
    state.phi = _hydrostatic_phi(mesh, vcoord, state.ps, state.theta, state.phi_surface)
    return state


def _lon(xyz: np.ndarray) -> np.ndarray:
    return np.arctan2(xyz[:, 1], xyz[:, 0])


def _great_circle(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Central angle between points (radians)."""
    s = (
        np.sin(lat1) * np.sin(lat2)
        + np.cos(lat1) * np.cos(lat2) * np.cos(lon1 - lon2)
    )
    return np.arccos(np.clip(s, -1.0, 1.0))
