"""Vertical coordinate and column thermodynamics.

The core uses a terrain-free dry-mass (sigma) coordinate: layer k carries
a dry-air mass increment ``dpi_k = dsigma_k * (ps - ptop)``.  The paper's
configuration keeps the model top at 2.25 hPa (~40 km) with 30 (or 60)
layers; we default to the same top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import CP_DRY, KAPPA, P0


@dataclass(frozen=True)
class VerticalCoordinate:
    """Sigma-coordinate definition: interface values ``sigma_i`` (0=top).

    ``nlev`` layers, ``nlev+1`` interfaces; ``sigma[0] = 0`` at the model
    top (pressure ``ptop``), ``sigma[nlev] = 1`` at the surface.
    """

    sigma_interfaces: np.ndarray
    ptop: float = 225.0  # Pa — the paper's 2.25 hPa model top

    @property
    def nlev(self) -> int:
        return self.sigma_interfaces.size - 1

    @property
    def dsigma(self) -> np.ndarray:
        return np.diff(self.sigma_interfaces)

    @property
    def sigma_mid(self) -> np.ndarray:
        return 0.5 * (self.sigma_interfaces[:-1] + self.sigma_interfaces[1:])

    @property
    def b_interfaces(self) -> np.ndarray:
        """d(interface pressure)/d(ps) — equals sigma for a pure-sigma
        coordinate; the hybrid subclass overrides.  The vertical mass
        flux uses this weight: ``M_i = sum_{k<i} D_k - B_i * sum_k D_k``.
        """
        return self.sigma_interfaces

    @staticmethod
    def uniform(nlev: int, ptop: float = 225.0) -> "VerticalCoordinate":
        return VerticalCoordinate(np.linspace(0.0, 1.0, nlev + 1), ptop)

    @staticmethod
    def stretched(nlev: int, ptop: float = 225.0, power: float = 1.6) -> "VerticalCoordinate":
        """Levels concentrated near the surface (standard practice)."""
        s = np.linspace(0.0, 1.0, nlev + 1) ** power
        return VerticalCoordinate(s, ptop)

    # -- column diagnostics -------------------------------------------------
    def pressure_interfaces(self, ps: np.ndarray) -> np.ndarray:
        """Full pressure at interfaces, shape (..., nlev+1)."""
        ps = np.asarray(ps)
        return self.ptop + self.sigma_interfaces * (ps[..., None] - self.ptop)

    def pressure_mid(self, ps: np.ndarray) -> np.ndarray:
        pi = self.pressure_interfaces(ps)
        return 0.5 * (pi[..., :-1] + pi[..., 1:])

    def dpi(self, ps: np.ndarray) -> np.ndarray:
        """Layer dry-mass increments (Pa), shape (..., nlev)."""
        ps = np.asarray(ps)
        return self.dsigma * (ps[..., None] - self.ptop)


class HybridVerticalCoordinate(VerticalCoordinate):
    """Hybrid sigma-pressure coordinate: ``p_i = A_i + B_i * ps``.

    Upper interfaces follow constant pressure surfaces (B -> 0, the
    coordinate "flattens" away from the terrain) and lower interfaces
    follow the surface (B -> 1), the standard configuration of modern
    cores including GRIST.  Degenerates exactly to pure sigma when
    ``A_i = ptop * (1 - s_i)`` and ``B_i = s_i``.

    The class keeps :class:`VerticalCoordinate`'s full interface: layer
    masses are ``dpi_k = dA_k + dB_k * ps``, and ``b_interfaces`` feeds
    the vertical mass flux.
    """

    def __init__(self, a_interfaces: np.ndarray, b_interfaces_: np.ndarray,
                 ptop: float | None = None):
        a = np.asarray(a_interfaces, dtype=np.float64)
        b = np.asarray(b_interfaces_, dtype=np.float64)
        if a.shape != b.shape:
            raise ValueError("A and B must have the same length")
        if abs(b[0]) > 1e-12 or abs(b[-1] - 1.0) > 1e-12:
            raise ValueError("require B=0 at the top and B=1 at the surface")
        if abs(a[-1]) > 1e-9:
            raise ValueError("require A=0 at the surface (p_surf = ps)")
        if np.any(np.diff(a + b * P0) <= 0):
            raise ValueError("interfaces must increase in pressure")
        # sigma_interfaces kept as the nominal (reference-ps) fractions so
        # sigma-based diagnostics stay meaningful.
        ptop_eff = float(a[0]) if ptop is None else ptop
        ref = (a + b * P0 - ptop_eff) / (P0 - ptop_eff)
        object.__setattr__(self, "sigma_interfaces", ref)
        object.__setattr__(self, "ptop", ptop_eff)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)

    @property
    def a_interfaces(self) -> np.ndarray:
        return self._a

    @property
    def b_interfaces(self) -> np.ndarray:
        return self._b

    @staticmethod
    def standard(nlev: int, ptop: float = 225.0, pure_sigma_below: float = 0.7
                 ) -> "HybridVerticalCoordinate":
        """A conventional hybrid profile: B ramps in smoothly below
        ``pure_sigma_below`` of the reference column."""
        s = np.linspace(0.0, 1.0, nlev + 1)
        b = np.clip((s - 0.2) / 0.8, 0.0, None) ** 1.8
        b[-1] = 1.0
        a = ptop + s * (P0 - ptop) - b * P0
        # Enforce the boundary identities exactly.
        a[-1] = 0.0
        a[0] = ptop
        _ = pure_sigma_below
        return HybridVerticalCoordinate(a, b, ptop)

    def pressure_interfaces(self, ps: np.ndarray) -> np.ndarray:
        ps = np.asarray(ps)
        return self._a + self._b * ps[..., None]

    def dpi(self, ps: np.ndarray) -> np.ndarray:
        ps = np.asarray(ps)
        da = np.diff(self._a)
        db = np.diff(self._b)
        return da + db * ps[..., None]

    def pressure_mid(self, ps: np.ndarray) -> np.ndarray:
        pi = self.pressure_interfaces(ps)
        return 0.5 * (pi[..., :-1] + pi[..., 1:])


def exner(p: np.ndarray) -> np.ndarray:
    """Exner function (p/p0)^kappa."""
    return (np.asarray(p) / P0) ** KAPPA


def geopotential_interfaces(
    phi_surface: np.ndarray,
    theta: np.ndarray,
    p_int: np.ndarray,
) -> np.ndarray:
    """Hydrostatic geopotential at interfaces by upward integration.

    ``d(phi) = -cp * theta * d(Exner)`` per layer; shape (..., nlev+1)
    with index 0 at the top.
    """
    ex = exner(p_int)
    dphi = -CP_DRY * theta * (ex[..., :-1] - ex[..., 1:])  # positive
    phi = np.empty(p_int.shape, dtype=np.result_type(theta, p_int))
    phi[..., -1] = phi_surface
    # integrate upward: phi_i = phi_{i+1} + dphi_k (layer k between i, i+1)
    phi[..., :-1] = phi_surface[..., None] + np.cumsum(dphi[..., ::-1], axis=-1)[..., ::-1]
    return phi


def temperature_from_theta(theta: np.ndarray, p_mid: np.ndarray) -> np.ndarray:
    """T = theta * (p/p0)^kappa."""
    return theta * exner(p_mid)


def theta_from_temperature(temp: np.ndarray, p_mid: np.ndarray) -> np.ndarray:
    return temp / exner(p_mid)
