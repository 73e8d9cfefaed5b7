"""Vertical coordinate, column operators and column thermodynamics.

The core uses a terrain-free dry-mass (sigma) coordinate: layer k carries
a dry-air mass increment ``dpi_k = dsigma_k * (ps - ptop)``.  The paper's
configuration keeps the model top at 2.25 hPa (~40 km) with 30 (or 60)
layers; we default to the same top.

The RK stage's two-point vertical operators (interface differences and
sums, layer differences and sums) are small exact matrices applied on the
right, ``field @ V`` (:func:`column_operators`, :func:`apply_column`),
just as every horizontal operator is a CSR matrix applied on the left.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

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
        flux uses this weight: ``M_i = B_i * sum_k D_k - sum_{k<i} D_k``,
        positive downward (see ``tendencies.vertical_mass_flux``).
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
        return layer_mean(self.pressure_interfaces(ps))

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
    def standard(nlev: int, ptop: float = 225.0) -> "HybridVerticalCoordinate":
        """A conventional hybrid profile on ``nlev`` equal reference
        layers: pure pressure (B = 0) over the top fifth of the reference
        column, then ``B = ((s - 0.2) / 0.8) ** 1.8`` ramping smoothly to
        1 at the surface."""
        s = np.linspace(0.0, 1.0, nlev + 1)
        b = np.clip((s - 0.2) / 0.8, 0.0, None) ** 1.8
        b[-1] = 1.0
        a = ptop + s * (P0 - ptop) - b * P0
        # Enforce the boundary identities exactly.
        a[-1] = 0.0
        a[0] = ptop
        return HybridVerticalCoordinate(a, b, ptop)

    def pressure_interfaces(self, ps: np.ndarray) -> np.ndarray:
        ps = np.asarray(ps)
        return self._a + self._b * ps[..., None]

    def dpi(self, ps: np.ndarray) -> np.ndarray:
        ps = np.asarray(ps)
        da = np.diff(self._a)
        db = np.diff(self._b)
        return da + db * ps[..., None]


# -- column operators ---------------------------------------------------------

#: Largest ``rows * V.size`` one GEMM of :func:`apply_column` covers.  A
#: GEMM this small runs on one BLAS thread (OpenBLAS splits above 2**18
#: multiply-adds); a threaded one gains nothing on ~10-wide columns and,
#: on a busy host, waits milliseconds for its second thread.  These are
#: the only GEMMs on NumPy's OpenBLAS in the hot path, and they must stay
#: single-threaded: NumPy and SciPy bundle separate OpenBLAS pools, and
#: the ML nets' inference runs on SciPy's (``repro.ml.inference``), so
#: woken NumPy workers would spin on the cores that pool needs.
_GEMM_BLOCK = 2**18


@functools.lru_cache(maxsize=None)
def column_operators(nlev: int, dtype: np.dtype = np.dtype(np.float64)) -> SimpleNamespace:
    """The two-point column operators of an ``nlev``-layer column as
    read-only ``dtype`` matrices, applied on the right (``field @ V``,
    see :func:`apply_column`); built once per ``(nlev, dtype)``.

    * ``interface_diff`` ``(nlev+1, nlev)``: ``f_k - f_{k+1}``, top minus
      bottom interface of each layer;
    * ``interface_sum`` ``(nlev+1, nlev)``: ``f_k + f_{k+1}``, the two
      interfaces of each layer (:func:`layer_mean` halves it);
    * ``layer_diff`` ``(nlev, nlev-1)``: ``f_{k+1} - f_k``, the jump
      across each interior interface;
    * ``interior_sum`` ``(nlev, nlev-1)``: ``f_k + f_{k+1}``, the two
      layers of each interior interface.

    The transposes map interior-interface values ``g`` back to layers:
    ``g @ layer_diff.T`` is ``g_{k-1} - g_k`` and ``g @ interior_sum.T``
    is ``g_{k-1} + g_k``, a missing boundary neighbour reading zero.

    Exactness: every entry is 0 or ±1 and every output column has at most
    two nonzeros, so an output is the single IEEE add or subtract of the
    same two operands the slice form computes (a product with ±1 is exact,
    adding a zero product changes nothing but, possibly, the sign of a
    zero result) — the slice form's bits whatever blocking, order or
    threading BLAS uses.  Caveat: ``0 * nan`` and ``0 * inf`` are NaN, so a
    non-finite input spreads to its row's every output, where the slice
    form keeps it in place; a step that has produced one has failed
    either way.
    """
    dtype = np.dtype(dtype)

    def matrix(m: np.ndarray) -> np.ndarray:
        m = np.ascontiguousarray(m, dtype=dtype)
        m.setflags(write=False)
        return m

    eye_i, eye_l = np.eye(nlev + 1), np.eye(nlev)
    return SimpleNamespace(
        interface_diff=matrix(eye_i[:, :-1] - eye_i[:, 1:]),
        interface_sum=matrix(eye_i[:, :-1] + eye_i[:, 1:]),
        layer_diff=matrix(eye_l[:, 1:] - eye_l[:, :-1]),
        interior_sum=matrix(eye_l[:, :-1] + eye_l[:, 1:]),
    )


def apply_column(field: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``field @ V`` over the last (level) axis, as BLAS GEMMs of at most
    :data:`_GEMM_BLOCK` multiply-adds each; any leading shape."""
    rows = field.reshape(math.prod(field.shape[:-1]), field.shape[-1])
    out = np.empty((rows.shape[0], V.shape[1]), dtype=np.result_type(field, V))
    step = max(1, _GEMM_BLOCK // max(V.size, 1))    # V is empty at nlev = 1
    for s in range(0, rows.shape[0], step):
        np.matmul(rows[s:s + step], V, out=out[s:s + step])
    return out.reshape(field.shape[:-1] + (V.shape[1],))


def layer_mean(f_int: np.ndarray) -> np.ndarray:
    """``0.5 * (f_k + f_{k+1})``: an interface field's layer means."""
    V = column_operators(f_int.shape[-1] - 1, f_int.dtype).interface_sum
    out = apply_column(f_int, V)
    out *= 0.5
    return out


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
    nlev = theta.shape[-1]
    d_ex = apply_column(ex, column_operators(nlev, ex.dtype).interface_diff)
    dphi = -CP_DRY * theta * d_ex                           # positive
    phi = np.empty(p_int.shape, dtype=np.result_type(theta, p_int))
    phi[..., -1] = phi_surface
    # Integrate upward, phi_i = phi_{i+1} + dphi_i, as a running sum from
    # the surface: the level loop np.cumsum runs, without its strided copies.
    acc = dphi[..., -1].copy()
    np.add(phi_surface, acc, out=phi[..., -2])
    for k in range(nlev - 2, -1, -1):
        acc += dphi[..., k]
        np.add(phi_surface, acc, out=phi[..., k])
    return phi


def theta_from_temperature(temp: np.ndarray, p_mid: np.ndarray) -> np.ndarray:
    return temp / exner(p_mid)
