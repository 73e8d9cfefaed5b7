"""Flux-limited passive tracer transport (section 3.1.2 / Fig. 9).

Horizontal transport uses a flux-corrected-transport (FCT/Zalesak)
scheme: a monotone first-order upwind solution is corrected with limited
second-order antidiffusive fluxes, which keeps the scheme conservative
*and* shape preserving (no new extrema, no negative mixing ratios) — the
invariants the property-based tests check.

The transport runs on the longer tracer timestep and consumes the
dry-mass flux accumulated over the dynamics sub-steps; the accumulation
is the one precision-*sensitive* piece of the tracer equation
(section 3.4.2 — "the mass flux ... requires double precision
information"), while the limiter arithmetic itself is insensitive and
runs in ``ns`` precision under MIX.
"""

from __future__ import annotations

import numpy as np

from repro.dycore.stencil import OperatorCache, compiled_kernels
from repro.grid.mesh import Mesh
from repro.precision.policy import NS, PrecisionPolicy


def tracer_transport_hori_flux_limiter(
    mesh: Mesh,
    q: np.ndarray,
    flux_edge: np.ndarray,
    dpi_old: np.ndarray,
    dpi_new: np.ndarray,
    dt: float,
    policy: PrecisionPolicy = NS,
    kernels=None,
) -> np.ndarray:
    """One horizontal FCT transport step; returns the new mixing ratio.

    Parameters
    ----------
    q : (nc, nlev) tracer mixing ratio.
    flux_edge : (ne, nlev) time-mean dry-mass flux over the tracer step
        [Pa m/s], accumulated in double precision by the dycore.
    dpi_old, dpi_new : (nc, nlev) layer masses before/after the step.
    dt : tracer timestep [s].
    kernels : the compiled plan whose operators and index tables the step
        uses (a core passes its own); ``None`` is ``mesh``'s default plan.
    """
    term = "tracer_flux_limiter"
    kernels = kernels or compiled_kernels(mesh)
    qn = policy.cast(term, q)
    F = flux_edge  # stays in its accumulated (double) precision

    # Low-order (monotone) update.
    q_up = kernels.cell_to_edge_upwind(qn, F)
    div_lo = kernels.divergence(F * q_up)
    q_td = (dpi_old * q - dt * div_lo) / dpi_new

    # Antidiffusive fluxes toward 2nd order.
    q_ce = kernels.cell_to_edge(qn)
    A = policy.cast(term, F * (q_ce - q_up))

    # Zalesak limiter bounds from the neighbourhood of q_td and q.
    both = np.maximum(q_td, q)
    cache = kernels.cache
    q_max = _neighbor_extreme(cache, both, np.maximum)
    both = np.minimum(q_td, q)
    q_min = _neighbor_extreme(cache, both, np.minimum)

    # Sums of incoming (P+) and outgoing (P-) antidiffusive mass per cell.
    P_plus, P_minus = kernels.signed_flux_sums(A)
    tiny = np.asarray(1e-30, dtype=P_plus.dtype)
    Q_plus = (q_max - q_td) * dpi_new / dt
    Q_minus = (q_td - q_min) * dpi_new / dt
    R_plus = np.minimum(1.0, Q_plus / np.maximum(P_plus, tiny))
    R_minus = np.minimum(1.0, Q_minus / np.maximum(P_minus, tiny))

    # Edge correction factor: min of receiving R+ and giving R-.
    c1, c2 = cache.edge_c1, cache.edge_c2
    # A > 0 moves tracer from c1 to c2 (along +normal).
    C_pos = np.minimum(R_plus[c2], R_minus[c1])
    C_neg = np.minimum(R_plus[c1], R_minus[c2])
    C = np.where(A >= 0.0, C_pos, C_neg)

    div_anti = kernels.divergence(C * A)
    q_new = q_td - dt * div_anti / dpi_new
    return q_new


def _neighbor_extreme(cache: OperatorCache, field: np.ndarray, op) -> np.ndarray:
    """``op`` (``np.maximum``, ``np.minimum`` or any other associative,
    commutative and idempotent binary ufunc) folded over each cell's
    neighbours, lane by lane, then the cell itself; a pad lane reads the
    cell, so it changes nothing."""
    lanes = cache.cell_neighbor_lanes
    ext = field[lanes[0]]
    nbr = np.empty_like(ext)
    for lane in lanes[1:]:
        # Every index is in range; "clip" lets take fill ``nbr`` unbuffered.
        op(ext, np.take(field, lane, axis=0, out=nbr, mode="clip"), out=ext)
    return op(ext, field, out=ext)


def vertical_tracer_transport(
    q: np.ndarray,
    M: np.ndarray,
    dpi_old: np.ndarray,
    dpi_new: np.ndarray,
    dt: float,
) -> np.ndarray:
    """First-order upwind vertical transport on the tracer step.

    ``M`` is the downward interface mass flux (nc, nlev+1) [Pa/s],
    zero at the top and surface.
    """
    nlev = q.shape[1]
    # Upwind interface values: M > 0 carries from the layer above.
    q_int = np.zeros((q.shape[0], nlev + 1), dtype=q.dtype)
    Mi = M[:, 1:-1]
    q_int[:, 1:-1] = np.where(Mi >= 0.0, q[:, :-1], q[:, 1:])
    flux = M * q_int
    return (dpi_old * q + dt * (flux[:, :-1] - flux[:, 1:])) / dpi_new


class MassFluxAccumulator:
    """Double-precision accumulation of dynamics-step mass fluxes.

    The tracer step consumes the *time mean* flux over its window; the
    accumulation must stay in double precision (section 3.4.2) even in
    the MIX configuration — this class enforces that.
    """

    def __init__(self, ne: int, nlev: int):
        self._sum = np.zeros((ne, nlev), dtype=np.float64)
        self._steps = 0

    def add(self, flux_edge: np.ndarray) -> None:
        self._sum += flux_edge.astype(np.float64, copy=False)
        self._steps += 1

    @property
    def steps(self) -> int:
        return self._steps

    def mean(self) -> np.ndarray:
        if self._steps == 0:
            raise RuntimeError("no fluxes accumulated")
        return self._sum / self._steps

    def reset(self) -> None:
        self._sum.fill(0.0)
        self._steps = 0

    def snapshot(self) -> tuple:
        """Bit-exact copy of the window so far (:meth:`restore`)."""
        return self._sum.copy(), self._steps

    def restore(self, snap: tuple) -> None:
        self._sum[:] = snap[0]
        self._steps = snap[1]
