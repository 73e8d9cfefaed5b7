"""Horizontal (explicit) tendency kernels of the dynamical core.

These are the named compute kernels of the paper's Fig. 9, implemented as
real vectorised functions:

* :func:`primal_normal_flux_edge` — dry-mass flux at edges (division and
  interpolation heavy in GRIST; the paper notes its large mixed-precision
  speedup from divisions/powers);
* :func:`calc_coriolis_term` — the nonlinear Coriolis/vorticity term of
  the vector-invariant momentum equation (few arrays; the paper notes it
  gains little from MIX/DST);
* :func:`compute_rrr` — layer density from mass and thickness, the
  quantity coupling the nonhydrostatic pressure to geometry;
* :func:`tend_grad_ke_at_edge` — the kinetic-energy-gradient tendency,
  the exact loop shown in the paper's Fig. 4.

Each function accepts a :class:`~repro.precision.policy.PrecisionPolicy`
so the MIX configurations exercise genuinely reduced precision, and the
ones that apply a horizontal operator take the compiled plan to apply it
with as a trailing ``kernels=`` (a core passes its own; ``None`` is the
mesh's default-backend plan).
"""

from __future__ import annotations

import numpy as np

from repro.constants import CP_DRY, GRAVITY
from repro.dycore.stencil import compiled_kernels
from repro.dycore.vertical import apply_column, column_operators, exner
from repro.grid.mesh import Mesh
from repro.precision.policy import NS, PrecisionPolicy


def promoted(ufunc, a: np.ndarray, b: np.ndarray, reuse: tuple | None = None) -> np.ndarray:
    """``ufunc(a, b)`` in the operands' promoted dtype, written over the
    first array of ``reuse`` (default ``(a, b)``: fresh arrays the caller
    owns) that already has that dtype, else into a new array.

    An in-place op into the narrower operand would round the result
    silently (a same-kind cast), and a per-term precision map, or a
    backend whose operators return float64 for float32 input, can make
    either operand the wider one.
    """
    dtype = np.result_type(a, b)
    out = next((x for x in ((a, b) if reuse is None else reuse) if x.dtype == dtype), None)
    return ufunc(a, b, out=out)


def primal_normal_flux_edge(
    mesh: Mesh,
    dpi: np.ndarray,
    u: np.ndarray,
    policy: PrecisionPolicy = NS,
    dpi_e: np.ndarray | None = None,
    kernels=None,
) -> np.ndarray:
    """Dry-mass flux ``F_e = dpi_e * u_e`` at edges [Pa m/s].

    The edge mass is the two-cell midpoint interpolation (the "primal
    normal" reconstruction; 2nd order on the slightly non-uniform grid),
    taken from ``dpi_e`` when the stage has already interpolated it.
    Classified insensitive apart from the accumulation consumer (see
    tracer transport).
    """
    term = "mass_divergence"
    if dpi_e is None:
        kernels = kernels or compiled_kernels(mesh)
        dpi_e = kernels.cell_to_edge(policy.cast(term, dpi))
    return policy.cast(term, dpi_e) * policy.cast(term, u)


def calc_coriolis_term(
    mesh: Mesh,
    u: np.ndarray,
    policy: PrecisionPolicy = NS,
    kernels=None,
) -> np.ndarray:
    """Nonlinear Coriolis term ``(zeta + f) * v_t`` at edges [m/s^2].

    ``zeta`` is the relative vorticity at vertices averaged onto edges;
    ``v_t`` the reconstructed tangential velocity.  With the mesh's
    right-handed (normal, tangent, radial) convention the tendency on the
    normal velocity is ``+(zeta + f) v_t``.
    """
    term = "coriolis_term"
    kernels = kernels or compiled_kernels(mesh)
    un = policy.cast(term, u)
    # In place on the fresh ns vorticity: absvor = zeta_e + f, then * v_t.
    absvor = policy.cast(term, kernels.vorticity_edge(un))
    absvor += policy.cast(term, mesh.f_edge[:, None])
    absvor *= kernels.tangential_velocity(un)
    return absvor


def compute_rrr(
    mesh: Mesh,
    dpi: np.ndarray,
    phi: np.ndarray,
    policy: PrecisionPolicy = NS,
) -> np.ndarray:
    """Layer density ``rrr = dpi / (g * dz)`` at cells [kg/m^3].

    ``dz = (phi_bottom - phi_top)/g`` is the geometric thickness; the
    ratio of layer mass to layer volume couples the nonhydrostatic
    pressure to the geopotential (section 3.4's pressure terms stay DP,
    but the advective consumers of rrr are insensitive).
    """
    term = "momentum_advection"
    dphi = policy.cast(term, phi[:, :-1] - phi[:, 1:])  # positive (top - bottom)
    dphi = np.maximum(dphi, np.asarray(1.0, dtype=dphi.dtype))
    # rho = (dpi/g) mass per area over (dphi/g) thickness = dpi/dphi.
    return policy.cast(term, dpi) / dphi


def tend_grad_ke_at_edge(
    mesh: Mesh,
    u: np.ndarray,
    policy: PrecisionPolicy = NS,
    kernels=None,
) -> np.ndarray:
    """Kinetic-energy-gradient tendency at edges (the Fig. 4 loop).

    ``tend = -(K(c2) - K(c1)) / de`` per level.
    """
    term = "kinetic_energy_gradient"
    kernels = kernels or compiled_kernels(mesh)
    ke = policy.cast(term, kernels.kinetic_energy(policy.cast(term, u)))
    grad = policy.cast(term, kernels.gradient(ke))
    return np.negative(grad, out=grad)


def pressure_gradient_force(
    mesh: Mesh,
    theta: np.ndarray,
    p_mid: np.ndarray,
    phi_mid: np.ndarray,
    policy: PrecisionPolicy = NS,
    kernels=None,
    theta_e: np.ndarray | None = None,
) -> np.ndarray:
    """PGF at edges in theta–Exner form: ``-cp theta_e grad(Pi) - grad(phi)``.

    Precision-sensitive (section 3.4.2): always evaluated in double.
    ``theta_e`` is ``cell_to_edge(theta)`` in float64 when the stage
    already has it.
    """
    term = "pressure_gradient"                     # float64 by design
    kernels = kernels or compiled_kernels(mesh)
    pi_ex = exner(policy.cast(term, p_mid))
    if theta_e is None:
        theta_e = kernels.cell_to_edge(policy.cast(term, theta))
    pgf = np.multiply(policy.cast(term, theta_e), -CP_DRY)
    pgf = promoted(np.multiply, pgf, kernels.gradient(pi_ex))
    return promoted(np.subtract, pgf, kernels.gradient(policy.cast(term, phi_mid)))


def vertical_mass_flux(
    mesh: Mesh,
    vcoord_sigma_int: np.ndarray,
    div_flux: np.ndarray,
    total: np.ndarray | None = None,
) -> np.ndarray:
    """Downward mass flux M at interfaces from the column continuity.

    Layer ``k`` changes by ``-dsigma_k * sum_k D_k`` while losing ``D_k``
    horizontally, so ``M_{k+1} = M_k - D_k + dsigma_k * sum_k D_k``:
    ``M_i = sigma_i * sum_k D_k - sum_{k<i} D_k`` with ``D_k`` the layer
    flux divergences; exactly zero at top and surface.  ``total`` is
    ``div_flux.sum(axis=1)`` when the caller already has it.

    Each interior value is computed in float64 and stored in
    ``div_flux``'s dtype; the partial sums run level by level in that
    dtype, the order ``np.cumsum`` sums in.
    """
    if total is None:
        total = div_flux.sum(axis=1)
    total = total.astype(np.float64, copy=False)
    nlev = div_flux.shape[1]
    M = np.zeros((div_flux.shape[0], nlev + 1), dtype=div_flux.dtype)
    partial = div_flux[:, 0].copy()
    # M[:, 0] and M[:, nlev] stay exactly zero (top and surface).
    for i in range(1, nlev):
        np.subtract(vcoord_sigma_int[i] * total, partial, out=M[:, i])
        partial += div_flux[:, i]
    return M


def vertical_advection_cell(
    M: np.ndarray,
    field: np.ndarray,
) -> np.ndarray:
    """Flux-form vertical transport tendency of ``dpi * field`` at cells.

    Interface values are centred averages; boundaries carry no flux.
    Returns d(dpi*field)/dt contribution, shape like ``field``.
    """
    nlev = field.shape[1]
    f_int = apply_column(field, column_operators(nlev, field.dtype).interior_sum)
    f_int *= 0.5
    # M positive downward: layer k gains M_k * f_k from the interface
    # above and loses M_{k+1} * f_{k+1} below (none at top or surface).
    flux = M[:, 1:-1] * f_int
    return apply_column(flux, column_operators(nlev, flux.dtype).layer_diff.T)


def vertical_advection_edge(
    mesh: Mesh,
    M: np.ndarray,
    dpi: np.ndarray,
    u: np.ndarray,
    dpi_e: np.ndarray | None = None,
    kernels=None,
) -> np.ndarray:
    """Advective-form vertical transport of edge velocity.

    ``-(1/dpi_e) * [M_k (u_k - u_{k-1}) + M_{k+1} (u_{k+1} - u_k)] / 2``;
    ``dpi_e`` is ``cell_to_edge(dpi)`` when the stage already has it.
    """
    kernels = kernels or compiled_kernels(mesh)
    if dpi_e is None:
        dpi_e = kernels.cell_to_edge(dpi)
    # One pass over the interior interfaces (the only ones M crosses):
    # layer k takes M_k du_{k-1} from the interface above and M_{k+1} du_k
    # from the one below.
    nlev = u.shape[1]
    M_e = kernels.cell_to_edge(M[:, 1:-1])
    flux = M_e * apply_column(u, column_operators(nlev, u.dtype).layer_diff)
    tend = apply_column(flux, column_operators(nlev, flux.dtype).interior_sum.T)
    tend *= -0.5
    tend /= np.maximum(dpi_e, 1e-3)
    return tend
