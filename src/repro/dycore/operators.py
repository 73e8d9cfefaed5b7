"""Discrete C-grid operators (staggered finite volume, ~2nd order).

Fields follow GRIST's staggering: scalars at cells shaped ``(nc, nlev)``,
normal velocity at edges ``(ne, nlev)``, vorticity at vertices
``(nv, nlev)``.  All operators are vectorised gathers/scatters driven by
the mesh's padded connectivity arrays — the paper's indirect-addressing
scheme — and preserve the usual mimetic identities (divergence of a
curl-free... the divergence theorem holds discretely: area-weighted
divergence sums to zero over the sphere; curl of a gradient vanishes to
round-off), which the test suite checks *per backend*.

Compiled stencil layer
----------------------
Every operator here is a declarative :class:`~repro.dycore.stencil.
StencilSpec` compiled once per (mesh, backend) into a kernel plan
(:func:`repro.dycore.stencil.compiled_kernels`) — built under a module
lock and immutable after publish, so safe to share across
``repro.serve`` threads on a warm model.  The functions below are the
``(mesh, backend)`` convenience over that plan for tests, probes and
diagnostics: each looks the plan up and calls it, ``backend=None``
meaning :data:`~repro.dycore.stencil.DEFAULT_BACKEND`.  The model itself
does not come through here — a ``DynamicalCore`` owns the plan it
compiled and calls it directly.
"""

from __future__ import annotations

import numpy as np

from repro.dycore.stencil import (
    BACKENDS,
    BITWISE,
    STENCILS,
    OperatorCache,
    StencilSpec,
    compiled_kernels,
    traffic_factor,
)
from repro.grid.mesh import Mesh, PAD  # noqa: F401  (re-export: PAD)

__all__ = [
    "OperatorCache", "StencilSpec", "STENCILS", "BACKENDS", "BITWISE",
    "compiled_kernels", "traffic_factor",
    "divergence", "gradient", "curl", "cell_to_edge",
    "cell_to_edge_upwind", "vertex_to_edge", "vertex_to_cell",
    "reconstruct_cell_vectors", "tangential_velocity", "kinetic_energy",
    "laplacian_cell", "laplacian_edge", "vorticity_edge", "momentum_diffusion",
]


def divergence(mesh: Mesh, flux_edge: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Divergence at cells of an edge-normal flux field.

    ``div_i = (1/A_i) * sum_e sign(i,e) * F_e * le_e`` — the finite
    volume form; exact conservation: ``sum_i A_i * div_i == 0``.
    """
    return compiled_kernels(mesh, backend).divergence(flux_edge)


def gradient(mesh: Mesh, cell_field: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Normal gradient at edges: ``(psi(c2) - psi(c1)) / de``."""
    return compiled_kernels(mesh, backend).gradient(cell_field)


def curl(mesh: Mesh, u_edge: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Relative vorticity at vertices from the circulation of u.

    The normal velocity at a primal edge is the tangential velocity along
    the corresponding dual edge, so the circulation around a dual
    triangle is ``sum_e sign(v,e) * u_e * de_e``.
    """
    return compiled_kernels(mesh, backend).curl(u_edge)


def cell_to_edge(mesh: Mesh, cell_field: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Arithmetic two-cell average onto edges (2nd-order centred)."""
    return compiled_kernels(mesh, backend).cell_to_edge(cell_field)


def cell_to_edge_upwind(
    mesh: Mesh, cell_field: np.ndarray, u_edge: np.ndarray,
    backend: str | None = None,
) -> np.ndarray:
    """First-order upwind edge value based on the sign of u (c1 -> c2)."""
    return compiled_kernels(mesh, backend).cell_to_edge_upwind(cell_field, u_edge)


def vertex_to_edge(mesh: Mesh, vertex_field: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Two-vertex average onto edges."""
    return compiled_kernels(mesh, backend).vertex_to_edge(vertex_field)


def vertex_to_cell(mesh: Mesh, vertex_field: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Area-style average of the cell's surrounding vertices."""
    return compiled_kernels(mesh, backend).vertex_to_cell(vertex_field)


def reconstruct_cell_vectors(
    mesh: Mesh, u_edge: np.ndarray, backend: str | None = None
) -> np.ndarray:
    """Least-squares 3-D velocity vectors at cells from edge normals.

    Returns shape ``(nc, 3)`` for a 2-D ``(ne,)`` input or
    ``(nc, 3, nlev)`` for ``(ne, nlev)`` input.
    """
    return compiled_kernels(mesh, backend).reconstruct_cell_vectors(u_edge)


def tangential_velocity(mesh: Mesh, u_edge: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Tangential velocity at edges via cell-vector reconstruction.

    Average the two adjacent cells' reconstructed vectors and project on
    the edge tangent — the simplified perpendicular reconstruction used
    in place of full TRSK weights.
    """
    return compiled_kernels(mesh, backend).tangential_velocity(u_edge)


def kinetic_energy(mesh: Mesh, u_edge: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Kinetic energy at cells: 0.5 |U|^2 from reconstructed vectors."""
    return compiled_kernels(mesh, backend).kinetic_energy(u_edge)


def laplacian_cell(mesh: Mesh, cell_field: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Horizontal Laplacian of a cell field: div(grad)."""
    return compiled_kernels(mesh, backend).laplacian_cell(cell_field)


def laplacian_edge(mesh: Mesh, u_edge: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Vector Laplacian on edges via grad(div) - curl-of-curl form.

    Used for horizontal diffusion of momentum; approximate but adequate
    as a stabiliser (coefficient-scaled in the solver).
    """
    return compiled_kernels(mesh, backend).laplacian_edge(u_edge)


def vorticity_edge(mesh: Mesh, u_edge: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Relative vorticity averaged onto edges: ``vertex_to_edge(curl(u))``."""
    return compiled_kernels(mesh, backend).vorticity_edge(u_edge)


def momentum_diffusion(
    mesh: Mesh, u_edge: np.ndarray, nu: float, nu_div: float,
    backend: str | None = None,
) -> np.ndarray:
    """``nu * laplacian_edge(u) + nu_div * gradient(divergence(u))``.

    Compiles the operator for these coefficients on every call; a core
    compiles it once (``diffusion_operator``) and applies it per stage.
    """
    plan = compiled_kernels(mesh, backend)
    return plan.momentum_diffusion(u_edge, plan.diffusion_operator(nu, nu_div))
