"""Six stencil operators as ``(mesh, field, backend=None)`` functions.

Every horizontal operator is a :class:`~repro.dycore.stencil.StencilSpec`
compiled once per (mesh, backend) into a kernel plan; callers hold the
plan :func:`~repro.dycore.stencil.compiled_kernels` returns and call its
operators directly (``compiled_kernels(mesh, backend).curl(u)``), as a
``DynamicalCore`` does with the plan it compiled.  The functions below
are that lookup per call, kept for the benchmark's stencil probes, which
time them by name; ``backend=None`` means
:data:`~repro.dycore.stencil.DEFAULT_BACKEND`.
"""

from __future__ import annotations

import numpy as np

from repro.dycore.stencil import compiled_kernels
from repro.grid.mesh import Mesh


def divergence(mesh: Mesh, flux_edge: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Divergence at cells of an edge-normal flux field.

    ``div_i = (1/A_i) * sum_e sign(i,e) * F_e * le_e`` — the finite
    volume form; exact conservation: ``sum_i A_i * div_i == 0``.
    """
    return compiled_kernels(mesh, backend).divergence(flux_edge)


def gradient(mesh: Mesh, cell_field: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Normal gradient at edges: ``(psi(c2) - psi(c1)) / de``."""
    return compiled_kernels(mesh, backend).gradient(cell_field)


def cell_to_edge(mesh: Mesh, cell_field: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Arithmetic two-cell average onto edges (2nd-order centred)."""
    return compiled_kernels(mesh, backend).cell_to_edge(cell_field)


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
