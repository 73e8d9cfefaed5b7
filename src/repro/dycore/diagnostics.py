"""Global budget diagnostics of the dynamical core.

Conservation monitors used in the hierarchy of tests: total dry mass
(conserved exactly by the FV continuity), total energy (kinetic +
internal + potential; conserved up to explicit diffusion and time
truncation), potential enstrophy, and angular momentum about the
rotation axis.  Long-run trends of these integrals are the standard
health check of a new core — the tests assert mass exactness and bounded
energy drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import CV_DRY, GRAVITY, OMEGA
from repro.dycore.state import ModelState
from repro.dycore.stencil import compiled_kernels
from repro.dycore.vertical import exner


@dataclass(frozen=True)
class GlobalBudgets:
    """Area/mass-integrated invariants at one instant."""

    dry_mass: float            # kg
    kinetic_energy: float      # J
    internal_energy: float     # J
    potential_energy: float    # J
    potential_enstrophy: float  # s^-2 kg^-1-ish (mass-weighted)
    axial_angular_momentum: float  # kg m^2/s

    @property
    def total_energy(self) -> float:
        return self.kinetic_energy + self.internal_energy + self.potential_energy


def compute_budgets(state: ModelState) -> GlobalBudgets:
    """Evaluate all global budgets for a state."""
    mesh = state.mesh
    kern = compiled_kernels(mesh)
    dpi = state.dpi()                              # (nc, nlev) Pa
    mass = dpi * mesh.cell_area[:, None] / GRAVITY  # kg per cell-layer
    p_mid = state.p_mid()
    temp = state.theta * exner(p_mid)

    # Kinetic energy from reconstructed cell vectors.
    ke_density = kern.kinetic_energy(state.u)      # (nc, nlev) m^2/s^2
    ke = float((ke_density * mass).sum())

    ie = float((CV_DRY * temp * mass).sum())

    # Potential energy: integrate layer-mean geopotential.
    phi_mid = 0.5 * (state.phi[:, :-1] + state.phi[:, 1:])
    pe = float((phi_mid * mass).sum())

    # Potential enstrophy: 0.5 * (zeta + f)^2 / h on the dual mesh, with
    # h the vertically integrated mass at vertices.
    zeta = kern.curl(state.u)                      # (nv, nlev)
    absvor = zeta + state.mesh.f_vertex[:, None]
    h_cells = dpi / GRAVITY                        # kg/m^2 per layer
    # Average cell column mass onto vertices through vertex_cells.
    hv = h_cells[mesh.vertex_cells].mean(axis=1)   # (nv, nlev)
    pens = float(
        (0.5 * absvor**2 / np.maximum(hv, 1e-12)
         * mesh.vertex_area[:, None] * hv).sum()
    )

    # Axial angular momentum: (u_lon + Omega a cos(lat)) a cos(lat) dm.
    vec = kern.reconstruct_cell_vectors(state.u)   # (nc, 3, nlev)
    z = np.array([0.0, 0.0, 1.0])
    east = np.cross(z, mesh.cell_xyz)
    nrm = np.linalg.norm(east, axis=1, keepdims=True)
    east = np.where(nrm > 1e-12, east / np.maximum(nrm, 1e-12), 0.0)
    u_lon = np.einsum("njl,nj->nl", vec, east)
    a_coslat = mesh.radius * np.cos(mesh.cell_lat)[:, None]
    aam = float((((u_lon + OMEGA * a_coslat) * a_coslat) * mass).sum())

    return GlobalBudgets(
        dry_mass=float(mass.sum()),
        kinetic_energy=ke,
        internal_energy=ie,
        potential_energy=pe,
        potential_enstrophy=pens,
        axial_angular_momentum=aam,
    )


@dataclass
class BudgetMonitor:
    """Track budget drift over a run (relative to the first record)."""

    history: list = None

    def __post_init__(self):
        self.history = []

    def record(self, state: ModelState) -> GlobalBudgets:
        b = compute_budgets(state)
        self.history.append((state.time, b))
        return b

    def relative_drift(self, attr: str) -> float:
        """|last - first| / |first| of one budget component."""
        if len(self.history) < 2:
            return 0.0
        first = getattr(self.history[0][1], attr)
        last = getattr(self.history[-1][1], attr)
        if attr == "total_energy":
            first = self.history[0][1].total_energy
            last = self.history[-1][1].total_energy
        if first == 0.0:
            return abs(last)
        return abs(last - first) / abs(first)

    def summary(self) -> dict:
        return {
            a: self.relative_drift(a)
            for a in (
                "dry_mass",
                "total_energy",
                "potential_enstrophy",
                "axial_angular_momentum",
            )
        }

