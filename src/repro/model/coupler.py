"""The physics–dynamics coupling interface (paper section 3.2.4).

    "The online coupling process involves computing the dynamical core
    and passing input variables (U, V, T, Q, P, tskin, coszr) from the
    physics-dynamics coupling interface of GRIST model to our trained
    ML-physics suite ... which returns full physical tendencies and
    diagnostic variables back to the physics-dynamics coupling interface
    of GRIST for the next-step dynamical core integration."

Both physics suites (conventional and ML) speak this interface, so the
model can swap them per Table 3 without touching the dycore.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dycore.state import ModelState
from repro.dycore.stencil import compiled_kernels
from repro.dycore.vertical import exner


@dataclass
class CouplingFields:
    """The exact variable set the coupling interface passes (3.2.4)."""

    u: np.ndarray        # (nc, nlev) zonal wind at cells
    v: np.ndarray        # (nc, nlev) meridional wind at cells
    t: np.ndarray        # (nc, nlev) temperature
    q: np.ndarray        # (nc, nlev) water vapour
    p: np.ndarray        # (nc, nlev) pressure
    tskin: np.ndarray    # (nc,)
    coszr: np.ndarray    # (nc,)
    wind_speed_sfc: np.ndarray  # (nc,) lowest-layer speed (bulk fluxes)
    exner_mid: np.ndarray       # (nc, nlev)


class CouplingInterface:
    """Extracts coupler fields from the state and applies tendencies.

    ``kernels`` is the compiled stencil plan it reconstructs winds and
    interpolates drag with — the model passes its dycore's; ``None`` is
    ``mesh``'s default-backend plan.
    """

    def __init__(self, mesh, kernels=None):
        self.mesh = mesh
        self.kernels = kernels or compiled_kernels(mesh)
        xyz = mesh.cell_xyz
        z = np.array([0.0, 0.0, 1.0])
        east = np.cross(z, xyz)
        nrm = np.linalg.norm(east, axis=1, keepdims=True)
        polar = nrm[:, 0] < 1e-12
        east[polar] = np.array([1.0, 0.0, 0.0])
        nrm[polar] = 1.0
        self._east = east / nrm
        self._north = np.cross(xyz, self._east)

    def extract(self, state: ModelState, tskin: np.ndarray, coszr: np.ndarray) -> CouplingFields:
        vec = self.kernels.reconstruct_cell_vectors(state.u)     # (nc, 3, nlev)
        u = np.einsum("njl,nj->nl", vec, self._east)
        v = np.einsum("njl,nj->nl", vec, self._north)
        p = state.p_mid()
        ex = exner(p)
        t = state.theta * ex
        q = state.tracers.get("qv", np.zeros_like(t))
        speed = np.sqrt(u[:, -1] ** 2 + v[:, -1] ** 2)
        return CouplingFields(
            u=u, v=v, t=t, q=q, p=p, tskin=tskin, coszr=coszr,
            wind_speed_sfc=speed, exner_mid=ex,
        )

    def apply_tendencies(
        self,
        state: ModelState,
        dtheta: np.ndarray,
        dqv: np.ndarray,
        dqc: np.ndarray | None,
        dqr: np.ndarray | None,
        surface_drag: np.ndarray,
        dt: float,
        drag_layers: int = 2,
    ) -> None:
        """Apply physics tendencies in place (the "return leg")."""
        state.theta = state.theta + dt * dtheta
        if "qv" in state.tracers:
            state.tracers["qv"] = np.maximum(state.tracers["qv"] + dt * dqv, 0.0)
        if dqc is not None and "qc" in state.tracers:
            state.tracers["qc"] = np.maximum(state.tracers["qc"] + dt * dqc, 0.0)
        if dqr is not None and "qr" in state.tracers:
            state.tracers["qr"] = np.maximum(state.tracers["qr"] + dt * dqr, 0.0)
        # Surface momentum drag on the lowest layers, implicit in time so
        # strong drag cannot overshoot.
        drag_e = self.kernels.cell_to_edge(surface_drag)         # (ne,)
        # Drag decays with height over drag_layers; scale by layer depth.
        nlev = state.u.shape[1]
        prof = np.zeros(nlev)
        prof[-drag_layers:] = np.linspace(0.3, 1.0, drag_layers)
        # Effective inverse timescale ~ drag / boundary-layer depth scale.
        inv_tau = drag_e[:, None] * prof[None, :] / 500.0
        state.u = state.u / (1.0 + dt * inv_tau)
