"""Coarse graining and the residual Q1/Q2 diagnosis (section 3.2.2).

    "We introduce a novel approach by using residual calculations to
    derive Q1 and Q2 as outputs for our ML-based parameterization physics
    suite ...  Q1 and Q2 calculated from coarse-grained 5km GRIST-GSRM
    data using the residual method are essentially compatible to theory."

:class:`CoarseGrainer` aggregates fine-mesh cell fields onto a coarser
icosahedral mesh with area weighting; :func:`residual_q1q2` recovers the
apparent heat source / moisture sink by differencing the coarse-grained
truth against a dynamics-only coarse forecast over the same window.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.constants import CP_DRY, LATENT_HEAT_VAP
from repro.dycore.solver import DynamicalCore
from repro.dycore.state import ModelState
from repro.dycore.stencil import compiled_kernels
from repro.dycore.vertical import exner
from repro.grid.mesh import Mesh


class CoarseGrainer:
    """Area-weighted aggregation from a fine mesh onto a coarse mesh."""

    def __init__(self, fine: Mesh, coarse: Mesh):
        if fine.nc <= coarse.nc:
            raise ValueError("fine mesh must have more cells than coarse")
        self.fine = fine
        self.coarse = coarse
        tree = cKDTree(coarse.cell_xyz)
        _, self.assign = tree.query(fine.cell_xyz)       # fine -> coarse cell
        self.weight_sum = np.bincount(
            self.assign, weights=fine.cell_area, minlength=coarse.nc
        )
        if np.any(self.weight_sum <= 0.0):
            raise RuntimeError("a coarse cell received no fine cells")

    @property
    def ratio(self) -> float:
        """Mean number of fine cells per coarse cell."""
        return self.fine.nc / self.coarse.nc

    def restrict(self, field: np.ndarray) -> np.ndarray:
        """Area-weighted mean of a fine cell field; shape (nc_f, ...) -> (nc_c, ...)."""
        w = self.fine.cell_area
        if field.ndim == 1:
            acc = np.bincount(self.assign, weights=field * w, minlength=self.coarse.nc)
            return acc / self.weight_sum
        out = np.empty((self.coarse.nc,) + field.shape[1:], dtype=np.float64)
        flat = field.reshape(field.shape[0], -1)
        cols = []
        for j in range(flat.shape[1]):
            cols.append(
                np.bincount(self.assign, weights=flat[:, j] * w, minlength=self.coarse.nc)
                / self.weight_sum
            )
        out = np.stack(cols, axis=1).reshape((self.coarse.nc,) + field.shape[1:])
        return out

    def restrict_edge_velocity(self, u_fine: np.ndarray) -> np.ndarray:
        """Coarse edge normal velocities from fine cell vector winds.

        Reconstruct 3-D vectors at fine cells, area-average them onto
        coarse cells, then project coarse two-cell means onto coarse edge
        normals — the same interpolation the coarse dycore implies.
        """
        vec = compiled_kernels(self.fine).reconstruct_cell_vectors(u_fine)  # (ncf, 3, nlev)
        vec_c = self.restrict(vec)                                # (ncc, 3, nlev)
        c1 = self.coarse.edge_cells[:, 0]
        c2 = self.coarse.edge_cells[:, 1]
        ve = 0.5 * (vec_c[c1] + vec_c[c2])                        # (nec, 3, nlev)
        return np.einsum("ejl,ej->el", ve, self.coarse.edge_normal)

    def restrict_state(self, state: ModelState, coarse_vcoord=None) -> ModelState:
        """Coarse-grain a full model state (same vertical coordinate)."""
        vc = coarse_vcoord or state.vcoord
        ps_c = self.restrict(state.ps)
        theta_c = self.restrict(state.theta)
        u_c = self.restrict_edge_velocity(state.u)
        tracers_c = {k: self.restrict(v) for k, v in state.tracers.items()}
        from repro.dycore.hevi import discrete_balanced_phi

        phi_sfc = self.restrict(state.phi_surface)
        phi_c = discrete_balanced_phi(vc.dpi(ps_c), theta_c, phi_sfc, vc.ptop)
        return ModelState(
            mesh=self.coarse,
            vcoord=vc,
            ps=ps_c,
            u=u_c,
            theta=theta_c,
            w=np.zeros((self.coarse.nc, vc.nlev + 1)),
            phi=phi_c,
            phi_surface=phi_sfc,
            tracers=tracers_c,
            time=state.time,
        )


def residual_q1q2(
    coarse_core: DynamicalCore,
    cg_state_t: ModelState,
    cg_state_tp: ModelState,
    n_dyn_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual-method Q1/Q2 over the window between two coarse states.

    Runs the coarse dycore (dynamics only) from the earlier coarse-grained
    state; the residual against the later coarse-grained truth is the
    apparent source the ML suite must supply:

    ``Q1 = (T_cg(t+dt) - T_dyn(t+dt)) / dt``   [K/s]
    ``Q2 = -(L/cp) (q_cg(t+dt) - q_dyn(t+dt)) / dt``   [K/s]
    """
    if n_dyn_steps < 1:
        raise ValueError("need at least one dynamics step")
    forecast = cg_state_t.copy()
    for _ in range(n_dyn_steps):
        forecast = coarse_core.step(forecast)
    dt_window = coarse_core.config.dt * n_dyn_steps

    ex_truth = exner(cg_state_tp.p_mid())
    ex_fcst = exner(forecast.p_mid())
    t_truth = cg_state_tp.theta * ex_truth
    t_fcst = forecast.theta * ex_fcst
    q1 = (t_truth - t_fcst) / dt_window
    q_truth = cg_state_tp.tracers.get("qv")
    q_fcst = forecast.tracers.get("qv")
    if q_truth is None or q_fcst is None:
        q2 = np.zeros_like(q1)
    else:
        q2 = -(LATENT_HEAT_VAP / CP_DRY) * (q_truth - q_fcst) / dt_window
    return q1, q2
