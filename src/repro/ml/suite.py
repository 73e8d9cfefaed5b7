"""The coupled ML physics suite (paper sections 3.2.3–3.2.4).

    "we separately construct the tendencies of all physical processes
    (ML physical tendency module) and the radiation diagnostics (ML
    radiation diagnostic module) ...  They together form the new model
    physics suite"

Like the conventional :class:`~repro.physics.column.PhysicsSuite` it
answers the coupler's one call, ``compute_from_coupler``, so
:class:`GristModel` swaps them freely (Table 3's -ML schemes).
Alongside the two networks it keeps the *conventional physics
diagnostic module* (Fig. 3): surface fluxes and the land slab stay
conventional because the ML radiation module feeds them gsw/glw,
exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import CP_DRY, GRAVITY, LATENT_HEAT_VAP
from repro.ml.radiation_net import RadiationMLP
from repro.ml.tendency_net import TendencyCNN
from repro.model.coupler import CouplingFields
from repro.obs import get_metrics
from repro.physics.column import PhysicsTendencies
from repro.physics.surface import SurfaceModel
from repro.precision.policy import PrecisionPolicy


@dataclass
class MLSuiteConfig:
    dt_physics: float = 600.0
    #: Cap on |Q1|, |Q2| (K/day) to keep long couplings stable — the
    #: stabilisation trick standard in NN-parameterisation coupling.
    tendency_cap_k_per_day: float = 50.0


class MLPhysicsSuite:
    """ML tendency CNN + ML radiation MLP + conventional diagnostics."""

    def __init__(
        self,
        mesh,
        vcoord,
        surface: SurfaceModel,
        tendency_net: TendencyCNN,
        radiation_net: RadiationMLP,
        config: MLSuiteConfig | None = None,
        precision: PrecisionPolicy | None = None,
    ):
        self.mesh = mesh
        self.vcoord = vcoord
        self.surface = surface
        self.tendency_net = tendency_net
        self.radiation_net = radiation_net
        self.config = config or MLSuiteConfig()
        #: The model's ``ns`` switch applied to the networks: a mixed
        #: policy compiles both nets' float32 inference path (weights
        #: cast once; outputs return to float64 at the normalizer
        #: boundary, so everything this suite hands back is float64).
        self.precision = precision
        if precision is not None and precision.mixed:
            for net in (tendency_net, radiation_net):
                if hasattr(net, "compile_inference"):
                    net.compile_inference(precision.ns)

    @classmethod
    def seeded(
        cls,
        mesh,
        vcoord,
        surface: SurfaceModel,
        seed: int = 0,
        width: int = 16,
        n_resunits: int = 2,
        config: MLSuiteConfig | None = None,
        precision: PrecisionPolicy | None = None,
    ) -> "MLPhysicsSuite":
        """A deterministic, ready-to-run suite with untrained networks.

        Weight init and normalizer statistics both come from
        ``default_rng(seed)`` over synthetic profiles spanning the
        coupler's variable ranges, so two processes building the same
        ``(seed, width, n_resunits, nlev)`` suite predict bit-identical
        tendencies.  The serving layer uses this as the warm-pool ML
        physics when no trained suite is registered: the tendency cap
        and moisture clips in :meth:`compute_from_coupler` keep the
        untrained predictions physically bounded.
        """
        nlev = vcoord.nlev
        rng = np.random.default_rng([seed, nlev, width, n_resunits])
        n_fit = 64
        tn = TendencyCNN(nlev, width=width, n_resunits=n_resunits, seed=seed)
        x = np.stack(
            [
                rng.normal(0.0, 10.0, size=(n_fit, nlev)),       # u
                rng.normal(0.0, 10.0, size=(n_fit, nlev)),       # v
                rng.normal(270.0, 25.0, size=(n_fit, nlev)),     # t
                np.abs(rng.normal(0.0, 5e-3, size=(n_fit, nlev))),  # q
                rng.uniform(2e4, 1e5, size=(n_fit, nlev)),       # p
            ],
            axis=1,
        )
        y = rng.normal(0.0, 2e-5, size=(n_fit, 2, nlev))         # Q1/Q2 [K/s]
        tn.fit_normalizers(x, y)
        rn = RadiationMLP(nlev, width=width, seed=seed + 1)
        xr = rn.pack_inputs(
            rng.normal(270.0, 25.0, size=(n_fit, nlev)),
            np.abs(rng.normal(0.0, 5e-3, size=(n_fit, nlev))),
            rng.normal(295.0, 10.0, size=n_fit),
            rng.uniform(0.0, 1.0, size=n_fit),
        )
        yr = np.stack(
            [
                np.abs(rng.normal(300.0, 120.0, size=n_fit)),    # gsw
                np.abs(rng.normal(350.0, 60.0, size=n_fit)),     # glw
            ],
            axis=1,
        )
        rn.fit_normalizers(xr, yr)
        return cls(
            mesh, vcoord, surface, tn, rn,
            config=config, precision=precision,
        )

    def snapshot(self):
        """No mutable state of its own (the surface slab snapshots itself)."""
        return None

    def restore(self, snap) -> None:
        pass

    def compute_from_coupler(self, state, fields: CouplingFields) -> PhysicsTendencies:
        """Suite evaluation from the coupling interface's variable set."""
        cfg = self.config
        dt = cfg.dt_physics

        # --- ML physical tendency module: Q1/Q2 profiles.
        q1, q2 = self.tendency_net.predict_q1q2(
            fields.u, fields.v, fields.t, fields.q, fields.p
        )
        # Ensemble nets report their member disagreement; surface it in
        # the metrics so the resilience guard's decisions are auditable.
        spread = getattr(self.tendency_net, "last_max_spread_ratio", None)
        if spread is not None:
            metrics = get_metrics()
            if metrics.enabled:
                metrics.observe("ml.max_spread_ratio", float(spread))
        cap = cfg.tendency_cap_k_per_day / 86400.0
        q1 = np.clip(q1, -cap, cap)
        q2 = np.clip(q2, -cap, cap)
        dtheta = q1 / fields.exner_mid
        dqv = -(CP_DRY / LATENT_HEAT_VAP) * q2
        # Do not dry below zero over the step.
        dqv = np.maximum(dqv, -np.maximum(fields.q, 0.0) / dt)

        # --- ML radiation diagnostic module: gsw/glw for the surface.
        gsw, glw = self.radiation_net.predict_gsw_glw(
            fields.t, fields.q, fields.tskin, fields.coszr
        )

        # --- Conventional physics diagnostic module: surface fluxes and
        # land slab, driven by the ML radiation diagnostics.
        flux = self.surface.fluxes(
            fields.t[:, -1], fields.q[:, -1], fields.wind_speed_sfc, state.ps
        )
        self.surface.step_land(gsw, glw, flux, dt)

        # Precipitation contract: P = max(column moisture sink, 0) —
        # the vertically integrated cp/L * Q2 drying, clipped so net
        # moistening columns rain nothing.  Evaporation recycles through
        # the moisture tendency, not directly into precip.
        dpi = state.dpi()
        col_sink = (q2 * (CP_DRY / LATENT_HEAT_VAP) * dpi).sum(axis=1) / GRAVITY
        precip = np.maximum(col_sink, 0.0)

        zeros = np.zeros_like(dtheta)
        return PhysicsTendencies(
            dtheta=dtheta,
            dqv=dqv,
            dqc=zeros,
            dqr=zeros,
            surface_drag=flux.momentum_drag,
            precip_conv=precip,
            precip_ls=np.zeros_like(precip),
            gsw=gsw,
            glw=glw,
            tskin=flux.tskin,
            coszen=fields.coszr,
        )

    # Computational-pattern accounting for the Fig. 10 discussion.
    def flops_per_column(self) -> int:
        total = 0
        for p in self.tendency_net.net.params().values():
            total += 2 * int(np.prod(p.shape)) * self.tendency_net.nlev if p.ndim == 3 else 0
        total += self.radiation_net.flops_per_column()
        return total
