"""The assembled GRIST-style model: dycore + physics on nested timesteps.

The timestep hierarchy follows Table 2 (dyn < tracer < physics <
radiation); the physics suite is pluggable (conventional or ML, Table 3)
through the coupling interface, and the dycore's precision policy
switches DP/MIX.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dycore.solver import DycoreConfig, DynamicalCore
from repro.dycore.state import ModelState
from repro.dycore.vertical import VerticalCoordinate
from repro.grid.mesh import Mesh
from repro.model.config import GridConfig, SchemeConfig
from repro.model.coupler import CouplingInterface
from repro.obs import SpanKind, get_metrics, get_tracer
from repro.physics.column import PhysicsConfig, PhysicsSuite
from repro.physics.radiation import cosine_solar_zenith
from repro.physics.surface import SurfaceModel, idealized_land_mask, idealized_sst
from repro.precision.policy import PrecisionPolicy


@dataclass
class RunHistory:
    """Per-physics-step records of the coupled run."""

    times: list = field(default_factory=list)
    precip: list = field(default_factory=list)         # (nc,) kg/m^2/s
    gsw: list = field(default_factory=list)
    glw: list = field(default_factory=list)
    tskin_mean: list = field(default_factory=list)
    max_wind: list = field(default_factory=list)

    def mean_precip(self) -> np.ndarray:
        """Time-mean precipitation rate (nc,) [kg/m^2/s]."""
        if not self.precip:
            raise ValueError(
                "no physics steps recorded: the run was shorter than one "
                "physics interval (physics_ratio dynamics steps)"
            )
        return np.mean(np.array(self.precip), axis=0)


class GristModel:
    """The coupled model, assembled per a (GridConfig, SchemeConfig) pair."""

    def __init__(
        self,
        mesh: Mesh,
        vcoord: VerticalCoordinate,
        grid_config: GridConfig,
        scheme: SchemeConfig,
        surface: SurfaceModel | None = None,
        physics_suite=None,
        nonhydrostatic: bool = False,
        day_of_year: float = 200.0,
        dycore_kwargs: dict | None = None,
        validate_state: bool = False,
    ):
        self.mesh = mesh
        self.vcoord = vcoord
        self.grid_config = grid_config
        self.scheme = scheme
        policy = PrecisionPolicy(mixed=scheme.mixed_precision)
        self.dycore = DynamicalCore(
            mesh,
            vcoord,
            DycoreConfig(
                dt=grid_config.dt_dyn,
                tracer_ratio=grid_config.tracer_ratio,
                nonhydrostatic=nonhydrostatic,
                policy=policy,
                **(dycore_kwargs or {}),
            ),
        )
        if surface is None:
            surface = SurfaceModel(
                land_mask=idealized_land_mask(mesh.cell_lat, mesh.cell_lon),
                sst=idealized_sst(mesh.cell_lat),
            )
        self.surface = surface
        self.coupler = CouplingInterface(mesh, self.dycore.kernels)
        self.day_of_year = day_of_year
        if physics_suite is None:
            if scheme.ml_physics:
                raise ValueError(
                    "ML schemes need a trained MLPhysicsSuite passed as "
                    "physics_suite (see repro.ml.suite)"
                )
            physics_suite = PhysicsSuite(
                mesh,
                vcoord,
                surface,
                config=PhysicsConfig(
                    dt_physics=grid_config.dt_physics,
                    rad_ratio=grid_config.radiation_ratio,
                    day_of_year=day_of_year,
                ),
            )
        self.physics = physics_suite
        self.history = RunHistory()
        self._dyn_steps = 0
        #: When set, every dynamics step is checked for non-finite
        #: prognostics and a :class:`~repro.resilience.recovery.StepFailure`
        #: raised on the first blow-up — the trigger for the chaos
        #: harness's checkpoint/rollback ladder.  Off by default: the
        #: check costs a reduction over the state per step.
        self.validate_state = validate_state
        #: Bit-exact image of every mutable side store at construction —
        #: what :meth:`reset` restores so a warm model can be reused
        #: across forecast requests as if freshly built.
        self._pristine = self.snapshot_mutable()

    # -- mutable-state snapshot/restore (rollback + warm reuse) ----------
    def _physics_suites(self) -> list:
        """Every underlying suite, unwrapping wrapper chains.

        Wrappers expose the wrapped suite as ``primary`` (plus an
        optional ``fallback``); unwrapping is recursive so stacked
        wrappers — e.g. the ensemble layer's ``PerturbedPhysics`` around
        the serving layer's ``ResilientPhysics`` — stay snapshot- and
        reset-transparent.  Order is primary-first depth-first, matching
        the single-level order snapshots were taken with before.
        """
        suites: list = []
        stack = [self.physics]
        while stack:
            phys = stack.pop(0)
            if phys is None:
                continue
            if hasattr(phys, "primary"):
                stack = [phys.primary, getattr(phys, "fallback", None)] + stack
            else:
                suites.append(phys)
        return suites

    def snapshot_mutable(self) -> dict:
        """Bit-exact copy of every mutable side store outside the state.

        The payload pairs with a :meth:`ModelState.copy` to make a full
        checkpoint: the dycore's step counter and tracer-window flux
        accumulator, the surface slab and its history, the run history
        lengths, and each physics suite's radiation-cadence counters.
        Leaving any of these out desynchronises a restored run from a
        straight-through one (found the hard way by the rollback bitwise
        tests).
        """
        phys = [
            (
                getattr(s, "_step", 0),
                getattr(s, "_cached_rad", None),
                {
                    k: len(v)
                    for k, v in getattr(s, "history", {}).items()
                    if isinstance(v, list)
                },
            )
            for s in self._physics_suites()
        ]
        return {
            "dyn_steps": self._dyn_steps,
            "dycore_steps": self.dycore._steps,
            "flux_sum": self.dycore.flux_acc._sum.copy(),
            "flux_steps": self.dycore.flux_acc._steps,
            "t_land": self.surface.t_land.copy(),
            "surface_history": len(self.surface.history),
            "run_history": len(self.history.times),
            "physics": phys,
        }

    def restore_mutable(self, payload: dict) -> None:
        """Restore a :meth:`snapshot_mutable` payload (bit-exact)."""
        self._dyn_steps = payload["dyn_steps"]
        self.dycore._steps = payload["dycore_steps"]
        self.dycore.flux_acc._sum[:] = payload["flux_sum"]
        self.dycore.flux_acc._steps = payload["flux_steps"]
        self.surface.t_land[:] = payload["t_land"]
        del self.surface.history[payload["surface_history"]:]
        h = self.history
        n = payload["run_history"]
        for lst in (h.times, h.precip, h.gsw, h.glw, h.tskin_mean, h.max_wind):
            del lst[n:]
        for suite, (step, rad, hist) in zip(
            self._physics_suites(), payload["physics"]
        ):
            if hasattr(suite, "_step"):
                suite._step = step
                suite._cached_rad = rad
            suite_hist = getattr(suite, "history", None)
            if isinstance(suite_hist, dict):
                for k, n_kept in hist.items():
                    if isinstance(suite_hist.get(k), list):
                        del suite_hist[k][n_kept:]

    def reset(self) -> None:
        """Return the model to its as-built state for warm reuse.

        After ``reset()`` a run from a fresh :class:`ModelState` is
        bitwise identical to the same run on a newly constructed model —
        the contract the serving layer's model pool is built on.
        """
        self.restore_mutable(self._pristine)

    def step_physics(self, state: ModelState) -> None:
        """One physics step: extract -> suite -> apply (section 3.2.4)."""
        dt_phy = self.grid_config.dt_physics
        with get_tracer().span(
            "model.physics_step", SpanKind.PHYSICS_STEP,
            ml=bool(self.scheme.ml_physics),
        ):
            coszr = cosine_solar_zenith(
                self.mesh.cell_lat, self.mesh.cell_lon, state.time,
                self.day_of_year,
            )
            fields = self.coupler.extract(
                state, self.surface.skin_temperature(), coszr
            )
            tend = self.physics.compute_from_coupler(state, fields) if hasattr(
                self.physics, "compute_from_coupler"
            ) else self.physics.compute(state, fields.wind_speed_sfc)
            self.coupler.apply_tendencies(
                state, tend.dtheta, tend.dqv, tend.dqc, tend.dqr,
                tend.surface_drag, dt_phy,
            )
        get_metrics().inc("model.physics_steps")
        self.history.times.append(state.time)
        self.history.precip.append(np.asarray(tend.precip_total))
        self.history.gsw.append(np.asarray(tend.gsw))
        self.history.glw.append(np.asarray(tend.glw))
        self.history.tskin_mean.append(float(np.mean(tend.tskin)))
        self.history.max_wind.append(float(np.abs(state.u).max()))

    def run(self, state: ModelState, n_dyn_steps: int) -> ModelState:
        """Advance the coupled model ``n_dyn_steps`` dynamics steps."""
        pr = self.grid_config.physics_ratio
        for _ in range(n_dyn_steps):
            state = self.dycore.step(state)
            self._dyn_steps += 1
            if self._dyn_steps % pr == 0:
                self.step_physics(state)
            if self.validate_state:
                self._validate(state)
        return state

    def _validate(self, state: ModelState) -> None:
        from repro.resilience.recovery import StepFailure, state_is_finite

        if not state_is_finite(state):
            get_metrics().inc("model.invalid_states")
            raise StepFailure(
                f"non-finite prognostics after dynamics step "
                f"{self._dyn_steps}"
            )

    def run_hours(self, state: ModelState, hours: float) -> ModelState:
        n = int(round(hours * 3600.0 / self.grid_config.dt_dyn))
        return self.run(state, n)
