"""The dynamical core driver: explicit horizontal RK + implicit vertical.

One :meth:`DynamicalCore.step` advances the prognostic state by the
dynamics timestep using the three-stage SSP Runge–Kutta scheme
``SSP_RK3`` over the horizontally explicit terms, followed (in
nonhydrostatic mode) by the implicit acoustic w–phi adjustment of
:mod:`repro.dycore.hevi`.  Tracers advance on a longer timestep from
accumulated mass fluxes (Table 2 uses dyn:trac = 4 s : 30 s at G12).

On a host with a spare CPU and fields of at least
:data:`LANE_MIN_POINTS` points, a step runs on two lanes: one helper
thread, alive only inside :meth:`DynamicalCore.step`, takes the
independent half of each RK stage (the terms that read only ``u`` and
``theta``) and every second tracer, the way the paper's SWGOMP offload
runs a kernel on the CPE team while the MPE carries on.  Every array
is computed by the same function and every sum is taken in the same
order on one lane or two, so the bits are the same.

The precision policy threads through every term so the MIX
configurations (Table 3) run genuinely reduced precision with the
sensitive terms (PGF, gravity/implicit solve, mass-flux accumulation)
pinned to double.
"""

from __future__ import annotations

import contextvars
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.dycore import tendencies as tend
from repro.dycore.hevi import implicit_w_solve
from repro.dycore.state import ModelState
from repro.dycore.stencil import DEFAULT_BACKEND, compiled_kernels, resolve_backend_name
from repro.dycore.tracer import (
    MassFluxAccumulator,
    tracer_transport_hori_flux_limiter,
    vertical_tracer_transport,
)
from repro.dycore.vertical import VerticalCoordinate, geopotential_interfaces, layer_mean
from repro.grid.mesh import Mesh
from repro.obs import SpanKind, get_metrics, get_tracer
from repro.precision.policy import PrecisionPolicy

#: The SSP-RK3 increment schedule: one ``(combine weights, dt
#: fraction)`` row per stage.  Stage ``k`` evaluates the tendency at the
#: current state, combines the tendencies so far with its weights and
#: restarts from the step's base state over ``fraction * dt`` (a
#: single-weight row applies its tendency as is).  The serial step, the
#: distributed step and the race analyzer's declared step plan are all
#: loops over these rows.  Three stages, because SSP-RK3 is stable for
#: the oscillatory inertia-gravity modes that Heun's RK2 weakly
#: amplifies and forward Euler amplifies outright.
SSP_RK3 = (((1.0,), 1.0), ((0.5, 0.5), 0.5), ((1 / 6, 1 / 6, 2 / 3), 1.0))


#: Fewest field points (``nc * nlev``) for which a core steps on two
#: lanes, set on a 2-CPU host.  G4 steps gain from G4L8 (20,496 points,
#: 1.2-1.3x) up; at 12.8k points G4L5 gains 1.1-1.4x but G3L20 only
#: 1.04x, and a G3L10 step (6,420) is no faster, so G3 stays on one lane.
#: Each stage pays a thread hand-off whatever the mesh size.
LANE_MIN_POINTS = 2**14


def step_lanes(nc: int, nlev: int) -> int:
    """How many lanes a core with ``nc`` cells and ``nlev`` levels steps
    on: 2 when this process may run on at least two CPUs and the fields
    have at least :data:`LANE_MIN_POINTS` points, else 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return 2 if cpus >= 2 and nc * nlev >= LANE_MIN_POINTS else 1


class _Deferred:
    """A piece of one-lane step work: it runs, untraced, on the calling
    thread when its ``result()`` is asked for."""

    __slots__ = ("_fn", "_args")

    def __init__(self, fn, args):
        self._fn, self._args = fn, args

    def result(self):
        return self._fn(*self._args)


class _Lane:
    """Where a step puts the independent half of its work.

    With no pool (one lane) each piece is deferred to its join.  With the
    step's one-thread pool each piece starts at once on the helper thread,
    in a copy of the submitter's context (its NumPy error state included),
    as one ``LANE`` span on ``cpe=1``; an exception, or a warning that the
    filters turn into one, comes back through ``result()``."""

    def __init__(self, pool: ThreadPoolExecutor | None = None):
        self._pool = pool

    def submit(self, span: str, fn, *args):
        if self._pool is None:
            return _Deferred(fn, args)
        return self._pool.submit(contextvars.copy_context().run, _traced, span, fn, *args)


def _traced(span: str, fn, *args):
    with get_tracer().span(span, SpanKind.LANE, cpe=1):
        return fn(*args)


_ONE_LANE = _Lane()


@dataclass
class DycoreConfig:
    """Numerical configuration of the core.

    ``tracer_ratio`` dynamics sub-steps form one tracer step (Table 2's
    Dyn=4 s / Trac=30 s gives 7.5; we round to integers).
    """

    dt: float = 300.0
    nonhydrostatic: bool = False
    tracer_ratio: int = 6
    #: Nondimensional horizontal diffusion strength (nu = C * de^2 / dt).
    diffusion_coeff: float = 0.04
    #: Divergence damping: the simplified (non-TRSK) tangential-velocity
    #: reconstruction makes the nonlinear Coriolis term weakly
    #: energy-inconsistent, pumping a slow grid-scale divergent mode in
    #: strongly stratified columns; strong divergence damping (plus the
    #: top sponge) is the standard countermeasure and kills it.
    divergence_damping: float = 0.15
    policy: PrecisionPolicy = field(default_factory=PrecisionPolicy)
    #: Rayleigh sponge at the model top: number of damped levels and the
    #: damping timescale at the lid (relaxing winds and theta anomalies;
    #: every real core carries one — grid-scale divergent modes otherwise
    #: amplify in the thin uppermost layers).
    sponge_levels: int = 3
    sponge_timescale: float = 1.0e4
    #: Stencil backend of the plan the core compiles and calls ("fused",
    #: the default, or the "reference" oracle); the distributed driver's
    #: rank-local cores share the config, so they compile the same one.
    #: See :mod:`repro.dycore.stencil`.
    stencil_backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt!r}")
        if self.tracer_ratio < 1:
            raise ValueError(f"tracer_ratio must be >= 1, got {self.tracer_ratio!r}")
        if self.sponge_levels < 0:
            raise ValueError(f"sponge_levels must be >= 0, got {self.sponge_levels!r}")
        if not self.sponge_timescale > 0:
            raise ValueError(
                f"sponge_timescale must be > 0, got {self.sponge_timescale!r}"
            )
        resolve_backend_name(self.stencil_backend)


@dataclass
class Tendencies:
    ps: np.ndarray
    u: np.ndarray
    theta_mass: np.ndarray   # d(dpi * theta)/dt
    flux_edge: np.ndarray    # the mass flux used (for accumulation)


def _weighted(tds: list, weights: tuple, name: str) -> np.ndarray:
    """``0 + sum_i w_i * tds_i.name``, summed left to right into one fresh
    array; a single-weight row is ``tds[0].name`` itself.  The sum starts
    from +0.0, so terms that are all -0.0 sum to +0.0."""
    first = getattr(tds[0], name)
    if len(weights) == 1:
        return first
    acc = np.multiply(first, weights[0])
    acc += 0.0
    term = np.empty_like(acc)
    for w, t in zip(weights[1:], tds[1:]):
        acc += np.multiply(getattr(t, name), w, out=term)
    return acc


def _increment(tds: list, weights: tuple, name: str, dt: float) -> np.ndarray:
    """``dt * sum_i w_i * tds_i.name`` as one fresh array."""
    s = _weighted(tds, weights, name)
    return np.multiply(s, dt, out=None if len(weights) == 1 else s)


def rk_update(out: ModelState, base: ModelState, tds: list, weights: tuple, dt: float) -> None:
    """One SSP-RK stage update, in place: ``out <- base + dt * sum_i w_i tds_i``.

    ``ps`` and ``u`` directly, ``theta`` in its flux form (the tendency
    is of ``dpi * theta``).  The one place the stage arithmetic is
    written: the serial and the distributed step both call it, per rank.
    """
    mass_theta = base.dpi()
    np.add(base.ps, _increment(tds, weights, "ps", dt), out=out.ps)
    np.add(base.u, _increment(tds, weights, "u", dt), out=out.u)
    mass_theta *= base.theta
    mass_theta += _increment(tds, weights, "theta_mass", dt)
    np.divide(mass_theta, out.dpi(), out=out.theta)
    out.time = base.time + dt


class DynamicalCore:
    """GRIST-style hexagonal C-grid solver on one global mesh."""

    def __init__(self, mesh: Mesh, vcoord: VerticalCoordinate, config: DycoreConfig | None = None):
        self.mesh = mesh
        self.vcoord = vcoord
        self.config = config or DycoreConfig()
        # Compile this mesh's kernel plan up front (idempotent): the hot
        # loop never pays first-call compilation, and forked rank workers
        # inherit a fully built, immutable-after-publish plan.  Every
        # horizontal operator the core applies is a call on this object.
        self.kernels = compiled_kernels(mesh, self.config.stencil_backend)
        self.flux_acc = MassFluxAccumulator(mesh.ne, vcoord.nlev)
        # Diffusion scales with the *global* grid spacing of this level
        # (not the instance's mean edge length) so a rank-local submesh
        # uses exactly the same coefficient as the serial solver.
        from repro.grid.icosahedral import grid_mean_spacing_km

        de = grid_mean_spacing_km(mesh.level, mesh.radius) * 1000.0
        self._de2 = de**2
        self._nu = self.config.diffusion_coeff * self._de2 / self.config.dt
        self._nu_div = self.config.divergence_damping * self._de2 / self.config.dt
        # nu lap_e(u) + nu_div grad(div u), compiled for these coefficients.
        self._diffusion = self.kernels.diffusion_operator(self._nu, self._nu_div)
        self._steps = 0
        # Where the independent half of the step work runs: the helper
        # thread while a two-lane step is in progress, else the caller.
        self._lane = _ONE_LANE

    @property
    def lanes(self) -> int:
        """1 or 2: how many lanes :meth:`step` runs on (:func:`step_lanes`)."""
        return step_lanes(self.mesh.nc, self.vcoord.nlev)

    @contextmanager
    def _step_lanes(self):
        """The helper thread, for one step.  It exists only in here, so no
        forked child can inherit it, and it is joined before the step
        returns or raises."""
        if self.lanes == 1:
            yield
            return
        with ThreadPoolExecutor(1, thread_name_prefix="dycore-lane") as pool:
            self._lane = _Lane(pool)
            try:
                yield
            finally:
                self._lane = _ONE_LANE

    # -- tendency evaluation ------------------------------------------------
    def _u_theta_terms(self, u: np.ndarray, theta: np.ndarray) -> tuple:
        """The stage's terms that read only ``u`` and ``theta``: Coriolis,
        KE gradient, momentum diffusion and the theta Laplacian."""
        pol, k = self.config.policy, self.kernels
        return (
            tend.calc_coriolis_term(self.mesh, u, pol, kernels=k),
            tend.tend_grad_ke_at_edge(self.mesh, u, pol, kernels=k),
            k.momentum_diffusion(u, self._diffusion),
            k.laplacian_cell(theta),
        )

    def compute_tendencies(self, state: ModelState) -> Tendencies:
        """One RK stage's tendencies, each intermediate computed once.

        ``p_int`` yields ``p_mid``; the divergence's column total feeds
        both the ps tendency and ``M``; ``theta_e`` in the PGF's precision
        feeds both the PGF and, when that is ``ns``, the flux form; every
        momentum and theta term is added into its accumulator in place
        when that already holds the promoted dtype (``tend.promoted``).
        Dtype rules (what keeps MIX and any per-term precision map
        bitwise): each sum is taken in its operands' promoted dtype, in the
        order Coriolis, KE gradient, PGF, vertical advection, diffusion;
        every returned tendency is float64.

        The terms that read only ``u`` and ``theta`` (:meth:`_u_theta_terms`)
        go to the step's lane when the stage starts; this thread computes
        the mass, PGF and vertical-advection chain meanwhile and joins
        before the first sum, so one lane or two give the same bits.
        """
        mesh, vc, pol, k = self.mesh, self.vcoord, self.config.policy, self.kernels
        theta = state.theta
        u_theta = self._lane.submit(
            "dycore.rk_stage.lane", self._u_theta_terms, state.u, theta
        )
        dpi = state.dpi()
        p_int = vc.pressure_interfaces(state.ps)
        p_mid = layer_mean(p_int)

        # Geopotential: prognostic in NH mode, hydrostatic otherwise.
        if self.config.nonhydrostatic:
            phi = state.phi
        else:
            phi = geopotential_interfaces(state.phi_surface, theta, p_int)
        phi_mid = layer_mean(phi)

        # Mass flux and continuity.
        dpi_e = k.cell_to_edge(dpi)           # shared by flux and advection
        F = tend.primal_normal_flux_edge(mesh, dpi, state.u, pol, dpi_e)
        D = k.divergence(F)                               # (nc, nlev)
        total = D.sum(axis=1)
        M = tend.vertical_mass_flux(mesh, vc.b_interfaces, D, total=total)

        theta_e = k.cell_to_edge(pol.cast("pressure_gradient", theta))
        pgf = tend.pressure_gradient_force(
            mesh, theta, p_mid, phi_mid, pol, kernels=k, theta_e=theta_e
        )
        vadv = tend.vertical_advection_edge(mesh, M, dpi, state.u, dpi_e, kernels=k)

        # Potential temperature in flux form (F is returned, so never written).
        if pol.ns != theta_e.dtype:
            theta_e = k.cell_to_edge(theta.astype(pol.ns))
        theta_flux = tend.promoted(np.multiply, F, theta_e, reuse=(theta_e,))
        theta_mass_tend = tend.vertical_advection_cell(M, theta)
        theta_mass_tend -= k.divergence(theta_flux)

        # The join.  Momentum: each term summed over a fresh operand of the
        # promoted dtype.
        coriolis, ke, u_diffusion, diffusion = u_theta.result()
        u_tend = tend.promoted(np.add, coriolis, ke)
        u_tend = tend.promoted(np.add, u_tend, pgf)
        u_tend = tend.promoted(np.add, u_tend, vadv)
        u_tend = tend.promoted(np.add, u_tend, u_diffusion)
        diffusion *= self._nu * dpi
        theta_mass_tend += diffusion
        return Tendencies(
            ps=np.asarray(-total, dtype=np.float64),
            u=np.asarray(u_tend, dtype=np.float64),
            theta_mass=np.asarray(theta_mass_tend, dtype=np.float64),
            flux_edge=np.asarray(F, dtype=np.float64),
        )

    # -- time stepping -------------------------------------------------------
    def step(self, state: ModelState) -> ModelState:
        """Advance one dynamics step (SSP-RK3 + implicit vertical).

        SSP-RK3 in its equivalent increment form: the final update is
        ``state + dt * (1/6 L(s0) + 1/6 L(s1) + 2/3 L(s2))`` with
        ``s1 = s0 + dt L(s0)`` and ``s2 = s0 + dt/4 (L(s0) + L(s1))``.
        """
        dt = self.config.dt
        tracer = get_tracer()
        wall0 = time.perf_counter()
        with tracer.span("dycore.step", SpanKind.DYN_STEP, step=self._steps), \
                self._step_lanes():
            tds: list[Tendencies] = []
            s1 = state.copy()   # the state returned; the input stays untouched
            for k, (weights, frac) in enumerate(SSP_RK3, 1):
                with tracer.span("dycore.rk_stage", SpanKind.RK_STAGE, stage=k):
                    tds.append(self.compute_tendencies(s1))
                rk_update(s1, state, tds, weights, frac * dt)
            # Accumulate the step's mass flux for the tracer step — always double.
            self.flux_acc.add(_weighted(tds, weights, "flux_edge"))

            if self.config.nonhydrostatic:
                with tracer.span("dycore.implicit_w", SpanKind.VERTICAL_SOLVE):
                    dpi_new = s1.dpi()
                    s1.w, s1.phi = implicit_w_solve(
                        s1.w, s1.phi, dpi_new, s1.theta, dt
                    )
            else:
                with tracer.span("dycore.hydrostatic_phi", SpanKind.VERTICAL_SOLVE):
                    p_int = self.vcoord.pressure_interfaces(s1.ps)
                    s1.phi = geopotential_interfaces(
                        s1.phi_surface, s1.theta, p_int
                    )

            if self.config.sponge_levels > 0:
                with tracer.span("dycore.sponge", SpanKind.SPONGE):
                    self._apply_sponge(s1, dt)

            self._steps += 1
            if self._steps % self.config.tracer_ratio == 0:
                with tracer.span(
                    "dycore.tracer_step", SpanKind.TRACER_STEP,
                    n_tracers=len(s1.tracers),
                ):
                    self._tracer_step(state, s1)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("dycore.steps")
            metrics.observe("dycore.step_wall_seconds", time.perf_counter() - wall0)
        return s1

    def _apply_sponge(self, state: ModelState, dt: float) -> None:
        """Scale-selective sponge on the top ``sponge_levels`` layers.

        Applies extra Laplacian diffusion to winds and theta, ramping
        from full strength at the lid to zero at the sponge base.  Being
        diffusive (not Rayleigh-to-zero), it leaves smooth balanced flow
        untouched while killing the grid-scale modes that amplify in the
        thin uppermost layers.
        """
        nsp = min(self.config.sponge_levels, self.vcoord.nlev - 1)
        u_sp = state.u[:, :nsp]
        th_sp = state.theta[:, :nsp]
        ramp = (1.0 - np.arange(nsp) / nsp)[None, :]
        nu = self._de2 / self.config.sponge_timescale * ramp
        state.u[:, :nsp] = u_sp + dt * nu * self.kernels.laplacian_edge(u_sp)
        state.theta[:, :nsp] = th_sp + dt * nu * self.kernels.laplacian_cell(th_sp)

    def _tracer_step(self, old: ModelState, new: ModelState) -> None:
        """Advance all tracers over the elapsed tracer window; every
        second tracer runs on the step's lane."""
        dt_trac = self.config.dt * self.flux_acc.steps
        F = self.flux_acc.mean()
        self.flux_acc.reset()
        mesh, vc = self.mesh, self.vcoord
        D = self.kernels.divergence(F)
        total = D.sum(axis=1)
        M = tend.vertical_mass_flux(mesh, vc.b_interfaces, D, total=total)
        # Layer masses consistent with the mean flux over the window.
        dpi_old = old.dpi()
        ps_mid = old.ps - dt_trac * total
        dpi_new = vc.dpi(ps_mid)

        def advance(qs: list) -> list:
            out = []
            for q in qs:
                q1 = tracer_transport_hori_flux_limiter(
                    mesh, q, F, dpi_old, dpi_new, dt_trac, self.config.policy,
                    kernels=self.kernels,
                )
                q2 = vertical_tracer_transport(q1, M, dpi_new, dpi_new, dt_trac)
                out.append(np.maximum(q2, 0.0))
            return out

        names, qs = list(new.tracers), list(new.tracers.values())
        odd = self._lane.submit("dycore.tracer_step.lane", advance, qs[1::2])
        even = advance(qs[0::2])
        new.tracers.update(zip(names[1::2], odd.result()))
        new.tracers.update(zip(names[0::2], even))

    # -- diagnostics -----------------------------------------------------------
    def diagnostics(self, state: ModelState) -> dict:
        """The paper's observation points: ps and relative vorticity."""
        zeta = self.kernels.curl(state.u)
        return {
            "ps": state.ps.copy(),
            "vor": zeta,
            "max_wind": float(np.abs(state.u).max()),
            "total_dry_mass": state.total_dry_mass(),
        }

    def run(self, state: ModelState, n_steps: int) -> ModelState:
        """``n_steps`` steps; a non-finite ``ps``, ``u`` or ``theta`` after
        any of them raises ``FloatingPointError`` naming the field."""
        for _ in range(n_steps):
            state = self.step(state)
            for name in ("ps", "u", "theta"):
                if not np.isfinite(getattr(state, name)).all():
                    raise FloatingPointError(
                        f"{name} became non-finite at t={state.time}"
                    )
        return state
