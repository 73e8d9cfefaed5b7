"""The dynamical core driver: explicit horizontal RK + implicit vertical.

One :meth:`DynamicalCore.step` advances the prognostic state by the
dynamics timestep using the three-stage SSP Runge–Kutta scheme
``SSP_RK3`` over the horizontally explicit terms, followed (in
nonhydrostatic mode) by the implicit acoustic w–phi adjustment of
:mod:`repro.dycore.hevi`.  Tracers advance on a longer timestep from
accumulated mass fluxes (Table 2 uses dyn:trac = 4 s : 30 s at G12).

On a host with a spare CPU and fields of at least
:data:`LANE_MIN_POINTS` points, a step runs on two lanes, split by the
prognostic field each lane updates, the way the paper's SWGOMP offload
runs a kernel on the CPE team while the MPE carries on.  A helper
thread, alive only inside :meth:`DynamicalCore.step`, is the momentum
lane: each stage it computes the momentum terms, takes the vertical
advection and the sum once the mass lane hands over the column mass
flux and the PGF, and updates ``u``; at the step's end it accumulates
the mass flux and applies the ``u`` half of the sponge, and it carries
every second tracer.  The calling thread is the mass lane: the mass
flux chain, the PGF, the theta terms and the ``ps``/``theta`` update,
then the vertical solve and the ``theta`` half of the sponge.  On one
lane the same bodies run as plain calls in sequence
(:meth:`DynamicalCore.compute_tendencies`, then :func:`rk_update`).
Every array is computed by the same function and every sum is taken in
the same order on one lane or two, so the bits are the same.

The precision policy threads through every term so the MIX
configurations (Table 3) run genuinely reduced precision with the
sensitive terms (PGF, gravity/implicit solve, mass-flux accumulation)
pinned to double.
"""

from __future__ import annotations

import contextvars
import os
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
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
#: lanes.  On a 2-CPU host, dry steps on two lanes against one (median of
#: five interleaved rounds): G3L10 (6,420 points) 1.10x, G3L20 and G4L5
#: (12.8k) 1.19x and 1.43x, G4L8 (20,496) 1.33x, G5L10 1.39x.  The bar
#: keeps G3 runs of up to 25 levels (serving, the ML workloads) on one
#: lane, where no thread is started; lowering it is a change to measure
#: on those runs.
LANE_MIN_POINTS = 2**14


def step_lanes(nc: int, nlev: int) -> int:
    """How many lanes a core with ``nc`` cells and ``nlev`` levels steps
    on: 2 when this process may run on at least two CPUs and the fields
    have at least :data:`LANE_MIN_POINTS` points, else 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return 2 if cpus >= 2 and nc * nlev >= LANE_MIN_POINTS else 1


class _Lane:
    """The momentum lane of a two-lane step: the step's one-thread pool.

    Each piece starts at once on the helper thread, in a copy of the
    submitter's context (its NumPy error state included), as one ``LANE``
    span on ``cpe=1``; an exception, or a warning that the filters turn
    into one, comes back through ``result()``."""

    def __init__(self, pool: ThreadPoolExecutor):
        self._pool = pool

    def submit(self, span: str, fn, *args) -> Future:
        return self._pool.submit(contextvars.copy_context().run, _traced, span, fn, *args)


def _traced(span: str, fn, *args):
    with get_tracer().span(span, SpanKind.LANE, cpe=1):
        return fn(*args)


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


def rk_update_u(out: ModelState, base: ModelState, tds: list, weights: tuple, dt: float) -> None:
    """The momentum lane's half of :func:`rk_update`: ``u`` only."""
    np.add(base.u, _increment(tds, weights, "u", dt), out=out.u)


def rk_update_mass(
    out: ModelState, base: ModelState, tds: list, weights: tuple, dt: float
) -> None:
    """The mass lane's half of :func:`rk_update`: ``ps``, ``theta`` (in
    its flux form, the tendency being of ``dpi * theta``) and the clock."""
    mass_theta = base.dpi()
    np.add(base.ps, _increment(tds, weights, "ps", dt), out=out.ps)
    mass_theta *= base.theta
    mass_theta += _increment(tds, weights, "theta_mass", dt)
    np.divide(mass_theta, out.dpi(), out=out.theta)
    out.time = base.time + dt


def rk_update(out: ModelState, base: ModelState, tds: list, weights: tuple, dt: float) -> None:
    """One SSP-RK stage update, in place: ``out <- base + dt * sum_i w_i tds_i``.

    The one place the stage arithmetic is written, as two halves that
    read and write disjoint fields (:func:`rk_update_mass`,
    :func:`rk_update_u`): a two-lane step runs each on the lane that
    updates its fields; a one-lane step and every rank call both here.
    """
    rk_update_mass(out, base, tds, weights, dt)
    rk_update_u(out, base, tds, weights, dt)


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
        # The momentum lane while a two-lane step is in progress, else None.
        self._lane: _Lane | None = None

    def snapshot(self) -> tuple:
        """Bit-exact copy of the core's mutable state outside the model
        state: its step count and tracer-window flux accumulator."""
        return self._steps, self.flux_acc.snapshot()

    def restore(self, snap: tuple) -> None:
        """Restore a :meth:`snapshot` (bit-exact)."""
        self._steps = snap[0]
        self.flux_acc.restore(snap[1])

    @property
    def lanes(self) -> int:
        """1 or 2: how many lanes :meth:`step` runs on (:func:`step_lanes`)."""
        return step_lanes(self.mesh.nc, self.vcoord.nlev)

    @contextmanager
    def _step_lanes(self):
        """The momentum lane's helper thread, for one step.  It exists only
        in here, so no forked child can inherit it, and it is joined
        before the step returns or raises."""
        if self.lanes == 1:
            yield
            return
        with ThreadPoolExecutor(1, thread_name_prefix="dycore-lane") as pool:
            self._lane = _Lane(pool)
            try:
                yield
            finally:
                self._lane = None

    # -- the two lanes' stage bodies ------------------------------------------
    # Each body reads the stage state ``s`` and writes only the fields of
    # its own lane: ``u`` on the momentum lane; ``ps``, ``theta``, ``phi``
    # and ``w`` on the mass lane.

    def _u_terms(self, s: ModelState) -> tuple:
        """Momentum lane: Coriolis, KE gradient and momentum diffusion,
        the terms that need nothing from the mass lane."""
        pol, k = self.config.policy, self.kernels
        return (
            tend.calc_coriolis_term(self.mesh, s.u, pol, kernels=k),
            tend.tend_grad_ke_at_edge(self.mesh, s.u, pol, kernels=k),
            k.momentum_diffusion(s.u, self._diffusion),
        )

    def _u_vertical_advection(self, s: ModelState, column: tuple) -> np.ndarray:
        """Momentum lane: vertical ``u`` advection, from the mass lane's
        column hand-off ``(dpi, dpi_e, F, M)``."""
        dpi, dpi_e, _, M = column
        return tend.vertical_advection_edge(self.mesh, M, dpi, s.u, dpi_e, kernels=self.kernels)

    @staticmethod
    def _u_tendency(terms: tuple, pgf: np.ndarray, vadv: np.ndarray) -> np.ndarray:
        """Momentum lane: the ``u`` tendency, each term summed over a fresh
        operand (or the handed-over PGF, which only this sum reads) in the
        promoted dtype, in the order Coriolis, KE gradient, PGF, vertical
        advection, diffusion."""
        coriolis, ke, diffusion = terms
        u_tend = tend.promoted(np.add, coriolis, ke)
        u_tend = tend.promoted(np.add, u_tend, pgf)
        u_tend = tend.promoted(np.add, u_tend, vadv)
        u_tend = tend.promoted(np.add, u_tend, diffusion)
        return np.asarray(u_tend, dtype=np.float64)

    def _mass_column(self, s: ModelState) -> tuple:
        """Mass lane: dpi -> p -> phi and dpi at edges, everything the mass
        flux needs besides ``u``: ``(dpi, dpi_e, p_mid, phi_mid)``."""
        vc = self.vcoord
        dpi = s.dpi()
        p_int = vc.pressure_interfaces(s.ps)
        p_mid = layer_mean(p_int)
        # Geopotential: prognostic in NH mode, hydrostatic otherwise.
        if self.config.nonhydrostatic:
            phi = s.phi
        else:
            phi = geopotential_interfaces(s.phi_surface, s.theta, p_int)
        phi_mid = layer_mean(phi)
        dpi_e = self.kernels.cell_to_edge(dpi)    # shared by flux and advection
        return dpi, dpi_e, p_mid, phi_mid

    def _mass_flux(self, s: ModelState, dpi: np.ndarray, dpi_e: np.ndarray) -> tuple:
        """Mass lane: F -> D -> M.  Returns the column hand-off ``(dpi,
        dpi_e, F, M)`` and the ps tendency."""
        mesh, pol, k = self.mesh, self.config.policy, self.kernels
        F = tend.primal_normal_flux_edge(mesh, dpi, s.u, pol, dpi_e)
        D = k.divergence(F)                               # (nc, nlev)
        total = D.sum(axis=1)
        M = tend.vertical_mass_flux(mesh, self.vcoord.b_interfaces, D, total=total)
        return (dpi, dpi_e, F, M), np.asarray(-total, dtype=np.float64)

    def _pgf(self, s: ModelState, p_mid: np.ndarray, phi_mid: np.ndarray) -> tuple:
        """Mass lane: ``theta_e`` in the PGF's precision and the PGF."""
        pol, k = self.config.policy, self.kernels
        theta_e = k.cell_to_edge(pol.cast("pressure_gradient", s.theta))
        pgf = tend.pressure_gradient_force(
            self.mesh, s.theta, p_mid, phi_mid, pol, kernels=k, theta_e=theta_e
        )
        return theta_e, pgf

    def _theta_tendency(self, s: ModelState, column: tuple, theta_e: np.ndarray) -> np.ndarray:
        """Mass lane: the ``dpi * theta`` tendency, flux form (reusing
        ``theta_e`` when it is in ``ns`` precision) plus the Laplacian."""
        pol, k, theta = self.config.policy, self.kernels, s.theta
        dpi, _, F, M = column
        if pol.ns != theta_e.dtype:
            theta_e = k.cell_to_edge(theta.astype(pol.ns))
        # F is handed over and recorded, so never written.
        theta_flux = tend.promoted(np.multiply, F, theta_e, reuse=(theta_e,))
        theta_mass_tend = tend.vertical_advection_cell(M, theta)
        theta_mass_tend -= k.divergence(theta_flux)
        diffusion = k.laplacian_cell(theta)
        diffusion *= self._nu * dpi
        theta_mass_tend += diffusion
        return np.asarray(theta_mass_tend, dtype=np.float64)

    def compute_tendencies(self, state: ModelState) -> Tendencies:
        """One RK stage's tendencies on one lane: both lanes' bodies as
        plain calls, in this order, each intermediate computed once.

        ``p_int`` yields ``p_mid``; the divergence's column total feeds
        both the ps tendency and ``M``; ``theta_e`` in the PGF's precision
        feeds both the PGF and, when that is ``ns``, the flux form; every
        momentum and theta term is added into its accumulator in place
        when that already holds the promoted dtype (``tend.promoted``).
        Dtype rules (what keeps MIX and any per-term precision map
        bitwise): each sum is taken in its operands' promoted dtype, in a
        fixed order (:meth:`_u_tendency`); every returned tendency is
        float64.
        """
        dpi, dpi_e, p_mid, phi_mid = self._mass_column(state)
        column, ps_tend = self._mass_flux(state, dpi, dpi_e)
        theta_e, pgf = self._pgf(state, p_mid, phi_mid)
        vadv = self._u_vertical_advection(state, column)
        theta_mass = self._theta_tendency(state, column, theta_e)
        return Tendencies(
            ps=ps_tend,
            u=self._u_tendency(self._u_terms(state), pgf, vadv),
            theta_mass=theta_mass,
            flux_edge=np.asarray(column[2], dtype=np.float64),
        )

    # -- time stepping -------------------------------------------------------
    def _stage(self, s: ModelState, base: ModelState, tds: list, weights: tuple,
               dt: float, previous: Future | None = None) -> Future | None:
        """One RK stage of :meth:`step`: its tendencies onto ``tds`` and the
        update of ``s`` from ``base``.

        On two lanes the momentum lane's part goes to the helper, queued
        behind ``previous``, the last stage's; this thread runs the mass
        lane, joins ``previous`` only where the mass flux reads ``u``,
        hands over the column and then the PGF, and returns the momentum
        lane's future for the next stage (or the step's end) to join.
        """
        if self._lane is None:
            tds.append(self.compute_tendencies(s))
            rk_update(s, base, tds, weights, dt)
            return None
        td = Tendencies(ps=None, u=None, theta_mass=None, flux_edge=None)
        tds.append(td)
        column_ready, pgf_ready = Future(), Future()
        momentum = self._lane.submit(
            "dycore.rk_stage.lane", self._momentum_stage, s, base, list(tds), weights, dt,
            column_ready, pgf_ready,
        )
        try:
            dpi, dpi_e, p_mid, phi_mid = self._mass_column(s)
            if previous is not None:
                previous.result()               # the last stage's u
            column, td.ps = self._mass_flux(s, dpi, dpi_e)
            column_ready.set_result(column)
            theta_e, pgf = self._pgf(s, p_mid, phi_mid)
            pgf_ready.set_result(pgf)
            td.flux_edge = np.asarray(column[2], dtype=np.float64)
            td.theta_mass = self._theta_tendency(s, column, theta_e)
            rk_update_mass(s, base, tds, weights, dt)
        except BaseException:
            for handoff in (column_ready, pgf_ready):   # one never made ends the momentum lane
                if not handoff.done():
                    handoff.set_exception(CancelledError())
            raise
        return momentum

    def _momentum_stage(self, s: ModelState, base: ModelState, tds: list, weights: tuple,
                        dt: float, column_ready: Future, pgf_ready: Future) -> None:
        """The momentum lane's part of one two-lane stage; it writes the
        stage's ``u`` tendency and ``u``."""
        terms = self._u_terms(s)
        vadv = self._u_vertical_advection(s, column_ready.result())
        tds[-1].u = self._u_tendency(terms, pgf_ready.result(), vadv)
        rk_update_u(s, base, tds, weights, dt)

    def _momentum_step_end(self, s: ModelState, tds: list, weights: tuple, dt: float) -> None:
        """The momentum lane's end of a two-lane step: the mass-flux
        accumulation and the ``u`` half of the sponge."""
        self.flux_acc.add(_weighted(tds, weights, "flux_edge"))
        if self.config.sponge_levels > 0:
            self._sponge_u(s, dt)

    def _vertical_solve(self, s: ModelState, dt: float) -> None:
        """Mass lane: the implicit w-phi solve (nonhydrostatic) or the
        hydrostatic geopotential of the updated state."""
        tracer = get_tracer()
        if self.config.nonhydrostatic:
            with tracer.span("dycore.implicit_w", SpanKind.VERTICAL_SOLVE):
                s.w, s.phi = implicit_w_solve(s.w, s.phi, s.dpi(), s.theta, dt)
        else:
            with tracer.span("dycore.hydrostatic_phi", SpanKind.VERTICAL_SOLVE):
                p_int = self.vcoord.pressure_interfaces(s.ps)
                s.phi = geopotential_interfaces(s.phi_surface, s.theta, p_int)

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
            momentum = None
            for k, (weights, frac) in enumerate(SSP_RK3, 1):
                with tracer.span("dycore.rk_stage", SpanKind.RK_STAGE, stage=k):
                    momentum = self._stage(s1, state, tds, weights, frac * dt, momentum)
            sponge = self.config.sponge_levels > 0
            if self._lane is None:
                # Accumulate the step's mass flux for the tracer step — always double.
                self.flux_acc.add(_weighted(tds, weights, "flux_edge"))
                self._vertical_solve(s1, dt)
                if sponge:
                    with tracer.span("dycore.sponge", SpanKind.SPONGE):
                        self._apply_sponge(s1, dt)
            else:
                end = self._lane.submit(
                    "dycore.step_end.lane", self._momentum_step_end, s1, tds, weights, dt
                )
                self._vertical_solve(s1, dt)
                if sponge:
                    with tracer.span("dycore.sponge", SpanKind.SPONGE):
                        self._sponge_theta(s1, dt)
                momentum.result()
                end.result()

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

    # Scale-selective sponge on the top ``sponge_levels`` layers: extra
    # Laplacian diffusion of winds and theta, ramping from full strength
    # at the lid to zero at the sponge base.  Being diffusive (not
    # Rayleigh-to-zero), it leaves smooth balanced flow untouched while
    # killing the grid-scale modes that amplify in the thin uppermost
    # layers.  One half per lane.

    def _sponge_nu(self) -> tuple:
        nsp = min(self.config.sponge_levels, self.vcoord.nlev - 1)
        ramp = (1.0 - np.arange(nsp) / nsp)[None, :]
        return nsp, self._de2 / self.config.sponge_timescale * ramp

    def _sponge_u(self, state: ModelState, dt: float) -> None:
        nsp, nu = self._sponge_nu()
        u_sp = state.u[:, :nsp]
        state.u[:, :nsp] = u_sp + dt * nu * self.kernels.laplacian_edge(u_sp)

    def _sponge_theta(self, state: ModelState, dt: float) -> None:
        nsp, nu = self._sponge_nu()
        th_sp = state.theta[:, :nsp]
        state.theta[:, :nsp] = th_sp + dt * nu * self.kernels.laplacian_cell(th_sp)

    def _apply_sponge(self, state: ModelState, dt: float) -> None:
        """Both halves of the sponge, on one lane."""
        self._sponge_u(state, dt)
        self._sponge_theta(state, dt)

    def _tracer_step(self, old: ModelState, new: ModelState) -> None:
        """Advance all tracers over the elapsed tracer window; on two
        lanes every second tracer runs on the momentum lane."""
        dt_trac = self.config.dt * self.flux_acc.steps
        F = self.flux_acc.mean()
        self.flux_acc.reset()
        D = self.kernels.divergence(F)
        total = D.sum(axis=1)
        M = tend.vertical_mass_flux(self.mesh, self.vcoord.b_interfaces, D, total=total)
        # Layer masses consistent with the mean flux over the window.
        dpi_old = old.dpi()
        dpi_new = self.vcoord.dpi(old.ps - dt_trac * total)
        window = (F, M, dpi_old, dpi_new, dt_trac)

        names, qs = list(new.tracers), list(new.tracers.values())
        if self._lane is None:
            new.tracers.update(zip(names, self._advance_tracers(qs, *window)))
            return
        odd = self._lane.submit(
            "dycore.tracer_step.lane", self._advance_tracers, qs[1::2], *window
        )
        even = self._advance_tracers(qs[0::2], *window)
        new.tracers.update(zip(names[1::2], odd.result()))
        new.tracers.update(zip(names[0::2], even))

    def _advance_tracers(self, qs: list, F, M, dpi_old, dpi_new, dt_trac: float) -> list:
        """Each tracer of ``qs`` over one tracer window: horizontal
        flux-limited transport, then vertical, clipped at zero."""
        out = []
        for q in qs:
            q1 = tracer_transport_hori_flux_limiter(
                self.mesh, q, F, dpi_old, dpi_new, dt_trac, self.config.policy,
                kernels=self.kernels,
            )
            q2 = vertical_tracer_transport(q1, M, dpi_new, dpi_new, dt_trac)
            out.append(np.maximum(q2, 0.0))
        return out

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
