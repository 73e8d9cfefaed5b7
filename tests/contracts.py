"""The equality-contract table: every promise that two execution paths
agree, declared once, with one comparator and one runner.

A :class:`Row` names

* ``paths`` — the candidate path and the oracle it is held to;
* the fields compared — every field the paths produce, as
  :func:`fields_of` reads them (a ``ModelState`` is ``ps, u, theta, w,
  phi`` and each tracer);
* ``bound`` — :data:`BITWISE` (same dtype, same shape, same bytes, so a
  flipped sign of zero fails), a number ``b`` (``max|a - o| <= b *
  max|o|``), :data:`REL_L2` (the paper's 5 % relative L2, §3.4.1) or an
  :class:`Abs` (an invariant's absolute bound); a dict maps field names
  to bounds (``"*"`` for the rest), a callable maps a case to either;
* ``axes`` — the values the promise must hold over.  A row runs the full
  product of its axes unless ``sample`` lists its cases.

:func:`check` runs one case: both paths, then :func:`agree`.  Each case
is collected once, by :func:`collect`: a test that still has the id the
check had before this table runs the cases it selects, and
``test_contracts.py::test_row`` runs the rest.  Every collected case
carries its row's name as a marker, so ``pytest -m "ranks or lanes"``
runs those rows wherever they live.  :func:`bitwise` is the ``BITWISE``
bound outside the table, for comparisons that are no row's paths.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

from repro.dycore.state import ModelState
from repro.dycore.stencil import compiled_kernels
from repro.grid.mesh import build_mesh
from repro.precision.analysis import ACCURACY_THRESHOLD, relative_l2

#: Same dtype, same shape, same bytes.
BITWISE = "bitwise"
#: ``relative_l2(a, o) <= ACCURACY_THRESHOLD`` (§3.4.1's 5 %).
REL_L2 = "rel_l2"
#: A stencil kernel on float32 fields against ``reference``.
F32 = 1e-6
#: A float32 clone of an ML net against the float64 net (observed 7.5e-7
#: through the paper-size CNN, 3.5e-6 on the coupled suite's clipped dqv).
NET_F32 = 1e-5

TWO_CPUS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


@dataclass(frozen=True)
class Abs:
    """An invariant's bound: ``max|a - o| <= value``."""

    value: float


@dataclass(frozen=True, eq=False)
class Row:
    name: str
    paths: tuple
    bound: object
    axes: dict
    run: Callable
    sample: tuple = ()
    xfail: dict = field(default_factory=dict)    # case id -> reason

    def cases(self) -> list:
        if self.sample:
            return [dict(c) for c in self.sample]
        return [dict(zip(self.axes, v)) for v in itertools.product(*self.axes.values())]

    def key(self, case) -> tuple:
        return tuple(case[a] for a in self.axes)

    def case_id(self, case, among=None) -> str:
        """Values of the axes that vary ``among`` the cases (default: the
        row's), in axis order — a non-scalar value as ``axis<index>``."""
        among = self.cases() if among is None else among
        parts = []
        for axis, values in self.axes.items():
            if axis in case and len({repr(c[axis]) for c in among}) > 1:
                v = case[axis]
                scalar = isinstance(v, (str, int, float))
                parts.append(str(v) if scalar else f"{axis}{values.index(v)}")
        return "-".join(parts)

    def bound_of(self, case, name):
        b = self.bound(case) if callable(self.bound) else self.bound
        return b.get(name, b.get("*")) if isinstance(b, dict) else b


# -- the comparator -------------------------------------------------------

def fields_of(obj) -> dict:
    """Every field a path produces, by name."""
    if isinstance(obj, dict):
        return dict(obj)
    if isinstance(obj, np.ndarray) or np.isscalar(obj):
        return {"value": obj}
    if isinstance(obj, (list, tuple)):
        return {f"{i}.{k}": v for i, item in enumerate(obj) for k, v in fields_of(item).items()}
    if isinstance(obj, ModelState):
        out = {n: getattr(obj, n) for n in ("ps", "u", "theta", "w", "phi")}
        out.update({f"tracers[{k}]": obj.tracers[k] for k in sorted(obj.tracers)})
        return out
    if hasattr(obj, "members"):          # a served or ensemble result
        return {f"member{m.member}.{k}": v for m in obj.members for k, v in m.fields.items()}
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _disagreement(a, b, bound):
    if a is None or b is None:
        return None if a is b else f"{type(a).__name__} vs {type(b).__name__}"
    a, b = np.asarray(a), np.asarray(b)
    if bound == BITWISE:
        if (a.dtype, a.shape) != (b.dtype, b.shape):
            return f"{a.dtype}{a.shape} vs {b.dtype}{b.shape}"
        return None if a.tobytes() == b.tobytes() else "bytes differ"
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    if bound == REL_L2:
        err = relative_l2(a, b)
        ok = err <= ACCURACY_THRESHOLD
        return None if ok else f"relative L2 {err:.3e} > {ACCURACY_THRESHOLD}"
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    err = float(np.abs(a64 - b64).max()) if a.size else 0.0
    limit = bound.value if isinstance(bound, Abs) else bound * float(np.abs(b64).max(initial=0.0))
    return None if err <= limit else f"max|a-o| = {err:.3e} > {limit:.3e}"


def agree(row, candidate, oracle, case=None) -> None:
    """The one comparator: every field of ``candidate`` against
    ``oracle`` under the row's bound; a failure names the row, the case
    and the field."""
    row = ROWS[row] if isinstance(row, str) else row
    where = f"contract {row.name!r}" + (f" [{row.case_id(case)}]" if case else "")
    _compare(where, candidate, oracle, lambda name: row.bound_of(case, name))


def bitwise(candidate, oracle) -> None:
    """The ``BITWISE`` bound on every field of two results that are no
    row's paths."""
    _compare("bitwise", candidate, oracle, lambda name: BITWISE)


def _compare(where, candidate, oracle, bound_of):
    got, want = fields_of(candidate), fields_of(oracle)
    assert list(got) == list(want), f"{where}: fields {list(got)} vs {list(want)}"
    for name, a in got.items():
        problem = _disagreement(a, want[name], bound_of(name))
        assert problem is None, f"{where} field {name!r}: {problem}"


def _nudged(fields: dict) -> dict:
    """One ulp up on the first element of the first float field."""
    fields = dict(fields)
    name = next(k for k, v in fields.items()
                if v is not None and np.asarray(v).dtype.kind == "f" and np.size(v))
    a = np.array(fields[name], copy=True)
    a.reshape(-1)[0] = np.nextafter(a.reshape(-1)[0], np.inf)
    fields[name] = a
    return fields


def check(name, case, nudge=False):
    """The one runner: both paths of row ``name`` on ``case``, compared;
    returns ``(candidate, oracle)``.  ``nudge`` moves the candidate one
    ulp first (the runner's self-test)."""
    row = ROWS[name]
    candidate, oracle = row.run(case)
    agree(row, _nudged(fields_of(candidate)) if nudge else candidate, oracle, case)
    return candidate, oracle


# -- collection ---------------------------------------------------------------

_COLLECTED = {}     # (row name, case key) -> the collect() selection that runs it


def collect(name, *marks, **where):
    """A test that runs row ``name``'s cases whose axes match ``where``
    (a value or a tuple of values) and keeps an older test id:
    parametrized by the axes that vary among them, plain for one case.
    ``test_contracts.py::test_row`` runs every case no such test runs."""
    row = ROWS[name]
    chosen = [c for c in row.cases()
              if all(c[a] in (v if isinstance(v, tuple) else (v,)) for a, v in where.items())]
    assert chosen, f"row {name!r}: no case matches {where}"
    for c in chosen:
        taken = _COLLECTED.setdefault((name, row.key(c)), where)
        assert taken is where, f"row {name!r} [{row.case_id(c)}] is collected twice"
    if len(chosen) == 1:
        (case,) = chosen

        def test():
            check(name, case)

        marks += _xfail(row, case)
    else:
        @pytest.mark.parametrize("case", [pytest.param(c, id=row.case_id(c, chosen),
                                                       marks=_xfail(row, c)) for c in chosen])
        def test(case):
            check(name, case)

    for mark in (getattr(pytest.mark, name),) + marks:
        test = mark(test)
    # A staticmethod is collected as a plain function at module level and
    # in a class; pytest reads the marks off the object it collects.
    collected = staticmethod(test)
    collected.pytestmark = test.pytestmark
    return collected


def _xfail(row, case):
    reason = row.xfail.get(row.case_id(case))
    return (pytest.mark.xfail(strict=True, reason=reason),) if reason else ()


def uncollected():
    """Every case no :func:`collect` test runs, as ``(row name, case)``
    params marked with the row's name."""
    return [pytest.param(row.name, c, id="-".join(filter(None, (row.name, row.case_id(c)))),
                         marks=(getattr(pytest.mark, row.name),) + _xfail(row, c))
            for row in ROWS.values() for c in row.cases()
            if (row.name, row.key(c)) not in _COLLECTED]


# -- shared fixtures of the paths --------------------------------------------

@functools.lru_cache(maxsize=None)
def mesh(level):
    return build_mesh(level)


def policy(precision):
    """``DP``, ``MIX`` or a one-term map ``<term>-only-<class>`` (MIX with
    one term of that class and every other term of the other)."""
    from repro.precision.policy import GRIST_SENSITIVITY, PrecisionPolicy, TermSensitivity

    pol = PrecisionPolicy(mixed=precision != "DP")
    if "-only-" in precision:
        term, cls = precision.rsplit("-only-", 1)
        sens = TermSensitivity(cls)
        other = next(s for s in TermSensitivity if s is not sens)
        pol.sensitivity = {k: sens if k == term else other for k in GRIST_SENSITIVITY}
    return pol


def _state(name, m, vc):
    from repro.dycore import state as states

    return {"solid-body": states.solid_body_rotation_state,
            "baroclinic": states.baroclinic_wave_state,
            "tropical": states.tropical_profile_state}[name](m, vc)


def _core(level, vc, **config):
    from repro.dycore.solver import DycoreConfig, DynamicalCore

    return DynamicalCore(mesh(level), vc, DycoreConfig(**config))


def _steps(core, state, n):
    for _ in range(n):
        state = core.step(state)
    return state


#: the fields a ``DistributedDycore`` gathers
RANKED = ("ps", "u", "theta")


@contextlib.contextmanager
def ranked(m, vc, config, start, nparts=4, workers=1):
    """A ``DistributedDycore`` with ``start`` scattered over ``nparts``
    ranks on ``workers`` processes, closed on exit."""
    from repro.parallel.driver import DistributedDycore

    d = DistributedDycore(m, vc, config, nparts=nparts, workers=workers)
    try:
        d.scatter(start)
        yield d
    finally:
        d.close()


def gathered(driver) -> dict:
    return dict(zip(RANKED, driver.gather()))


def ranked_run(m, vc, config, start, steps=3, **kw) -> dict:
    """``steps`` steps of :func:`ranked`, gathered."""
    with ranked(m, vc, config, start, **kw) as d:
        d.run(steps)
        return gathered(d)


# -- operator: fused ~ reference, per operator and dtype ----------------------

#: public operator -> (input staggering kinds, a float passed as is;
#: output staggering; the float64 bound of fused against reference —
#: bitwise for the two-point difference/mean kernels, which perform the
#: identical operations in the identical order, scaled-inf-norm where the
#: precomposed matrix folds a normalisation into the weights or reorders
#: a summation)
OPERATORS = {
    "divergence": (("edge",), "cell", 1e-12),
    "gradient": (("cell",), "edge", BITWISE),
    "curl": (("edge",), "vertex", 1e-12),
    "cell_to_edge": (("cell",), "edge", BITWISE),
    "cell_to_edge_upwind": (("cell", "edge"), "edge", BITWISE),
    "vertex_to_edge": (("vertex",), "edge", BITWISE),
    "vertex_to_cell": (("vertex",), "cell", 1e-12),
    "reconstruct_cell_vectors": (("edge",), "cell", 1e-12),
    "tangential_velocity": (("edge",), "edge", 1e-12),
    "kinetic_energy": (("edge",), "cell", 1e-12),
    "laplacian_cell": (("cell",), "cell", 1e-11),
    "laplacian_edge": (("edge",), "edge", 1e-11),
    "vorticity_edge": (("edge",), "edge", 1e-11),
    "momentum_diffusion": (("edge", 3.0e5, 1.1e6), "edge", 1e-11),
}


def operator_fields(m, seed, nlev, dtype=np.float64):
    rng = np.random.default_rng(seed)
    shape = (nlev,) if nlev else ()
    return {kind: rng.normal(size=(n,) + shape).astype(dtype)
            for kind, n in (("edge", m.ne), ("cell", m.nc), ("vertex", m.nv))}


def call_operator(name, m, fields, backend):
    plan = compiled_kernels(m, backend)
    args = [fields[k] if isinstance(k, str) else k for k in OPERATORS[name][0]]
    if name == "momentum_diffusion":    # the coefficients compile into it
        u, nu, nu_div = args
        return plan.momentum_diffusion(u, plan.diffusion_operator(nu, nu_div))
    return getattr(plan, name)(*args)


def _operator(case):
    m, name = mesh(case["level"]), case["operator"]
    fused, ref = {}, {}
    for dtype in (np.float64, np.float32):
        f = operator_fields(m, case.get("seed", 21), case["nlev"], dtype)
        key = np.dtype(dtype).name
        fused[key], ref[key] = (call_operator(name, m, f, b) for b in ("fused", "reference"))
        assert fused[key].dtype == dtype, f"{name}: {key} in, {fused[key].dtype} out"
    return fused, ref


# -- stage: compute_tendencies == the previous stage body ---------------------

#: (seed, wind speed, theta perturbation) states, the range ends included
STAGE_DRAWS = ((0, 0.5, 0.0), (1, 30.0, 5.0), (2, 10.0, 1.0), (3, 3.0, 2.5), (4, 20.0, 0.5),
               (5, 1.0, 4.0), (6, 15.0, 3.0), (7, 0.5, 5.0), (8, 30.0, 0.0), (9, 7.0, 1.5))


@functools.lru_cache(maxsize=None)
def _stage_core(level, backend, precision, mode):
    from repro.dycore.vertical import VerticalCoordinate

    return _core(level, VerticalCoordinate.stretched(8), dt=300.0, stencil_backend=backend,
                 nonhydrostatic=mode == "nonhydrostatic", policy=policy(precision))


def _stage(case):
    from repro.dycore.state import tropical_profile_state
    from tests.test_dycore_stage import _old_compute_tendencies

    core = _stage_core(case["level"], case["backend"], case["precision"], case["mode"])
    several = case["precision"] in ("DP", "MIX") and case["mode"] == "hydrostatic"
    new, old = [], []
    for seed, speed, dtheta in STAGE_DRAWS if several else ((5, 10.0, 1.0),):
        state = tropical_profile_state(core.mesh, core.vcoord)
        rng = np.random.default_rng(seed)
        state.u = speed * rng.normal(size=state.u.shape)
        state.theta = state.theta + dtheta * rng.normal(size=state.theta.shape)
        new.append(core.compute_tendencies(state))
        old.append(_old_compute_tendencies(core, state))
    return new, old


# -- lanes: two lanes == one lane ---------------------------------------------

TRACER_RATIO = 2


@contextlib.contextmanager
def _read_only_stage():
    """Every ``compute_tendencies`` call sees its state's prognostic
    arrays read-only, so a helper-lane term that wrote its input raises
    instead of racing the other lane."""
    from repro.dycore.solver import DynamicalCore

    inner = DynamicalCore.compute_tendencies

    def guarded(self, state):
        arrays = [a for a in (state.ps, state.u, state.theta, state.phi) if a is not None]
        flags = [a.flags.writeable for a in arrays]
        for a in arrays:
            a.flags.writeable = False
        try:
            return inner(self, state)
        finally:
            for a, w in zip(arrays, flags):
                a.flags.writeable = w

    DynamicalCore.compute_tendencies = guarded
    try:
        yield
    finally:
        DynamicalCore.compute_tendencies = inner


def lane_core(level, backend="fused", precision="DP", mode="hydrostatic"):
    from repro.dycore.vertical import VerticalCoordinate

    return _core(level, VerticalCoordinate.stretched(6), dt=300.0, stencil_backend=backend,
                 nonhydrostatic=mode == "nonhydrostatic", policy=policy(precision),
                 tracer_ratio=TRACER_RATIO)


def lane_run(core, lanes):
    """``tracer_ratio + 1`` steps from the same state on ``lanes`` lanes;
    the final state and the spans the run emitted."""
    from repro.dycore import solver
    from repro.dycore.state import tropical_profile_state
    from repro.obs import Tracer, tracing

    saved = solver.LANE_MIN_POINTS
    solver.LANE_MIN_POINTS = 0 if lanes == 2 else 1 << 62
    try:
        assert core.lanes == lanes
        core._steps = 0
        core.flux_acc.reset()
        state = tropical_profile_state(core.mesh, core.vcoord)
        rng = np.random.default_rng(3)
        state.u = 10.0 * rng.normal(size=state.u.shape)
        state.theta = state.theta + rng.normal(size=state.theta.shape)
        for name, q in state.tracers.items():
            state.tracers[name] = q + 1e-4 * rng.random(q.shape)
        with tracing(Tracer()) as tr:
            state = _steps(core, state, TRACER_RATIO + 1)
        return state, tr
    finally:
        solver.LANE_MIN_POINTS = saved


def _lanes(case):
    from repro.obs import SpanKind

    core = lane_core(case["level"], case["backend"], case["precision"], case["mode"])
    with _read_only_stage():
        one, tr1 = lane_run(core, 1)
        two, tr2 = lane_run(core, 2)
    # The one-lane run draws no lane spans; the two-lane run one cpe=1
    # span per stage and per tracer step.
    assert all(s.cpe is None for s in tr1.events)
    lane = [s.name for s in tr2.events if s.cpe == 1]
    assert {s.kind for s in tr2.events if s.cpe == 1} == {SpanKind.LANE}
    assert lane.count("dycore.rk_stage.lane") == 3 * (TRACER_RATIO + 1)
    assert lane.count("dycore.tracer_step.lane") == 1
    assert sorted(s.seq for s in tr2.events) == list(range(len(tr2.events)))
    return two, one


# -- ranks: ranked (owned entities) == serial ---------------------------------

@functools.lru_cache(maxsize=None)
def _serial_run(backend, precision, sponge, scenario):
    """G3L5, 3 steps: the serial core, its start state and its result
    (shared by both worker counts)."""
    from repro.dycore.vertical import VerticalCoordinate

    vc = VerticalCoordinate.uniform(5)
    serial = _core(3, vc, dt=600.0, stencil_backend=backend, sponge_levels=sponge,
                   policy=policy(precision))
    start = _state(scenario, serial.mesh, vc)
    return serial, start, _steps(serial, start.copy(), 3)


def _ranks(case):
    """4 ranks; ``tests/test_parallel.py`` pins other rank counts, step
    counts and plan reuse."""
    serial, start, want = _serial_run(*(case[a] for a in ("backend", "precision", "sponge",
                                                          "scenario")))
    got = ranked_run(serial.mesh, serial.vcoord, serial.config, start, workers=case["workers"])
    return got, {k: getattr(want, k) for k in RANKED}


# -- dycore_backend / coupled_backend: fused ~ reference over whole runs -------

def _dycore_backend(case):
    from repro.dycore.vertical import VerticalCoordinate

    vc = VerticalCoordinate.uniform(6)
    out = []
    for backend in ("fused", "reference"):
        core = _core(2, vc, dt=300.0, stencil_backend=backend, policy=policy(case["precision"]),
                     nonhydrostatic=case["mode"] == "nonhydrostatic")
        out.append(_steps(core, _state("solid-body", core.mesh, vc), 3))
    return tuple(out)


def _coupled_backend(case):
    """The default (fused) coupled model against the reference oracle
    over four tracer and two physics steps."""
    from repro.dycore.vertical import VerticalCoordinate
    from repro.model.config import TABLE3_SCHEMES, scaled_grid_config
    from repro.model.grist import GristModel

    vc, gc = VerticalCoordinate.stretched(10), scaled_grid_config(3, 10)
    assert (gc.tracer_ratio, gc.physics_ratio) == (6, 12)
    out = []
    for backend in ("fused", "reference"):
        model = GristModel(mesh(3), vc, gc, TABLE3_SCHEMES[case["scheme"]],
                           dycore_kwargs={"stencil_backend": backend})
        assert model.coupler.kernels is model.dycore.kernels
        assert model.dycore.kernels.backend == backend
        state = model.run(_state("tropical", model.mesh, vc), 24)
        out.append({**fields_of(state), "dry_mass": np.float64(state.total_dry_mass())})
    return tuple(out)


# -- served: pooled, warm-reset and cached results == the serial oracle --------

def _served(case):
    from repro.serve import ForecastRequest, ForecastScheduler, ModelPool, run_serial_oracle

    req = ForecastRequest(level=2, nlev=8, steps=4, seed=11)
    first = ForecastRequest(level=2, nlev=8, steps=6, seed=12)
    with ForecastScheduler(max_workers=1, pool=ModelPool(max_models=1)) as sched:
        if case["path"] == "warm-reset":
            assert sched.submit(first).result(timeout=120).ok
        got = sched.submit(req).result(timeout=120)
        if case["path"] == "cached":
            got = sched.submit(req).result(timeout=120)
            assert got.cache_hit
        assert got.ok
        assert sched.pool.reused == (case["path"] == "warm-reset")
    return got, run_serial_oracle(req)


# -- ensemble: forked shards == the serial loop --------------------------------

def _ensemble(case):
    from tests.test_ensemble import tiny_runner

    kw = dict(n_members=case["members"], physics_perturbation=case["physics_perturbation"])
    forked = tiny_runner("tropical", workers=2, **kw).run()
    assert len(set(forked.member_digests())) == case["members"]
    return forked, tiny_runner("tropical", **kw).run()


# -- observer: an observed run == the plain run --------------------------------

def coupled_run(seed=7, steps=13):
    """A G2L8 DP-PHY run of a perturbed tropical state; the state and
    the metrics counters it left."""
    from repro.dycore.state import tropical_profile_state
    from repro.dycore.vertical import VerticalCoordinate
    from repro.model.config import SchemeConfig, scaled_grid_config
    from repro.model.grist import GristModel
    from repro.obs import MetricsRegistry, collecting

    vc = VerticalCoordinate.stretched(8)
    model = GristModel(mesh(2), vc, scaled_grid_config(2, 8), SchemeConfig("DP-PHY", False, False))
    state = tropical_profile_state(model.mesh, vc, rh_surface=0.85)
    state.theta = state.theta + 0.3 * np.random.default_rng(seed).normal(size=state.theta.shape)
    with collecting(MetricsRegistry(enabled=True)) as metrics:
        state = model.run(state, steps)
    return state, {k: c.value for k, c in sorted(metrics.counters.items())}


def _sanitized_ranks(sanitize):
    from repro.analysis.sanitizer import sanitize_run
    from repro.dycore.solver import DycoreConfig
    from repro.dycore.vertical import VerticalCoordinate

    vc = VerticalCoordinate.uniform(4)
    with ranked(mesh(2), vc, DycoreConfig(dt=600.0, sponge_levels=2),
                _state("baroclinic", mesh(2), vc), workers=2 if sanitize else 1) as d:
        if sanitize:
            assert sanitize_run(d, steps=3).clean
        else:
            d.run(3)
        return gathered(d)


def _observer(case):
    from repro.obs import Tracer, tracing
    from repro.resilience import chaos
    from repro.resilience.faults import FaultPlan, injecting

    kind = case["observer"]
    if kind == "sanitizer":
        return _sanitized_ranks(True), _sanitized_ranks(False)
    if kind == "chaos":
        run = chaos._integrate(FaultPlan.named("none"), level=3, nlev=8, steps=13, seed=0,
                               checkpoint_every=6, substrate_every=4, nparts=4, max_rollbacks=8)
        assert run["survived"] and run["faults"]["n_fired"] == 0
        model, state = chaos._build_model(3, 8, seed=0)
        return run["state"], model.run(state, 13)
    observed = tracing(Tracer()) if kind == "traced" else injecting(FaultPlan.named("none"), seed=0)
    with observed:
        got, _ = coupled_run()
    return got, coupled_run()[0]


# -- replay: a rerun, a rollback and a restart == the original ------------------

def _replay(case):
    from repro.resilience import chaos

    kind = case["replay"]
    if kind == "rerun":
        (a, ca), (b, cb) = coupled_run(), coupled_run()
        assert coupled_run(seed=8)[0].ps.tobytes() != a.ps.tobytes(), "the seed is not used"
        counters = [{f"counter.{k}": np.int64(v) for k, v in c.items()} for c in (ca, cb)]
        return {**fields_of(a), **counters[0]}, {**fields_of(b), **counters[1]}
    if kind == "rollback":
        model, state = chaos._build_model(2, 8, seed=0)
        state = model.run(state, 3)
        snap = chaos._snapshot(model, state)
        ahead = model.run(state.copy(), 5)
        return model.run(chaos._restore(model, snap), 5), ahead
    # restart: run(6) == run(3) -> save -> load -> run(3)
    from repro.dycore.vertical import VerticalCoordinate
    from repro.model.io import load_state, save_state

    vc = VerticalCoordinate.stretched(6)
    start = _state("solid-body", mesh(2), vc)
    whole = _steps(_core(2, vc, dt=600.0, tracer_ratio=100), start.copy(), 6)
    half = _steps(_core(2, vc, dt=600.0, tracer_ratio=100), start.copy(), 3)
    with tempfile.TemporaryDirectory() as tmp:
        save_state(os.path.join(tmp, "mid.npz"), half)
        half = load_state(os.path.join(tmp, "mid.npz"), mesh(2))
    return _steps(_core(2, vc, dt=600.0, tracer_ratio=100), half, 3), whole


# -- reorder: the BFS-renumbered mesh gives the same results, permuted ----------

@functools.lru_cache(maxsize=None)
def _reordered():
    from repro.grid.reorder import reorder_mesh

    return reorder_mesh(mesh(3))


def _reorder(case):
    name = case["operator"]
    new, perms = _reordered()
    f = operator_fields(mesh(3), 0, 4)
    old = call_operator(name, mesh(3), f, "fused")
    got = call_operator(name, new, {k: v[perms[k]] for k, v in f.items()}, "fused")
    return {name: got}, {name: old[perms[OPERATORS[name][1]]]}


# -- ldcache: the batch replay == the scalar loop -------------------------------

#: (size_bytes, ways, line_bytes) geometries, including the real LDCache.
LDCACHE_GEOMETRIES = (
    (128 * 1024, 4, 256),        # the configured LDCache (128 sets)
    (8 * 1024, 2, 64),           # small: evicts quickly
    (4 * 1024, 1, 128),          # direct-mapped degenerate case
    (16 * 1024, 8, 64),          # high associativity
)


def ldcache_replay(cache_args, streams):
    """Final stats, tags and ages of the scalar loop and the batch replay
    after ``streams`` in turn."""
    from repro.sunway.ldcache import LDCache

    out = []
    for method in ("run_batch", "run"):
        cache = LDCache(*cache_args)
        for stream in streams:
            getattr(cache, method)(stream)
        s = cache.stats
        out.append({"stats": np.array([s.accesses, s.hits, s.misses, s.evictions]),
                    "tags": cache._tags, "age": cache._age})
    return tuple(out)


def _ldcache(case):
    from tests.test_ldcache_properties import random_streams

    runs = [ldcache_replay(case["geometry"], [stream])
            for stream, _ in random_streams(case["seed"])]
    return [b for b, _ in runs], [s for _, s in runs]


# -- net_f32: the float32 clone of a net ~ the float64 net ----------------------

def _net_f32(case):
    from repro.ml.layers import Conv1D, ReLU
    from repro.ml.network import Sequential, cast_network
    from repro.ml.radiation_net import RadiationMLP
    from repro.ml.tendency_net import TendencyCNN

    rng = np.random.default_rng(2 if case["net"] == "conv" else 12345)
    if case["net"] == "conv":
        net = Sequential(Conv1D(3, 8, 3, rng), ReLU(), Conv1D(8, 2, 3, rng))
        x = rng.normal(size=(6, 3, 10))
        y32 = cast_network(net, np.float32).forward(x.astype(np.float32), train=False)
        assert y32.dtype == np.float32
        return {"y": y32}, {"y": net.forward(x, train=False)}
    if case["net"] == "cnn":
        net = TendencyCNN(nlev=8, width=8, n_resunits=1)
        x = rng.normal(size=(40, 5, 8))
        net.fit_normalizers(x, rng.normal(size=(40, 2, 8)))
    else:
        net = RadiationMLP(nlev=6, width=16)
        x = rng.normal(size=(40, 14))
        net.fit_normalizers(x, np.abs(rng.normal(size=(40, 2))) * 100.0)
    ref = net.predict(x)
    net.compile_inference(np.float32)
    out = net.predict(x)
    assert out.dtype == np.float64        # float64 at the suite boundary
    assert case["net"] == "cnn" or (out >= 0.0).all()
    return {"y": out}, {"y": ref}


# -- mix_accuracy: MIX ~ DP within 5 % relative L2 of ps and vor -----------------

def _mix_accuracy(case):
    from repro.dycore.vertical import VerticalCoordinate

    vc = VerticalCoordinate.uniform(8)
    out = []
    for precision in ("MIX", "DP"):
        core = _core(3, vc, dt=600.0, policy=policy(precision))
        state, seen = _state("solid-body", core.mesh, vc), []
        for _ in range(6):
            state = core.run(state, 6)
            d = core.diagnostics(state)
            seen.append({"ps": d["ps"], "vor": d["vor"]})
        out.append(seen)
    mix, dp = out
    assert any(m["ps"].tobytes() != d["ps"].tobytes() for m, d in zip(mix, dp)), "MIX ran in DP"
    return mix, dp


# -- executor_vs_analytic: the SWGOMP executor ~ the analytic perf model ---------

def _executor_vs_analytic(case):
    """The analytic model adds the indirect-gather bandwidth derating and
    the LDCache reuse factor on top of the raw roofline the executor
    charges, so analytic/executed is their quotient (memory-bound
    kernels dominate) — tying Fig. 9's machinery to Figs. 10-11's."""
    from repro.model.config import TABLE2_GRIDS
    from repro.perf.model import PerformanceModel
    from repro.sunway.execution import SWGOMPExecutor

    ex = SWGOMPExecutor(mesh(3), nlev=8)
    executed = ex.execute_step(run_numpy=False).kernel_seconds
    grid, pm = TABLE2_GRIDS[case["grid"]], PerformanceModel()
    nprocs = max(1, round(grid.cells / ex.mesh.nc))   # cells per CG = this mesh
    analytic = pm._kernel_time(grid, nprocs, ex.precision, ex.nlev) / pm.params.work_multiplier
    reuse = pm._reuse_factor(grid.cells / nprocs, ex.nlev, 5.0)
    return ({"ratio": analytic / max(executed, 1e-30)},
            {"ratio": reuse / pm.params.indirect_bandwidth_fraction})


# -- invariants ------------------------------------------------------------------

def _mimetic(case):
    m, kind = mesh(3), case["identity"]
    plan = compiled_kernels(m, case["backend"])
    if kind == "div_sum":
        flux = np.random.default_rng(31).normal(size=(m.ne, 4))
        total = (plan.divergence(flux) * m.cell_area[:, None]).sum(axis=0)
        return {kind: total / m.cell_area.mean()}, {kind: np.zeros(4)}
    if kind == "curl_grad":
        g = plan.gradient(np.random.default_rng(32).normal(size=m.nc))
        zeta = plan.curl(g)
        return {kind: zeta / (np.abs(g).max() / m.de.mean())}, {kind: np.zeros(m.nv)}
    return ({"gradient": plan.gradient(np.full(m.nc, 7.5)),
             "vertex_to_cell": plan.vertex_to_cell(np.full(m.nv, 2.0)),
             "cell_to_edge": plan.cell_to_edge(np.full(m.nc, 3.0))},
            {"gradient": np.zeros(m.ne), "vertex_to_cell": np.full(m.nc, 2.0),
             "cell_to_edge": np.full(m.ne, 3.0)})


def _annihilation(case):
    """``gradient`` and ``laplacian_cell`` of a constant are exact zeros —
    difference before scale — not zeros to round-off."""
    m, nlev = mesh(3), case["nlev"]
    plan = compiled_kernels(m, case["backend"])
    const = np.full((m.nc,) + ((nlev,) if nlev else ()), 300.1, dtype=case["dtype"])
    got = {n: getattr(plan, n)(const) for n in ("gradient", "laplacian_cell")}
    return got, {n: np.zeros_like(v) for n, v in got.items()}


def _dry_mass(case):
    from repro.dycore.vertical import VerticalCoordinate

    vc = VerticalCoordinate.stretched(6)
    core = _core(2, vc, dt=600.0)
    state = _state("solid-body", core.mesh, vc)
    m0, masses = state.total_dry_mass(), []
    for _ in range(3):
        state = core.run(state, 6)
        masses.append(state.total_dry_mass())
    return {"dry_mass": np.array(masses)}, {"dry_mass": np.full(3, m0)}


# -- the table ---------------------------------------------------------------------

def _one_term_maps():
    from repro.precision.policy import GRIST_SENSITIVITY, TermSensitivity

    return tuple(f"{t}-only-{s.value}" for t in sorted(GRIST_SENSITIVITY) for s in TermSensitivity)


ONE_TERM_MAPS = _one_term_maps()
BACKENDS = ("reference", "fused")
_OPS = tuple(sorted(OPERATORS))

_ROWS = (
    Row("operator", ("fused", "reference"),
        lambda case: {"float64": OPERATORS[case["operator"]][2], "float32": F32},
        axes=dict(level=(3, 4), nlev=(0, 6, 8), operator=_OPS),
        sample=tuple(dict(level=3, nlev=n, operator=o) for n in (0, 6) for o in _OPS)
        + tuple(dict(level=4, nlev=8, operator=o) for o in _OPS),
        run=_operator),
    Row("stage", ("compute_tendencies", "the previous stage body"), BITWISE,
        axes=dict(level=(2, 3), backend=BACKENDS, precision=("DP", "MIX") + ONE_TERM_MAPS,
                  mode=("hydrostatic", "nonhydrostatic")),
        sample=tuple(dict(level=lv, backend=b, precision=p, mode="hydrostatic")
                     for lv in (2, 3) for b in BACKENDS for p in ("DP", "MIX"))
        + tuple(dict(level=2, backend="fused", precision=p, mode="nonhydrostatic")
                for p in ("DP", "MIX"))
        + tuple(dict(level=2, backend=b, precision=p, mode="hydrostatic")
                for b in BACKENDS for p in ONE_TERM_MAPS),
        run=_stage),
    Row("lanes", ("two lanes", "one lane"), BITWISE,
        axes=dict(level=(3, 4), backend=BACKENDS, precision=("DP", "MIX"),
                  mode=("hydrostatic", "nonhydrostatic")),
        run=_lanes),
    Row("ranks", ("4 ranks (owned entities)", "serial core"), BITWISE,
        axes=dict(backend=BACKENDS, precision=("DP", "MIX"), workers=(1, 2), sponge=(0, 2),
                  scenario=("solid-body", "baroclinic")),
        run=_ranks),
    Row("dycore_backend", ("fused", "reference"),
        lambda case: 1e-9 if case["precision"] == "DP" else F32,
        axes=dict(precision=("DP", "MIX"), mode=("hydrostatic", "nonhydrostatic")),
        run=_dycore_backend,
        xfail={"MIX-nonhydrostatic": "ROADMAP item 11: w differs by 1.1e-6 scaled after "
               "3 G2L6 solid-body steps, over the 1e-6 float32 bound"}),
    Row("coupled_backend", ("fused", "reference"),
        lambda case: {"*": 1e-10, "dry_mass": 1e-14} if case["scheme"] == "DP-PHY"
        else {"*": F32, "dry_mass": 1e-12},
        axes=dict(scheme=("DP-PHY", "MIX-PHY")), run=_coupled_backend),
    Row("served", ("scheduler result", "run_serial_oracle"), BITWISE,
        axes=dict(path=("pooled", "warm-reset", "cached")), run=_served),
    Row("ensemble", ("forked shards", "serial loop"), BITWISE,
        axes=dict(physics_perturbation=(0.0, 0.2)), run=_ensemble,
        sample=(dict(physics_perturbation=0.0, members=3),
                dict(physics_perturbation=0.2, members=2))),
    Row("observer", ("observed run", "plain run"), BITWISE,
        axes=dict(observer=("traced", "injector", "sanitizer", "chaos")), run=_observer),
    Row("replay", ("replay", "original"), BITWISE,
        axes=dict(replay=("rerun", "rollback", "restart")), run=_replay),
    Row("reorder", ("BFS-renumbered mesh", "original mesh, permuted"), BITWISE,
        axes=dict(operator=_OPS), run=_reorder),
    Row("ldcache", ("run_batch", "run"), BITWISE,
        axes=dict(seed=tuple(range(8)), geometry=LDCACHE_GEOMETRIES), run=_ldcache),
    Row("net_f32", ("float32 clone", "float64 net"), NET_F32,
        axes=dict(net=("conv", "cnn", "mlp")), run=_net_f32),
    Row("mix_accuracy", ("MIX", "DP"), REL_L2, axes={}, run=_mix_accuracy),
    Row("executor_vs_analytic", ("analytic / executed", "reuse / indirect fraction"), 0.25,
        axes=dict(grid=("G6",)), run=_executor_vs_analytic),
    Row("mimetic", ("operator identity", "its exact value"),
        {"div_sum": Abs(1e-6), "curl_grad": Abs(1e-10), "gradient": Abs(1e-18),
         "vertex_to_cell": 1e-7, "cell_to_edge": 1e-7},
        axes=dict(identity=("div_sum", "curl_grad", "constants"), backend=BACKENDS),
        run=_mimetic),
    Row("annihilation", ("operator of a constant", "exact zeros"), Abs(0.0),
        axes=dict(nlev=(0, 5), dtype=("float64", "float32"), backend=BACKENDS),
        run=_annihilation),
    Row("dry_mass", ("dry mass after 6, 12, 18 steps", "initial dry mass"), 1e-13,
        axes={}, run=_dry_mass),
)

ROWS = {row.name: row for row in _ROWS}
