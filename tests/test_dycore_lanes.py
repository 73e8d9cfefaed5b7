"""The two-lane dynamics step against the one-lane step, byte for byte.

A core whose fields have at least ``solver.LANE_MIN_POINTS`` points, on
a host with two CPUs, runs the independent half of each RK stage and
every second tracer on a helper thread that lives only inside
``DynamicalCore.step``.  The tests lower the constant so G3/G4 meshes
take that path and compare whole steps (through a tracer step) with the
one-lane path over {``reference``, ``fused``} × {DP, MIX} ×
{hydrostatic, nonhydrostatic}.  While a stage runs, the state's ``ps``,
``u``, ``theta`` and ``phi`` are read-only, so a helper-lane term that
wrote its input would raise instead of racing the other lane.
"""

import os
import threading
import warnings

import numpy as np
import pytest

from repro.dycore import solver
from repro.dycore import tendencies as tend
from repro.dycore.solver import DycoreConfig, DynamicalCore
from repro.dycore.state import tropical_profile_state
from repro.dycore.vertical import VerticalCoordinate
from repro.grid import build_mesh
from repro.obs import SpanKind, Tracer, tracing
from repro.precision.policy import PrecisionPolicy

TWO_CPUS = len(os.sched_getaffinity(0)) >= 2 if hasattr(os, "sched_getaffinity") else False

pytestmark = pytest.mark.skipif(not TWO_CPUS, reason="two lanes need two CPUs")

TRACER_RATIO = 2


@pytest.fixture(scope="module")
def mesh_g4():
    return build_mesh(4)


@pytest.fixture()
def read_only_stage(monkeypatch):
    """Every ``compute_tendencies`` call sees its state's prognostic
    arrays read-only; the flags are restored when the stage returns."""
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

    monkeypatch.setattr(DynamicalCore, "compute_tendencies", guarded)


def _state(mesh, vc, seed=3):
    state = tropical_profile_state(mesh, vc)
    rng = np.random.default_rng(seed)
    state.u = 10.0 * rng.normal(size=state.u.shape)
    state.theta = state.theta + rng.normal(size=state.theta.shape)
    for name, q in state.tracers.items():
        state.tracers[name] = q + 1e-4 * rng.random(q.shape)
    return state


def _core(mesh, backend="fused", mixed=False, nonhydrostatic=False):
    return DynamicalCore(
        mesh, VerticalCoordinate.stretched(6),
        DycoreConfig(dt=300.0, stencil_backend=backend, nonhydrostatic=nonhydrostatic,
                     policy=PrecisionPolicy(mixed=mixed), tracer_ratio=TRACER_RATIO),
    )


def _run(core, monkeypatch, lanes):
    """``tracer_ratio + 1`` steps from the same state on ``lanes`` lanes;
    the final state and the spans the run emitted."""
    monkeypatch.setattr(solver, "LANE_MIN_POINTS", 0 if lanes == 2 else 1 << 62)
    assert core.lanes == lanes
    core._steps = 0
    core.flux_acc.reset()
    state = _state(core.mesh, core.vcoord)
    with tracing(Tracer()) as tr:
        for _ in range(TRACER_RATIO + 1):
            state = core.step(state)
    return state, tr


def _assert_same_state(a, b):
    names = ["ps", "u", "theta", "phi", "w"]
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert list(a.tracers) == list(b.tracers)
    for name in a.tracers:
        assert a.tracers[name].tobytes() == b.tracers[name].tobytes(), name


@pytest.mark.usefixtures("read_only_stage")
@pytest.mark.parametrize("nonhydrostatic", [False, True], ids=["hydrostatic", "nonhydrostatic"])
@pytest.mark.parametrize("mixed", [False, True], ids=["DP", "MIX"])
@pytest.mark.parametrize("backend", ["reference", "fused"])
@pytest.mark.parametrize("level", [3, 4])
def test_two_lanes_match_one_lane_bitwise(
    mesh_g3, mesh_g4, monkeypatch, level, backend, mixed, nonhydrostatic
):
    core = _core(mesh_g3 if level == 3 else mesh_g4, backend, mixed, nonhydrostatic)
    one, tr1 = _run(core, monkeypatch, lanes=1)
    two, tr2 = _run(core, monkeypatch, lanes=2)
    _assert_same_state(one, two)
    # The one-lane run draws the same spans as before the helper existed;
    # the two-lane run adds one cpe=1 span per stage and per tracer step.
    assert all(s.cpe is None for s in tr1.events)
    lane = [s for s in tr2.events if s.cpe == 1]
    assert {s.kind for s in lane} == {SpanKind.LANE}
    rk = 3 * (TRACER_RATIO + 1)
    assert [s.name for s in lane].count("dycore.rk_stage.lane") == rk
    assert [s.name for s in lane].count("dycore.tracer_step.lane") == 1
    assert sorted(s.seq for s in tr2.events) == list(range(len(tr2.events)))


def test_helper_threads_are_joined_by_step(mesh_g3, monkeypatch):
    core = _core(mesh_g3)
    before = threading.active_count()
    _run(core, monkeypatch, lanes=2)
    assert threading.active_count() == before
    assert not [t for t in threading.enumerate() if t.name.startswith("dycore-lane")]


def test_helper_warning_comes_back_through_result(mesh_g3, monkeypatch):
    """Under an error filter, a warning on the helper lane reaches the
    caller of ``step`` by name, and the helper thread is still joined."""
    inner = tend.calc_coriolis_term

    def warns(*args, **kwargs):
        assert threading.current_thread() is not threading.main_thread()
        warnings.warn("helper-lane warning", RuntimeWarning)
        return inner(*args, **kwargs)

    monkeypatch.setattr(tend, "calc_coriolis_term", warns)
    core = _core(mesh_g3)
    before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="helper-lane warning"):
            _run(core, monkeypatch, lanes=2)
    assert threading.active_count() == before


def test_helper_lane_runs_in_the_callers_numpy_error_state(mesh_g3, monkeypatch):
    """``np.errstate`` is context-local; the helper runs each piece in a
    copy of the submitting context, so a raise set by the caller holds
    on the helper lane too."""
    monkeypatch.setattr(solver, "LANE_MIN_POINTS", 0)
    core = _core(mesh_g3)
    with np.errstate(divide="raise"), core._step_lanes():
        assert core._lane is not solver._ONE_LANE
        with pytest.raises(FloatingPointError):
            core._lane.submit("probe", np.divide, 1.0, np.zeros(3)).result()


def test_lane_rule(monkeypatch):
    monkeypatch.setattr(solver, "LANE_MIN_POINTS", 100)
    assert solver.step_lanes(10, 10) == 2
    assert solver.step_lanes(10, 9) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert solver.step_lanes(10, 10) == 1
