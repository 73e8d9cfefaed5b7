"""Golden-trace regression test of the instrumented dycore timestep.

A fixed-seed G3 run must emit exactly this ordered span sequence.  The
sequence is the observable contract of the timestep structure (RK3 loop,
hydrostatic vertical solve, sponge, amortised tracer step): a refactor
that reorders, drops or duplicates a stage shows up here as a diff
against the literal below, not as a silent change in some figure.
"""

import numpy as np
import pytest

from repro.dycore.solver import DycoreConfig, DynamicalCore
from repro.dycore.state import tropical_profile_state
from repro.dycore.vertical import VerticalCoordinate
from repro.model.config import scaled_grid_config
from repro.obs import SpanKind, Tracer, tracing
from tests import contracts

#: One hydrostatic dynamics step: RK3, vertical solve, sponge.
STEP_SEQUENCE = [
    ("dyn_step", "dycore.step"),
    ("rk_stage", "dycore.rk_stage"),
    ("rk_stage", "dycore.rk_stage"),
    ("rk_stage", "dycore.rk_stage"),
    ("vertical_solve", "dycore.hydrostatic_phi"),
    ("sponge", "dycore.sponge"),
]

#: A full G3 tracer window (tracer_ratio = 6 dynamics steps): six
#: dynamics steps, then the amortised tracer transport step.
GOLDEN_SEQUENCE = STEP_SEQUENCE * 6 + [("tracer_step", "dycore.tracer_step")]


@pytest.fixture(scope="module")
def traced_run(mesh_g3):
    vc = VerticalCoordinate.stretched(8)
    gc = scaled_grid_config(3, 8)
    assert gc.tracer_ratio == 6        # the literal above assumes this
    dycore = DynamicalCore(
        mesh_g3, vc, DycoreConfig(dt=gc.dt_dyn, tracer_ratio=gc.tracer_ratio)
    )
    state = tropical_profile_state(mesh_g3, vc, rh_surface=0.85)
    rng = np.random.default_rng(0)
    state.theta = state.theta + 0.3 * rng.normal(size=state.theta.shape)
    tracer = Tracer()
    with tracing(tracer):
        for _ in range(gc.tracer_ratio):
            state = dycore.step(state)
    return tracer, state


def test_golden_span_sequence(traced_run):
    tracer, _ = traced_run
    assert tracer.span_sequence() == GOLDEN_SEQUENCE


def test_golden_sequence_stable_across_reruns(mesh_g3, traced_run):
    """Same seed, fresh solver: byte-identical sequence and step args."""
    vc = VerticalCoordinate.stretched(8)
    gc = scaled_grid_config(3, 8)
    dycore = DynamicalCore(
        mesh_g3, vc, DycoreConfig(dt=gc.dt_dyn, tracer_ratio=gc.tracer_ratio)
    )
    state = tropical_profile_state(mesh_g3, vc, rh_surface=0.85)
    rng = np.random.default_rng(0)
    state.theta = state.theta + 0.3 * rng.normal(size=state.theta.shape)
    tracer = Tracer()
    with tracing(tracer):
        for _ in range(gc.tracer_ratio):
            state = dycore.step(state)
    ref, _ = traced_run
    assert tracer.span_sequence() == ref.span_sequence()


def test_span_args_identify_steps_and_stages(traced_run):
    tracer, _ = traced_run
    steps = [s for s in tracer.events if s.kind is SpanKind.DYN_STEP]
    assert [s.args["step"] for s in sorted(steps, key=lambda s: s.seq)] == list(range(6))
    stages = [s for s in tracer.events if s.kind is SpanKind.RK_STAGE]
    assert {s.args["stage"] for s in stages} == {1, 2, 3}
    (tr_step,) = [s for s in tracer.events if s.kind is SpanKind.TRACER_STEP]
    assert tr_step.args["n_tracers"] >= 1


def test_untraced_run_bit_identical(mesh_g3, traced_run):
    """Tracing must not perturb the integration: the same run with the
    default disabled tracer produces bit-identical state."""
    _, traced_state = traced_run
    vc = VerticalCoordinate.stretched(8)
    gc = scaled_grid_config(3, 8)
    dycore = DynamicalCore(
        mesh_g3, vc, DycoreConfig(dt=gc.dt_dyn, tracer_ratio=gc.tracer_ratio)
    )
    state = tropical_profile_state(mesh_g3, vc, rh_surface=0.85)
    rng = np.random.default_rng(0)
    state.theta = state.theta + 0.3 * rng.normal(size=state.theta.shape)
    for _ in range(gc.tracer_ratio):
        state = dycore.step(state)
    contracts.agree("observer", traced_state, state)
