"""The two-lane dynamics step against the one-lane step, byte for byte.

A core whose fields have at least ``solver.LANE_MIN_POINTS`` points, on
a host with two CPUs, splits each step by prognostic field: a helper
thread that lives only inside ``DynamicalCore.step`` is the momentum
lane (it updates ``u``, and carries every second tracer), the caller the
mass lane (``ps``, ``theta``, ``phi``, ``w``).  The tests lower the
constant so G3/G4 meshes take that path: whole steps (through a tracer
step) against the one-lane path are the ``lanes`` row of
``tests/contracts.py``, over G3/G4 × {``reference``, ``fused``} × {DP,
MIX} × {hydrostatic, nonhydrostatic}, plus two schedules that hold one
lane at the other's hand-offs, with every stage body barred from the
fields its lane does not update.  The tests here pin that bar, the
helper thread's lifetime, warnings and NumPy error state.
"""

import os
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.dycore import solver
from repro.dycore import tendencies as tend
from tests import contracts
from tests.contracts import lane_core, lane_run

pytestmark = [pytest.mark.lanes,
              pytest.mark.skipif(not contracts.TWO_CPUS, reason="two lanes need two CPUs")]

test_two_lanes_match_one_lane_bitwise = contracts.collect("lanes", schedule="free")
test_held_schedules_match_one_lane_bitwise = contracts.collect(
    "lanes", schedule=tuple(contracts.HELD))


@pytest.mark.parametrize("lanes", [1, 2])
def test_momentum_lane_writing_theta_fails_by_name(monkeypatch, lanes):
    inner = solver.DynamicalCore._u_terms

    def writes_theta(self, s):
        s.theta[0, 0] = s.theta[0, 0]
        return inner(self, s)

    monkeypatch.setattr(solver.DynamicalCore, "_u_terms", writes_theta)
    with contracts.lane_ownership(), \
            pytest.raises(AssertionError, match="the momentum lane wrote theta"):
        lane_run(lane_core(3), lanes)


def test_helper_threads_are_joined_by_step():
    core = lane_core(3)
    before = threading.active_count()
    lane_run(core, lanes=2)
    assert threading.active_count() == before
    assert not [t for t in threading.enumerate() if t.name.startswith("dycore-lane")]


def test_helper_warning_comes_back_through_result(monkeypatch):
    """Under an error filter, a warning on the helper lane reaches the
    caller of ``step`` by name, and the helper thread is still joined."""
    inner = tend.calc_coriolis_term

    def warns(*args, **kwargs):
        assert threading.current_thread() is not threading.main_thread()
        warnings.warn("helper-lane warning", RuntimeWarning)
        return inner(*args, **kwargs)

    monkeypatch.setattr(tend, "calc_coriolis_term", warns)
    core = lane_core(3)
    before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="helper-lane warning"):
            lane_run(core, lanes=2)
    assert threading.active_count() == before


def test_helper_lane_runs_in_the_callers_numpy_error_state(monkeypatch):
    """``np.errstate`` is context-local; the helper runs each piece in a
    copy of the submitting context, so a raise set by the caller holds
    on the helper lane too."""
    monkeypatch.setattr(solver, "LANE_MIN_POINTS", 0)
    core = lane_core(3)
    with np.errstate(divide="raise"), core._step_lanes():
        assert core._lane is not None
        with pytest.raises(FloatingPointError):
            core._lane.submit("probe", np.divide, 1.0, np.zeros(3)).result()


def test_lane_rule(monkeypatch):
    monkeypatch.setattr(solver, "LANE_MIN_POINTS", 100)
    assert solver.step_lanes(10, 10) == 2
    assert solver.step_lanes(10, 9) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert solver.step_lanes(10, 10) == 1


def test_one_lane_step_starts_no_thread_and_makes_no_future(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-lane step made a Future or a thread pool")

    monkeypatch.setattr(solver, "Future", refuse)
    monkeypatch.setattr(solver, "ThreadPoolExecutor", refuse)
    before = threading.active_count()
    lane_run(lane_core(3), lanes=1)
    assert threading.active_count() == before


def test_mass_lane_error_ends_the_momentum_lane(monkeypatch):
    """A mass-lane body that raises before its hand-off reaches the caller
    of ``step``; the momentum lane waiting for it ends, and is joined."""
    def fails(self, s, p_mid, phi_mid):
        raise FloatingPointError("mass lane failed")

    monkeypatch.setattr(solver.DynamicalCore, "_pgf", fails)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="mass lane failed"):
        lane_run(lane_core(3), lanes=2)
    assert threading.active_count() == before


def test_two_lanes_match_one_lane_under_frequent_thread_switches():
    """The hand-offs and the per-stage record both lanes fill hold when
    the interpreter switches threads every few microseconds."""
    core = lane_core(3)
    one, _ = lane_run(core, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        two, _ = lane_run(core, 2)
    finally:
        sys.setswitchinterval(interval)
    contracts.bitwise(two, one)
