"""The two-lane dynamics step against the one-lane step, byte for byte.

A core whose fields have at least ``solver.LANE_MIN_POINTS`` points, on
a host with two CPUs, runs the independent half of each RK stage and
every second tracer on a helper thread that lives only inside
``DynamicalCore.step``.  The tests lower the constant so G3/G4 meshes
take that path: whole steps (through a tracer step) against the one-lane
path are the ``lanes`` row of ``tests/contracts.py``, over G3/G4 ×
{``reference``, ``fused``} × {DP, MIX} × {hydrostatic, nonhydrostatic},
with the state read-only while a stage runs.  The tests here pin the
helper thread's lifetime, warnings and NumPy error state.
"""

import os
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

test_two_lanes_match_one_lane_bitwise = contracts.collect("lanes")


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
        assert core._lane is not solver._ONE_LANE
        with pytest.raises(FloatingPointError):
            core._lane.submit("probe", np.divide, 1.0, np.zeros(3)).result()


def test_lane_rule(monkeypatch):
    monkeypatch.setattr(solver, "LANE_MIN_POINTS", 100)
    assert solver.step_lanes(10, 10) == 2
    assert solver.step_lanes(10, 9) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert solver.step_lanes(10, 10) == 1
