"""Simulation-speed metrics: SDPD.

    "For most performance results, we describe the speed of simulation
    using SDPD (simulated-days-per-day)."  (section 4.3)
"""

from __future__ import annotations

from repro.constants import SECONDS_PER_DAY


def sdpd_from_step_time(step_seconds: float, dt_dyn: float) -> float:
    """Simulated days per wall-clock day.

    ``step_seconds`` is the wall time of one dynamics step (with tracer,
    physics and I/O amortised in); ``dt_dyn`` the simulated seconds it
    advances.
    """
    if step_seconds <= 0.0:
        raise ValueError("step time must be positive")
    steps_per_sim_day = SECONDS_PER_DAY / dt_dyn
    wall_per_sim_day = steps_per_sim_day * step_seconds
    return SECONDS_PER_DAY / wall_per_sim_day


def sdpd_from_trace(tracer, dt_dyn: float) -> float:
    """SDPD of an instrumented run, from its traced DYN_STEP wall times.

    ``tracer`` is a recording :class:`~repro.obs.Tracer` whose events
    include the dycore's ``dyn_step`` spans; the mean wall time per step
    is the measured counterpart of the analytic
    :meth:`~repro.perf.model.PerformanceModel.step_cost`.
    """
    from repro.obs import SpanKind

    steps = [s for s in tracer.events if s.kind is SpanKind.DYN_STEP]
    if not steps:
        raise ValueError("trace contains no dyn_step spans")
    mean_wall = sum(s.wall_seconds for s in steps) / len(steps)
    return sdpd_from_step_time(mean_wall, dt_dyn)
