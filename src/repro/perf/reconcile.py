"""Reconcile traced substrate costs against the analytic perf model.

The repo has two accounts of what a kernel costs:

* the *traced* account — what the simulated runtime actually charged:
  :class:`~repro.sunway.swgomp.JobServer` CHUNK/KERNEL_LAUNCH spans
  recorded by the :mod:`repro.obs` tracer while
  :class:`~repro.sunway.execution.SWGOMPExecutor` drives a step;
* the *predicted* account — what the roofline/LDCache
  :class:`~repro.sunway.kernel.KernelTimer` (the same model
  :class:`~repro.perf.model.PerformanceModel` builds on) says the loop
  should cost before any chunking.

They agree up to chunk quantisation and lane imbalance, so their
relative error per kernel is a cheap consistency gate: a refactor that
silently changes what the runtime charges (or what the model predicts)
shows up here before it corrupts a scaling figure.  :func:`run_profile`
packages the whole thing — an instrumented dycore run plus the
per-kernel reconciliation — for the ``repro profile`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.grid.mesh import Mesh
from repro.obs import SpanKind, Tracer, collecting, get_metrics, tracing
from repro.sunway.execution import SWGOMPExecutor
from repro.sunway.kernel import Engine, Precision


@dataclass
class KernelReconciliation:
    """Predicted vs traced cost of one kernel's target region."""

    kernel: str
    elements: int
    predicted_seconds: float    # KernelTimer loop time + launch overhead
    traced_seconds: float       # region span sim time + launch instant
    relative_error: float       # |traced - predicted| / predicted

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "elements": self.elements,
            "predicted_seconds": self.predicted_seconds,
            "traced_seconds": self.traced_seconds,
            "relative_error": self.relative_error,
        }


def reconcile_kernels(
    mesh: Mesh,
    nlev: int,
    precision: Precision = Precision.MIXED,
    schedule: str = "static",
    tracer: Tracer | None = None,
) -> list[KernelReconciliation]:
    """Run every registered kernel traced; compare with the timer model.

    Returns one :class:`KernelReconciliation` per ``MAJOR_KERNELS``
    entry.  The traced side is read back from the tracer's span record
    (never from executor return values), so this also exercises the
    span pipeline end to end.
    """
    from repro.dycore.kernels import MAJOR_KERNELS

    ex = SWGOMPExecutor(mesh, nlev, precision=precision)
    if tracer is None:
        tracer = Tracer(enabled=True)
    ex.server.tracer = tracer
    ex.execute_step(run_numpy=False, schedule=schedule)

    # Traced sim cost per kernel: the named region span + launch instant.
    region_sim: dict[str, float] = {}
    launch_sim: dict[str, float] = {}
    for span in tracer.events:
        if span.kind is not SpanKind.KERNEL_LAUNCH:
            continue
        if span.name.endswith(".launch"):
            name = span.name[: -len(".launch")]
            launch_sim[name] = launch_sim.get(name, 0.0) + (span.sim_seconds or 0.0)
        elif span.name in MAJOR_KERNELS:
            region_sim[span.name] = (
                region_sim.get(span.name, 0.0) + (span.sim_seconds or 0.0)
            )

    out = []
    for name, reg in MAJOR_KERNELS.items():
        n = (mesh.ne if reg.element == "edge" else mesh.nc) * nlev
        predicted = (
            ex.timer.time(
                reg.spec, n, Engine.CPE_ARRAY, precision,
                ex.distributed_addresses,
            ).seconds
            + ex.launch_overhead
        )
        traced = region_sim.get(name, 0.0) + launch_sim.get(name, 0.0)
        rel = abs(traced - predicted) / predicted if predicted > 0 else 0.0
        out.append(
            KernelReconciliation(
                kernel=name,
                elements=n,
                predicted_seconds=predicted,
                traced_seconds=traced,
                relative_error=rel,
            )
        )
    return out


def run_profile(
    level: int = 3,
    nlev: int = 8,
    steps: int | None = None,
    seed: int = 0,
    compare_model: bool = False,
    precision: Precision = Precision.MIXED,
) -> dict:
    """Instrumented dycore run + optional model reconciliation.

    Runs ``steps`` dynamics steps (default: one tracer ratio, so the
    trace includes a TRACER_STEP) of the G-``level`` dycore with the
    global tracer and metrics registry live, then returns everything the
    ``repro profile`` CLI needs:

    ``tracer``          the recording tracer (for Chrome-trace export);
    ``aggregate``       per-(kind, name) span statistics;
    ``metrics``         the metrics-registry snapshot;
    ``reconciliation``  per-kernel predicted-vs-traced table (only when
                        ``compare_model``).
    """
    import numpy as np

    from repro.dycore.solver import DycoreConfig, DynamicalCore
    from repro.dycore.state import tropical_profile_state
    from repro.dycore.vertical import VerticalCoordinate
    from repro.grid import build_mesh
    from repro.model.config import scaled_grid_config

    mesh = build_mesh(level)
    vc = VerticalCoordinate.stretched(nlev)
    gc = scaled_grid_config(level, nlev)
    if steps is None:
        steps = gc.tracer_ratio
    dycore = DynamicalCore(
        mesh, vc, DycoreConfig(dt=gc.dt_dyn, tracer_ratio=gc.tracer_ratio)
    )
    state = tropical_profile_state(mesh, vc, rh_surface=0.85)
    rng = np.random.default_rng(seed)
    state.theta = state.theta + 0.3 * rng.normal(size=state.theta.shape)

    tracer = Tracer(enabled=True)
    with tracing(tracer), collecting():
        for _ in range(steps):
            state = dycore.step(state)
        metrics = get_metrics().snapshot()
        if compare_model:
            recon = reconcile_kernels(
                mesh, nlev, precision=precision, tracer=tracer
            )

    aggregate = {
        f"{kind}:{name}": stats.to_dict()
        for (kind, name), stats in tracer.aggregate().items()
    }
    result = {
        "config": {
            "level": level, "nlev": nlev, "steps": steps, "seed": seed,
            "dt_dyn": gc.dt_dyn, "tracer_ratio": gc.tracer_ratio,
            "cells": mesh.nc, "edges": mesh.ne,
            "stencil_backend": dycore.config.stencil_backend,
            "stage_lanes": dycore.lanes,
        },
        "tracer": tracer,
        "n_spans": len(tracer),
        "aggregate": aggregate,
        "metrics": metrics,
    }
    if compare_model:
        result["reconciliation"] = [r.to_dict() for r in recon]
        result["max_relative_error"] = max(
            (r.relative_error for r in recon), default=0.0
        )
    return result
