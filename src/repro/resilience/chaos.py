"""The chaos harness: a short coupled integration under a fault plan.

Drives every fault site of the simulated substrate in one run:

* the **coupled model** (the registered ``tropical`` scenario, whose
  :class:`~repro.resilience.recovery.ResilientPhysics` suite is given a
  fallback here) exercises the ML-blowup fallback and the
  checkpoint/rollback ladder;
* a **substrate shadow** runs alongside it each ``substrate_every``
  steps: a decomposed halo exchange over scattered copies of the state
  (drop/corrupt/delay + CRC retransmit), one SWGOMP kernel-set launch
  (straggler/failed CPE chunks), and one MAIN->LDM omnicopy staging
  (DMA errors).  The shadow never mutates model state, so with an
  empty fault plan the chaos run is bitwise identical to a plain
  integration.

The report compares the faulted run against a fault-free twin with the
same seed: a surviving run must recover *every* injected fault, and —
because every recovery rung restores bit-exact data — ends with the
twin's ``state_digest`` (every prognostic field, byte for byte).  The
zero-fault run against a plain integration is the ``observer`` row of
the test suite's contract table, the rollback replay its ``replay`` row.
"""

from __future__ import annotations

import numpy as np

from repro.obs import MetricsRegistry, Tracer, collecting, set_tracer
from repro.resilience.faults import FaultPlan, injecting
from repro.resilience.recovery import (
    CheckpointStore,
    RetryExhausted,
    StepFailure,
)


def _build_model(level: int, nlev: int, seed: int):
    from repro.ensemble.scenarios import build_scenario_model, get_scenario
    from repro.physics.column import PhysicsSuite

    scenario = get_scenario("tropical")
    model = build_scenario_model(scenario, level, nlev, "DP-PHY")
    # Primary and fallback share the surface and class: a degraded step
    # restores the slab and hands over the radiation cadence, so it is
    # exactly the step the primary alone would have taken.
    physics = model.physics
    physics.fallback = PhysicsSuite(
        model.mesh, model.vcoord, model.surface, config=physics.primary.config
    )
    state = scenario.base_state(model.mesh, model.vcoord)
    rng = np.random.default_rng(seed)
    state.theta = state.theta + 0.3 * rng.normal(size=state.theta.shape)
    return model, state


class _SubstrateShadow:
    """Per-step exercise of the substrate fault sites.

    Operates on scattered *copies* of the initial state and scratch LDM
    buffers — pure shadow work whose only couplings to the model run are
    the shared injector occurrence counters.
    """

    def __init__(self, model, state, nparts: int, seed: int):
        from repro.comm.message import Communicator
        from repro.parallel.exchange import EdgeCellExchanger
        from repro.parallel.localmesh import build_local_meshes
        from repro.partition.decomposition import decompose
        from repro.partition.graph import mesh_cell_graph
        from repro.partition.metis import partition_graph
        from repro.sunway.execution import SWGOMPExecutor

        mesh = model.mesh
        part = partition_graph(mesh_cell_graph(mesh), nparts, seed=seed)
        subs = decompose(mesh, nparts, part=part)
        locals_ = build_local_meshes(mesh, subs, part)
        self.ps = [lm.scatter_cell_field(state.ps) for lm in locals_]
        self.theta = [lm.scatter_cell_field(state.theta) for lm in locals_]
        self.u = [lm.scatter_edge_field(state.u) for lm in locals_]
        # Reference copies: owned entries never change and halos are
        # rewritten from owned, so a recovered exchange must reproduce
        # these arrays exactly.
        self.ref_ps = [a.copy() for a in self.ps]
        self.ref_theta = [a.copy() for a in self.theta]
        self.ref_u = [a.copy() for a in self.u]
        self.exchanger = EdgeCellExchanger(locals_, Communicator(nparts))
        self.exchanger.register_cell("ps", self.ps)
        self.exchanger.register_cell("theta", self.theta)
        self.exchanger.register_edge("u", self.u)
        self.executor = SWGOMPExecutor(mesh, state.nlev)
        # An LDM staging buffer sized well under the 128 KB user half.
        n_stage = min(mesh.nc, 256)
        self._stage_src = state.theta[:n_stage].copy()
        self._stage_dst = np.empty_like(self._stage_src)
        self.exchanges = 0
        self.kernel_steps = 0
        self.dma_copies = 0

    def step(self) -> None:
        from repro.sunway.dma import MemorySpace, omnicopy

        # Halo exchange under faults, then verify the recovery was exact.
        self.exchanger.exchange()
        self.exchanges += 1
        for got, ref in zip(
            self.ps + self.theta + self.u,
            self.ref_ps + self.ref_theta + self.ref_u,
        ):
            if not np.array_equal(got, ref):
                raise StepFailure(
                    "halo exchange delivered wrong bytes despite CRC "
                    "verification — unrecovered corruption"
                )
        # One kernel-set launch on the simulated CPE array (cost model
        # only: the chunks are straggler / failed-CPE fault sites).
        self.executor.execute_step(run_numpy=False)
        self.kernel_steps += 1
        # One MAIN -> LDM staging (the DMA fault site).
        omnicopy(
            self._stage_dst, self._stage_src,
            dst_space=MemorySpace.LDM, src_space=MemorySpace.MAIN,
        )
        self.dma_copies += 1


def _snapshot(model, state) -> dict:
    # The model owns the mutable-side-store snapshot (step counters,
    # tracer-window flux accumulator, surface slab, radiation cadence —
    # see GristModel.snapshot_mutable); the checkpoint pairs it with a
    # bit-exact state copy.
    return {"state": state.copy(), **model.snapshot_mutable()}


def _restore(model, payload: dict):
    model.restore_mutable(payload)
    return payload["state"].copy()


def _integrate(
    plan: FaultPlan,
    level: int,
    nlev: int,
    steps: int,
    seed: int,
    checkpoint_every: int,
    substrate_every: int,
    nparts: int,
    max_rollbacks: int,
) -> dict:
    """One chaos integration under ``plan``; returns state + accounting."""
    model, state = _build_model(level, nlev, seed)
    shadow = _SubstrateShadow(model, state, nparts=nparts, seed=seed)
    store = CheckpointStore(keep=3)
    survived = True
    failure = None
    rollbacks = 0
    step = 0
    with injecting(plan, seed=seed) as inj:
        while step < steps:
            if checkpoint_every and step % checkpoint_every == 0:
                store.save(step, _snapshot(model, state))
            try:
                if substrate_every and step % substrate_every == 0:
                    shadow.step()
                state = model.run(state, 1)
                step += 1
            except (StepFailure, RetryExhausted) as exc:
                rollbacks += 1
                if rollbacks > max_rollbacks or len(store) == 0:
                    survived = False
                    failure = f"{type(exc).__name__}: {exc}"
                    break
                ck_step, payload = store.latest()
                state = _restore(model, payload)
                step = ck_step
    summary = inj.summary()
    return {
        "state": state,
        "survived": survived and summary["n_unrecovered"] == 0,
        "failure": failure,
        "steps_completed": step,
        "rollbacks": rollbacks,
        "checkpoints": store.saves,
        "physics_fallbacks": model.physics.fallbacks,
        "exchange": {
            "retransmits": shadow.exchanger.retransmits,
            "crc_failures": shadow.exchanger.crc_failures,
            "exchanges": shadow.exchanges,
        },
        "faults": summary,
    }


def run_chaos(
    plan: FaultPlan | str = "smoke",
    level: int = 3,
    nlev: int = 8,
    steps: int = 24,
    seed: int = 0,
    checkpoint_every: int = 6,
    substrate_every: int = 4,
    nparts: int = 4,
    max_rollbacks: int = 8,
    include_baseline: bool = True,
    tracer: Tracer | None = None,
) -> dict:
    """Run a chaos integration and report survival, recovery and drift.

    ``include_baseline`` re-runs the identical configuration under the
    empty plan and reports the faulted run's drift against it; because
    every recovery rung is bit-exact, a surviving run's drift is zero.
    """
    if isinstance(plan, str):
        plan = FaultPlan.named(plan)
    prev_tracer = set_tracer(tracer) if tracer is not None else None
    try:
        with collecting(MetricsRegistry(enabled=True)) as metrics:
            result = _integrate(
                plan, level, nlev, steps, seed,
                checkpoint_every, substrate_every, nparts, max_rollbacks,
            )
        snap = metrics.snapshot()
        # Host wall-clock histograms vary run to run; everything else in
        # the report is simulated/counted and must replay bit-identically
        # (the rerun-determinism contract the tests pin).
        snap["histograms"] = {
            k: v for k, v in snap["histograms"].items() if "wall" not in k
        }
        result["metrics"] = snap
    finally:
        if prev_tracer is not None:
            set_tracer(prev_tracer)

    state = result.pop("state")
    report = {
        "plan": plan.name,
        "seed": seed,
        "level": level,
        "nlev": nlev,
        "steps": steps,
        **result,
    }
    if include_baseline:
        from repro.serve.request import state_digest

        baseline = _integrate(
            FaultPlan.named("none"), level, nlev, steps, seed,
            checkpoint_every, substrate_every, nparts, max_rollbacks,
        )
        bstate = baseline["state"]
        report["drift"] = {
            "ps_max_abs": float(np.abs(state.ps - bstate.ps).max()),
            "u_max_abs": float(np.abs(state.u - bstate.u).max()),
            "theta_max_abs": float(np.abs(state.theta - bstate.theta).max()),
        }
        report["bitwise_identical"] = state_digest(state) == state_digest(bstate)
    return report


def render_report(report: dict) -> str:
    """Human-readable chaos report."""
    lines = [
        f"chaos run: plan={report['plan']} seed={report['seed']} "
        f"G{report['level']}L{report['nlev']} x {report['steps']} steps",
        f"  survived: {report['survived']}"
        + (f"  ({report['failure']})" if report.get("failure") else ""),
        f"  steps completed: {report['steps_completed']}  "
        f"rollbacks: {report['rollbacks']}  "
        f"checkpoints: {report['checkpoints']}",
        f"  physics fallbacks: {report['physics_fallbacks']}  "
        f"exchange retransmits: {report['exchange']['retransmits']}  "
        f"crc failures: {report['exchange']['crc_failures']}",
    ]
    faults = report["faults"]
    fired = ", ".join(f"{k}:{v}" for k, v in faults["fired"].items()) or "none"
    rec = ", ".join(
        f"{k}:{v}" for k, v in faults["recovered_by_action"].items()
    ) or "none"
    lines.append(f"  faults fired: {fired}")
    lines.append(f"  recoveries: {rec}")
    lines.append(
        f"  unrecovered: {faults['n_unrecovered']}"
    )
    if "drift" in report:
        d = report["drift"]
        lines.append(
            f"  drift vs fault-free twin: ps {d['ps_max_abs']:.3e}  "
            f"u {d['u_max_abs']:.3e}  theta {d['theta_max_abs']:.3e}  "
            f"bitwise identical: {report['bitwise_identical']}"
        )
    return "\n".join(lines)


__all__ = ["run_chaos", "render_report"]
