"""Isolated layer probes: the per-layer half of the ledger.

Each probe times calls into one layer's *public* functions from here —
nothing under ``src/`` is instrumented — on the inputs of the workload
that exercises that layer (G5L10 tropical for grid/partition/parallel/
dycore/physics, the G3L10 paper-size network for ml, G3L8 requests for
serve).  A timing is the best of ``sizes.reps`` isolated calls after one
warm-up call; counts are exact.  Every probe runs in every traced run,
whatever workload was selected, so each per-layer name always carries a
measured value.

Probes build their own meshes: ``DynamicalCore(stencil_backend=...)``
binds the backend to the mesh it is given, which must never happen to a
workload's mesh.
"""

from __future__ import annotations

import inspect
import os
import resource
import statistics
import time

import numpy as np

from bench import workloads as wl
from bench.workloads import ML_LEVEL, NLEV, STEPS, Sizes, percentile
from repro.dycore import operators as ops
from repro.dycore import tendencies as tend
from repro.dycore.solver import DycoreConfig, DynamicalCore
from repro.dycore.stencil import STENCILS, compiled_kernels
from repro.dycore.tracer import (
    tracer_transport_hori_flux_limiter,
    vertical_tracer_transport,
)
from repro.dycore.vertical import VerticalCoordinate, exner, geopotential_interfaces
from repro.ensemble.scenarios import build_scenario_model
from repro.grid import build_mesh
from repro.ml.layers import Conv1D
from repro.ml.tendency_net import TendencyCNN
from repro.model.config import scaled_grid_config
from repro.obs import Tracer, tracing
from repro.parallel.driver import DistributedDycore
from repro.parallel.localmesh import build_local_meshes
from repro.partition.decomposition import decompose, decomposition_stats
from repro.partition.graph import mesh_cell_graph
from repro.partition.metis import edge_cut, partition_graph
from repro.physics.convection import convective_adjustment
from repro.physics.microphysics import kessler_microphysics
from repro.physics.pbl import pbl_diffusion
from repro.physics.radiation import cosine_solar_zenith
from repro.precision.policy import PrecisionPolicy
from repro.serve.cache import ResultCache
from repro.serve.scheduler import run_serial_oracle

STENCIL_OPS = (
    ("divergence", "edge"), ("gradient", "cell"), ("cell_to_edge", "cell"),
    ("kinetic_energy", "edge"), ("laplacian_edge", "edge"), ("laplacian_cell", "cell"),
)
CONTENDED = 1.15     # a sample slower than this x the best met a busy host


def best(fn, reps: int, warm: bool = True) -> float:
    """Seconds of the fastest of ``reps`` calls."""
    if warm:
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def grid_partition(sizes: Sizes, mesh) -> dict:
    r = sizes.reps
    graph = mesh_cell_graph(mesh)
    part = partition_graph(graph, wl.NPARTS, seed=0)
    subs = decompose(mesh, wl.NPARTS, part=part)
    locals_ = build_local_meshes(mesh, subs, part)
    owned = sum(lm.n_owned_cells for lm in locals_)
    return {
        "grid.build_mesh_s": (best(lambda: build_mesh(sizes.level), r), "s"),
        "partition.partition_graph_s": (
            best(lambda: partition_graph(graph, wl.NPARTS, seed=0), min(r, 3)), "s"),
        "partition.edge_cut": (float(edge_cut(graph, part)), "count"),
        "partition.imbalance": (decomposition_stats(subs)["imbalance"], "ratio"),
        "parallel.build_local_meshes_s": (
            best(lambda: build_local_meshes(mesh, subs, part), min(r, 3)), "s"),
        "parallel.halo_fraction": (
            1.0 - owned / sum(lm.n_cells for lm in locals_), "share"),
    }


def _steps(driver, n: int) -> tuple[float, dict]:
    """Best step time over ``n`` steps and the comm-stat deltas across them."""
    driver.step()
    before = driver.comm_stats()
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        driver.step()
        times.append(time.perf_counter() - t0)
    after = driver.comm_stats()
    delta = {k: after[k] - before[k] for k in after if isinstance(after[k], (int, float))}
    delta["wall"] = sum(times)
    return min(times), delta


def parallel(sizes: Sizes, mesh, state) -> dict:
    """Lockstep workers=1/2 and overlapped stepping on one 8-part
    decomposition, plus the driver's own exchange accounting."""
    r = min(sizes.reps, 3)
    out = {}
    # workers=1: the base of speedup_w2, and the serial-oracle check.
    d1 = wl.build_ranks_driver(sizes, mesh, workers=1)
    d1.scatter(state)
    t1, _ = _steps(d1, r)
    core = DynamicalCore(mesh, d1.vcoord, d1.config)
    ref = core.run(state.copy(), r + 1)
    err = max(wl.rel_l2(a, b) for a, b in zip(d1.gather(), (ref.ps, ref.u, ref.theta)))
    d1.close()

    d2 = wl.build_ranks_driver(sizes, mesh)
    try:
        out["parallel.scatter_ms"] = (1e3 * best(lambda: d2.scatter(state), r), "ms")
        t2, c = _steps(d2, r)
        out["parallel.gather_ms"] = (1e3 * best(d2.gather, r), "ms")
    finally:
        d2.close()
    out.update({
        "parallel.step_ms.workers1": (1e3 * t1, "ms"),
        "parallel.step_ms.workers2": (1e3 * t2, "ms"),
        "parallel.speedup_w2": (t1 / t2, "ratio"),
        "parallel.exchange_ms": (1e3 * c["exchange_seconds_total"] / r, "ms"),
        "parallel.pack_ms": (1e3 * c["pack_seconds"] / r, "ms"),
        "parallel.unpack_ms": (1e3 * c["unpack_seconds"] / r, "ms"),
        "parallel.wire_ms": (1e3 * c["wire_seconds"] / r, "ms"),
        "parallel.comm_share": (c["exchange_seconds_total"] / c["wall"], "share"),
        "comm.msgs_per_step": (c["messages"] / r, "count"),
        "comm.bytes_per_step": (c["bytes"] / r, "count"),
        "parallel.max_rel_err": (err, "ratio"),
    })
    # Overlap is reported while the argument exists; once it is gone the
    # lockstep numbers stand in (it is then the only mode).
    t_ov, hidden = t2, 0.0
    if "overlap" in inspect.signature(DistributedDycore).parameters:
        d3 = wl.build_ranks_driver(sizes, mesh, overlap=True)
        try:
            d3.scatter(state)
            t_ov, _ = _steps(d3, r)
            hidden = d3.overlap_stats()["overlap_fraction"]
        finally:
            d3.close()
    out["parallel.overlap.step_ms"] = (1e3 * t_ov, "ms")
    out["parallel.overlap.hidden_fraction"] = (hidden, "share")
    return out


def _count_stencil_bytes(core: DynamicalCore, state, backend: str) -> float:
    """Computed bytes one step moves through the stencil layer: for each
    top-level operator call, the spec's memory-pass count for ``backend``
    times the size of the array it returns.  Ignores caches."""
    plan = compiled_kernels(core.mesh, backend)
    total = 0
    depth = 0

    def counted(name, fn):
        passes = getattr(STENCILS[name], "fused_passes" if backend == "fused" else "ref_passes")

        def call(*args, **kwargs):
            nonlocal total, depth
            depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                depth -= 1
            if depth == 0:      # composites already count their inner ops
                total += passes * out.nbytes
            return out
        return call

    for name in STENCILS:
        setattr(plan, name, counted(name, getattr(plan, name)))
    try:
        core.step(state)
    finally:
        for name in STENCILS:
            delattr(plan, name)     # back to the class's methods
    return total / core.mesh.nc


def dycore(sizes: Sizes, state) -> dict:
    r = sizes.reps
    out = {}
    vc = state.vcoord
    dt = scaled_grid_config(sizes.level, NLEV).dt_dyn
    dry = state.copy()
    dry.tracers = {}            # dycore-only: no tracer transport
    rng = np.random.default_rng(42)
    for backend, tag in (("reference", "ref"), ("fused", "fused")):
        mesh = build_mesh(sizes.level)      # own mesh: the core binds its backend
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=dt, stencil_backend=backend))
        out[f"dycore.step_ms.{tag}"] = (1e3 * best(lambda: core.step(dry), r), "ms")
        out[f"dycore.computed_bytes_per_cell_step.{tag}"] = (
            _count_stencil_bytes(core, dry, backend), "B")
        fields = {
            "edge": rng.normal(size=(mesh.ne, NLEV)),
            "cell": rng.normal(size=(mesh.nc, NLEV)),
        }
        for op, kind in STENCIL_OPS:
            fn = getattr(ops, op)
            out[f"dycore.stencil.{op}_us.{tag}"] = (
                1e6 * best(lambda: fn(mesh, fields[kind], backend=backend), r), "us")

    # Default backend from here on, as the workloads run it.
    mesh = build_mesh(sizes.level)
    core = DynamicalCore(mesh, vc, DycoreConfig(dt=dt))
    pol = core.config.policy
    out["dycore.tendencies_ms"] = (1e3 * best(lambda: core.compute_tendencies(dry), r), "ms")
    dpi, p_mid = dry.dpi(), dry.p_mid()
    p_int = vc.pressure_interfaces(dry.ps)
    phi = geopotential_interfaces(dry.phi_surface, dry.theta, p_int)
    phi_mid = 0.5 * (phi[:, :-1] + phi[:, 1:])
    F = tend.primal_normal_flux_edge(mesh, dpi, dry.u, pol)
    D = ops.divergence(mesh, F)
    M = tend.vertical_mass_flux(mesh, vc.b_interfaces, D)
    kernels = {
        "primal_normal_flux_edge": lambda: tend.primal_normal_flux_edge(mesh, dpi, dry.u, pol),
        "calc_coriolis_term": lambda: tend.calc_coriolis_term(mesh, dry.u, policy=pol),
        "tend_grad_ke_at_edge": lambda: tend.tend_grad_ke_at_edge(mesh, dry.u, pol),
        "pressure_gradient_force": lambda: tend.pressure_gradient_force(
            mesh, dry.theta, p_mid, phi_mid, pol),
        "vertical_advection_edge": lambda: tend.vertical_advection_edge(mesh, M, dpi, dry.u),
        "vertical_mass_flux": lambda: tend.vertical_mass_flux(mesh, vc.b_interfaces, D),
        "vertical_advection_cell": lambda: tend.vertical_advection_cell(M, dry.theta),
    }
    for name, fn in kernels.items():
        out[f"dycore.tend.{name}_us"] = (1e6 * best(fn, r), "us")
    out["dycore.vertical.geopotential_us"] = (
        1e6 * best(lambda: geopotential_interfaces(dry.phi_surface, dry.theta, p_int), r), "us")
    q = next(iter(state.tracers.values()))
    dt_trac = 6 * dt
    out["dycore.tracer.hori_ms"] = (1e3 * best(
        lambda: tracer_transport_hori_flux_limiter(mesh, q, F, dpi, dpi, dt_trac, pol), r), "ms")
    out["dycore.tracer.vert_ms"] = (1e3 * best(
        lambda: vertical_tracer_transport(q, M, dpi, dpi, dt_trac), r), "ms")
    return out


def precision(sizes: Sizes) -> dict:
    """MIX over DP dycore step on the ML workload's grid."""
    mesh = build_mesh(ML_LEVEL)
    vc = VerticalCoordinate.stretched(NLEV)
    state = wl.initial_state(mesh, vc, 0)
    dt = scaled_grid_config(ML_LEVEL, NLEV).dt_dyn
    t = {}
    for mixed in (False, True):
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=dt, policy=PrecisionPolicy(mixed=mixed)))
        t[mixed] = best(lambda: core.step(state), sizes.reps)
    return {"precision.mix_step_ratio": (t[True] / t[False], "ratio")}


def coupler_fields(model, state):
    """What the coupler hands a physics suite for ``state`` at t = 0."""
    coszr = cosine_solar_zenith(
        model.mesh.cell_lat, model.mesh.cell_lon, 0.0, model.day_of_year)
    return model.coupler.extract(state, model.surface.skin_temperature(), coszr)


def physics(sizes: Sizes, model, state) -> dict:
    """The conventional suite on the G5 model's columns.  ``reset``
    before each call rewinds the radiation cadence, so every suite call
    includes radiation, as the window's single physics call does."""
    r = min(sizes.reps, 3)
    suite = model.physics.primary
    fields = coupler_fields(model, state)

    def call():
        model.reset()
        suite.compute(state, fields.wind_speed_sfc)

    t_suite = best(call, r)
    model.reset()
    dt = suite.config.dt_physics
    dpi, p_mid = state.dpi(), state.p_mid()
    ex = exner(p_mid)
    temp = state.theta * ex
    qv, qc, qr = (state.tracers.get(k, np.zeros_like(temp)) for k in ("qv", "qc", "qr"))
    flux = model.surface.fluxes(temp[:, -1], qv[:, -1], fields.wind_speed_sfc, state.ps)
    return {
        "physics.suite_ms": (1e3 * t_suite, "ms"),
        "physics.columns_per_s": (model.mesh.nc / t_suite, "1/s"),
        "physics.radiation_ms": (1e3 * best(lambda: suite.radiation.compute(
            temp, qv, qc, dpi, fields.tskin, fields.coszr, model.surface.albedo), r), "ms"),
        "physics.microphysics_ms": (1e3 * best(
            lambda: kessler_microphysics(temp, qv, qc, qr, p_mid, dpi, ex, dt), r), "ms"),
        "physics.convection_ms": (1e3 * best(
            lambda: convective_adjustment(temp, qv, p_mid, dpi, ex, dt), r), "ms"),
        "physics.pbl_ms": (1e3 * best(lambda: pbl_diffusion(
            state.theta, qv, dpi, p_mid, temp, flux.sensible, flux.evaporation,
            fields.wind_speed_sfc, ex[:, -1], dt), r), "ms"),
    }


def ml(sizes: Sizes, model, state) -> dict:
    """The ML suite of the mlnet model, and its networks on a column slab."""
    suite = model.physics
    fields = coupler_fields(model, state)

    def call():
        model.reset()
        suite.compute_from_coupler(state, fields)

    t_suite = best(call, 2, warm=False)     # seconds per call at full size
    model.reset()
    flops = suite.flops_per_column()
    ncol = 64
    x = suite.tendency_net.pack_inputs(fields.u, fields.v, fields.t, fields.q, fields.p)[:ncol]
    xr = suite.radiation_net.pack_inputs(fields.t, fields.q, fields.tskin, fields.coszr)
    fp32 = suite.tendency_net
    fp64 = TendencyCNN(NLEV, width=sizes.ml_width, n_resunits=sizes.ml_resunits)
    fp64.in_norm, fp64.out_norm = fp32.in_norm, fp32.out_norm
    conv = Conv1D(sizes.ml_width, sizes.ml_width, 3)
    xc = np.random.default_rng(0).normal(size=(ncol, sizes.ml_width, NLEV))
    r = min(sizes.reps, 3)
    return {
        "ml.suite_ms": (1e3 * t_suite, "ms"),
        "ml.tendency_cnn.columns_per_s.fp64": (ncol / best(lambda: fp64.predict(x), r), "1/s"),
        "ml.tendency_cnn.columns_per_s.fp32": (ncol / best(lambda: fp32.predict(x), r), "1/s"),
        "ml.radiation_mlp.columns_per_s": (
            xr.shape[0] / best(lambda: suite.radiation_net.predict(xr), r), "1/s"),
        "ml.conv1d.fwd_ms": (1e3 * best(lambda: conv.forward(xc, train=False), r), "ms"),
        "ml.flops_per_column": (float(flops), "count"),
        "ml.achieved_gflops": (flops * model.mesh.nc / t_suite / 1e9, "GFLOP/s"),
    }


def model_budget(sizes: Sizes, model, initial, spans) -> dict:
    """The coupled window's budget, from the spans of one traced window.

    Shares come from inside a single window so that every term met the
    same host phase: ``dycore`` is the dynamics steps' span time less the
    tracer part, ``tracer`` is what the steps that close a tracer window
    took beyond the median plain step, ``physics`` is the
    ``step_physics`` span, and the rest of the window is unattributed.
    The three ``*_us`` entries are isolated calls."""
    window = next(sp for sp in spans if sp.name.endswith(".window"))
    steps = [sp.end - sp.start for sp in spans if sp.name == "dycore.step"]
    ratio = model.dycore.config.tracer_ratio
    plain = statistics.median(steps)
    tracer = sum(max(d - plain, 0.0) for d in steps[ratio - 1::ratio])
    total = window.end - window.start
    shares = {
        "dycore": (sum(steps) - tracer) / total,
        "tracer": tracer / total,
        "physics": sum(
            sp.end - sp.start for sp in spans if sp.name == "model.step_physics") / total,
    }
    r = min(sizes.reps, 3)
    zeros = np.zeros((model.mesh.nc, model.vcoord.nlev))
    drag = np.zeros(model.mesh.nc)
    scratch = initial.copy()
    dt_phy = model.grid_config.dt_physics
    return {
        "model.extract_us": (
            1e6 * best(lambda: coupler_fields(model, initial), r), "us"),
        "model.apply_tendencies_us": (1e6 * best(lambda: model.coupler.apply_tendencies(
            scratch, zeros, zeros, zeros, zeros, drag, dt_phy), r), "us"),
        "model.reset_us": (1e6 * best(model.reset, 20), "us"),
        "model.dycore_share": (shares["dycore"], "share"),
        "model.tracer_share": (shares["tracer"], "share"),
        "model.physics_share": (shares["physics"], "share"),
        "model.unattributed_share": (1.0 - sum(shares.values()), "share"),
    }


def serve(rounds: list[dict], req) -> dict:
    """Scheduler accounting over the traced rounds' requests, plus the
    cache and key functions called alone."""
    rows = [row for d in rounds for row in d["rows"]]
    n = len(rows)
    cold = [r for r in rows if not r["hit"]]
    wait = [r["started"] - r["submitted"] for r in rows]
    pool = rounds[-1]["pool"]
    batchers = [b for per_key in pool["batchers"].values() for b in per_key.values()]
    items = sum(b["items"] for b in batchers)
    res = run_serial_oracle(req)
    cache = ResultCache()
    key = req.cache_key()
    cache.put(key, res)
    lat = [r["finished"] - r["due"] for r in rows]
    return {
        "serve.latency_ms.p50": (1e3 * percentile(lat, 0.5), "ms"),
        "serve.latency_ms.p90": (1e3 * percentile(lat, 0.9), "ms"),
        "serve.queue_wait_ms.p50": (1e3 * percentile(wait, 0.5), "ms"),
        "serve.queue_wait_ms.p90": (1e3 * percentile(wait, 0.9), "ms"),
        "serve.run_ms.p50": (
            1e3 * percentile([r["finished"] - r["started"] for r in cold], 0.5), "ms"),
        "serve.cold_share": (len(cold) / n, "share"),
        "serve.hit_share": (sum(r["hit"] for r in rows) / n, "share"),
        "serve.dup_inflight_share": (sum(r["inflight"] for r in rows) / n, "share"),
        "serve.dup_inflight_computed": (
            float(sum(r["repeat"] and not r["hit"] for r in rows)), "count"),
        "serve.pool.built": (float(pool["built"]), "count"),
        "serve.pool.reused": (float(pool["reused"]), "count"),
        "serve.pool.acquire_waits": (float(pool["acquire_waits"]), "count"),
        "serve.batch.mean_size": (
            items / max(sum(b["batches"] for b in batchers), 1), "count"),
        "serve.batch.stacked_share": (
            sum(b["stacked_items"] for b in batchers) / max(items, 1), "share"),
        "serve.cache.get_us": (1e6 * best(lambda: cache.get(key), 200), "us"),
        "serve.cache.put_us": (1e6 * best(lambda: cache.put(key, res), 200), "us"),
        "serve.cache_key_us": (1e6 * best(req.cache_key, 200), "us"),
        "serve.gen_late_ms.p90": (
            1e3 * percentile([r["submitted"] - r["due"] for r in rows], 0.9), "ms"),
    }


def obs_overhead(sizes: Sizes) -> dict:
    """A small coupled window under ``repro.obs.tracing`` against off."""
    model = build_scenario_model(wl.SCENARIO, ML_LEVEL, NLEV, "DP-PHY")
    state = wl.initial_state(model.mesh, model.vcoord, 0)

    def window():
        model.reset()
        model.run(state.copy(), STEPS)

    def traced():
        with tracing(Tracer()):
            window()

    window()
    t_off, t_on = [], []
    for _ in range(3):                       # interleaved, so both see the host alike
        t_off.append(best(window, 1, warm=False))
        t_on.append(best(traced, 1, warm=False))
    return {"obs.trace_overhead_share": (min(t_on) / min(t_off) - 1.0, "share")}


def rss_mb() -> float:
    """Peak resident size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host(walls: list[float], rss_after_setup_mb: float) -> dict:
    return {
        "host.cpus": (float(os.cpu_count() or 1), "count"),
        "host.contended_share": (
            sum(w > CONTENDED * min(walls) for w in walls) / len(walls), "share"),
        "host.rss_mb_after_setup": (rss_after_setup_mb, "MB"),
    }
