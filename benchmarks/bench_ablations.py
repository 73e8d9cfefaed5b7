"""Ablation benchmarks for the design choices DESIGN.md calls out:

* section 3.1.3's 83% parallel-efficiency claim context: halo-exchange
  aggregation (message count and wall time);
* section 3.1.3's BFS index reordering (locality metric + cache proxy);
* section 3.4's per-term precision sensitivity (which terms tolerate
  FP32) and the 5% acceptance criterion end to end;
* the memory-address distribution (Fig. 6) measured as end-to-end kernel
  time through the timing model.
"""

import numpy as np
import pytest

from benchmarks._util import print_header
from repro.comm.message import Communicator
from repro.dycore.solver import DycoreConfig, DynamicalCore
from repro.dycore.state import solid_body_rotation_state
from repro.dycore.vertical import VerticalCoordinate
from repro.grid import build_mesh
from repro.grid.reorder import bandwidth, reorder_mesh
from repro.parallel.exchange import EdgeCellExchanger
from repro.parallel.localmesh import build_local_meshes
from repro.partition.decomposition import decompose
from repro.partition.graph import mesh_cell_graph
from repro.partition.metis import partition_graph
from repro.precision.analysis import DeviationTracker, relative_l2
from repro.precision.policy import GRIST_SENSITIVITY, PrecisionPolicy, TermSensitivity


def test_ablation_halo_aggregation(benchmark, mesh_g3):
    """One message per neighbour vs one per variable (section 3.1.3):
    one exchanger with every variable registered against one single-
    variable exchanger per variable on a shared communicator."""
    part = partition_graph(mesh_cell_graph(mesh_g3), 8, seed=0)
    locals_ = build_local_meshes(mesh_g3, decompose(mesh_g3, 8, part=part), part)
    rng = np.random.default_rng(0)
    n_vars = 8
    fields = {}
    for i in range(n_vars):
        g = rng.normal(size=(mesh_g3.nc, 8))
        fields[f"v{i}"] = [lm.scatter_cell_field(g) for lm in locals_]

    ex = EdgeCellExchanger(locals_)
    for name, per_rank in fields.items():
        ex.register_cell(name, per_rank)
    ex.exchange()
    agg_msgs = ex.comm.stats.messages
    agg_bytes = ex.comm.stats.bytes_sent

    comm = Communicator(len(locals_))
    for name, per_rank in fields.items():
        single = EdgeCellExchanger(locals_, comm)
        single.register_cell(name, per_rank)
        single.exchange()
    unagg_msgs = comm.stats.messages

    print_header("ABLATION — halo-exchange aggregation (section 3.1.3)")
    print(f"{n_vars} variables x 8 levels over 8 ranks:")
    print(f"  aggregated:   {agg_msgs:4d} messages, {agg_bytes:,} bytes")
    print(f"  unaggregated: {unagg_msgs:4d} messages (x{unagg_msgs // agg_msgs})")
    assert unagg_msgs == n_vars * agg_msgs

    benchmark(ex.exchange)


def test_ablation_bfs_reorder(benchmark, mesh_g3):
    """BFS renumbering shrinks index spread — the cache-hit mechanism."""
    new, _ = benchmark.pedantic(reorder_mesh, args=(mesh_g3,), rounds=1, iterations=1)
    bw_before = bandwidth(mesh_g3)
    bw_after = bandwidth(new)
    print_header("ABLATION — BFS index reordering (section 3.1.3)")
    print(f"mean |c1-c2| index distance: {bw_before:8.1f} -> {bw_after:8.1f} "
          f"({bw_before / bw_after:.1f}x tighter)")
    # Working-set proxy: bytes spanned by a cell's neighbourhood.
    line = 256
    span_before = bw_before * 8 / line
    span_after = bw_after * 8 / line
    print(f"cache lines spanned per stencil gather: {span_before:.1f} -> {span_after:.1f}")
    assert bw_after < 0.5 * bw_before


@pytest.mark.parametrize("flip_term", [
    "kinetic_energy_gradient", "coriolis_term", "tracer_flux_limiter",
])
def test_ablation_insensitive_terms_tolerate_fp32(benchmark, flip_term):
    """Demoting any single insensitive term keeps ps deviation tiny."""
    mesh = build_mesh(2)
    vc = VerticalCoordinate.uniform(6)
    st0 = solid_body_rotation_state(mesh, vc)

    pol = PrecisionPolicy(mixed=True)
    pol.sensitivity = {
        k: (TermSensitivity.INSENSITIVE if k == flip_term else TermSensitivity.SENSITIVE)
        for k in GRIST_SENSITIVITY
    }
    dp = DynamicalCore(mesh, vc, DycoreConfig(dt=600.0))
    mx = DynamicalCore(mesh, vc, DycoreConfig(dt=600.0, policy=pol))

    def run_pair():
        a, b = st0.copy(), st0.copy()
        for _ in range(12):
            a = dp.step(a)
            b = mx.step(b)
        return relative_l2(b.ps, a.ps)

    dev = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print(f"\nterm {flip_term!r} in FP32: ps relative-L2 deviation = {dev:.2e}")
    assert dev < 1e-4


def test_ablation_full_mixed_within_threshold(benchmark):
    """The full MIX configuration passes the paper's 5% criterion."""
    mesh = build_mesh(2)
    vc = VerticalCoordinate.uniform(6)
    st0 = solid_body_rotation_state(mesh, vc)
    dp = DynamicalCore(mesh, vc, DycoreConfig(dt=600.0))
    mx = DynamicalCore(
        mesh, vc, DycoreConfig(dt=600.0, policy=PrecisionPolicy(mixed=True))
    )

    def run():
        tracker = DeviationTracker()
        a, b = st0.copy(), st0.copy()
        for _ in range(5):
            for _ in range(6):
                a = dp.step(a)
                b = mx.step(b)
            da, db = dp.diagnostics(a), mx.diagnostics(b)
            tracker.record(db["ps"], da["ps"], db["vor"], da["vor"])
        return tracker

    tracker = benchmark.pedantic(run, rounds=1, iterations=1)
    s = tracker.summary()
    print_header("ABLATION — full mixed-precision acceptance (section 3.4.1)")
    print(f"max ps deviation  = {s['max_ps_deviation']:.2e}")
    print(f"max vor deviation = {s['max_vor_deviation']:.2e}")
    print(f"threshold = {s['threshold']} -> passes = {s['passes']}")
    assert tracker.passes()
    assert tracker.max_vor > 0.0       # the run genuinely differs


def test_ablation_address_distribution_end_to_end(benchmark):
    """Fig. 6's fix measured as kernel time through the timing model."""
    from repro.dycore.kernels import MAJOR_KERNELS
    from repro.sunway.kernel import Engine, KernelTimer, Precision

    timer = KernelTimer()
    n = 41_000 * 30
    print_header("ABLATION — memory-address distribution (Fig. 6 mechanism)")
    print(f"{'kernel':38s} {'t(no DST)':>12s} {'t(DST)':>12s} {'gain':>6s}")
    gains = {}
    for name, reg in MAJOR_KERNELS.items():
        t0 = timer.time(reg.spec, n, Engine.CPE_ARRAY, Precision.DP, False).seconds
        t1 = timer.time(reg.spec, n, Engine.CPE_ARRAY, Precision.DP, True).seconds
        gains[name] = t0 / t1
        print(f"{name:38s} {t0 * 1e3:10.2f}ms {t1 * 1e3:10.2f}ms {t0 / t1:6.2f}")
    # Many-array kernels gain; few-array kernels don't.
    assert gains["tracer_transport_hori_flux_limiter"] > 2.0
    assert gains["calc_coriolis_term"] == pytest.approx(1.0)

    benchmark(
        timer.time,
        MAJOR_KERNELS["compute_rrr"].spec, n, Engine.CPE_ARRAY, Precision.DP, True,
    )
