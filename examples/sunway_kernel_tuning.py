"""Explore the Sunway-side optimisations the paper builds (section 3.3):

* run a real dycore kernel through the SWGOMP job server on 64 simulated
  CPEs (the Fig. 4/5 programming model);
* demonstrate LDCache thrashing and the memory-address-distribution fix
  on the cycle-level cache simulator (Fig. 6);
* regenerate the Fig. 9 kernel speedup table.

Run:  python examples/sunway_kernel_tuning.py    (~1 s)
"""

import numpy as np

from repro.dycore.kernels import MAJOR_KERNELS, sample_fields
from repro.dycore.stencil import compiled_kernels
from repro.grid import build_mesh
from repro.model.config import TABLE2_GRIDS
from repro.sunway.allocator import PoolAllocator
from repro.sunway.kernel import KernelTimer, Precision
from repro.sunway.ldcache import loop_hit_ratio
from repro.sunway.swgomp import JobServer, TargetRegion


def demo_swgomp() -> None:
    print("1. SWGOMP job server: the Fig. 4 kernel on 64 simulated CPEs")
    print("-" * 64)
    mesh = build_mesh(3)
    fields = sample_fields(mesh, nlev=8)
    ke = compiled_kernels(mesh).kinetic_energy(fields["u"])
    out = np.zeros((mesh.ne, 8))
    c1, c2 = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]

    def tend_grad_ke(s, e):   # the loop body of the paper's Fig. 4
        out[s:e] = -(ke[c2[s:e]] - ke[c1[s:e]]) / mesh.de[s:e, None]

    server = JobServer()
    server.init_from_mpe()                     # athread_init by the MPE
    region = TargetRegion(server, n_teams=4)   # !$omp target teams(4)
    t = region.parallel_for(tend_grad_ke, mesh.ne, cost_per_elem=0.8e-9)
    heads = sum(1 for e in server.spawn_log if e.role == "team_head")
    members = sum(1 for e in server.spawn_log if e.role == "team_member")
    print(f"  MPE spawned {heads} team heads; heads spawned {members} members")
    print(f"  simulated region time: {t * 1e6:.1f} us, "
          f"CPE utilisation {server.utilization():.2f}\n")


def demo_ldcache() -> None:
    print("2. LDCache thrashing and the address distributor (Fig. 6)")
    print("-" * 64)
    print(f"  {'arrays':>7s} {'aligned-hit':>12s} {'distributed-hit':>16s}")
    for k in (3, 4, 5, 6, 8):
        aligned = PoolAllocator(distribute=False)
        dist = PoolAllocator(distribute=True)
        ha = loop_hit_ratio([aligned.malloc(40 << 10) for _ in range(k)], 1200)
        hd = loop_hit_ratio([dist.malloc(40 << 10) for _ in range(k)], 1200)
        marker = "  <- thrashing" if ha < 0.5 else ""
        print(f"  {k:7d} {ha:12.3f} {hd:16.3f}{marker}")
    print("  (more than 4 ways' worth of aligned arrays thrash; the\n"
          "   pool allocator's address distribution restores the hits)\n")


def demo_fig9() -> None:
    print("3. Kernel speedups over the MPE-DP baseline (Fig. 9)")
    print("-" * 64)
    timer = KernelTimer()
    g6 = TABLE2_GRIDS["G6"]
    variants = [("DP", Precision.DP, False), ("DP+DST", Precision.DP, True),
                ("MIX", Precision.MIXED, False), ("MIX+DST", Precision.MIXED, True)]
    print(f"  {'kernel':38s}" + "".join(f"{v[0]:>9s}" for v in variants))
    for name, reg in MAJOR_KERNELS.items():
        n = (g6.cells if reg.element == "cell" else g6.edges) * g6.nlev
        row = "".join(
            f"{timer.speedup_vs_mpe_dp(reg.spec, n, prec, dst):9.1f}"
            for _, prec, dst in variants
        )
        print(f"  {name:38s}{row}")
    print("\n  (AE appendix: 'about 20-70x ... for major kernels')")


if __name__ == "__main__":
    demo_swgomp()
    demo_ldcache()
    demo_fig9()
