"""Tests of the BFS index reordering (section 3.1.3)."""

import numpy as np
import pytest

from repro.grid.mesh import PAD, build_mesh
from repro.grid.reorder import bandwidth, bfs_cell_order, reorder_mesh
from tests import contracts


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(3)


class TestBFSOrder:
    def test_is_permutation(self, mesh):
        order = bfs_cell_order(mesh)
        assert sorted(order.tolist()) == list(range(mesh.nc))

    def test_starts_at_start(self, mesh):
        order = bfs_cell_order(mesh, start=17)
        assert order[0] == 17

    def test_invalid_start_rejected(self, mesh):
        with pytest.raises(ValueError):
            bfs_cell_order(mesh, start=mesh.nc)

    def test_bfs_levels_monotone(self, mesh):
        """In BFS order, each cell's first-visited neighbour precedes it."""
        order = bfs_cell_order(mesh)
        pos = np.empty(mesh.nc, dtype=int)
        pos[order] = np.arange(mesh.nc)
        for c in range(mesh.nc):
            if pos[c] == 0:
                continue
            nbrs = mesh.cell_neighbors[c]
            nbrs = nbrs[nbrs != PAD]
            assert pos[nbrs].min() < pos[c]


class TestReorderMesh:
    def test_improves_bandwidth(self, mesh):
        new, _ = reorder_mesh(mesh)
        assert bandwidth(new) < bandwidth(mesh) * 0.5

    def test_preserves_geometry_multisets(self, mesh):
        new, _ = reorder_mesh(mesh)
        np.testing.assert_allclose(
            np.sort(new.cell_area), np.sort(mesh.cell_area)
        )
        np.testing.assert_allclose(np.sort(new.de), np.sort(mesh.de))
        np.testing.assert_allclose(np.sort(new.le), np.sort(mesh.le))
        assert new.cell_area.sum() == pytest.approx(mesh.cell_area.sum())

    def test_preserves_topology_invariants(self, mesh):
        new, _ = reorder_mesh(mesh)
        assert new.euler_characteristic() == 2
        s = np.zeros(new.ne)
        valid = new.cell_edges != PAD
        np.add.at(s, new.cell_edges[valid], new.cell_edge_sign[valid])
        np.testing.assert_allclose(s, 0.0)

    def test_permutations_invertible(self, mesh):
        new, perms = reorder_mesh(mesh)
        # cell k of the new mesh is old cell perms["cell"][k].
        np.testing.assert_allclose(
            new.cell_xyz, mesh.cell_xyz[perms["cell"]]
        )
        np.testing.assert_allclose(
            new.edge_normal, mesh.edge_normal[perms["edge"]]
        )
        np.testing.assert_allclose(
            new.vertex_area, mesh.vertex_area[perms["vertex"]]
        )

    test_operators_equivalent_after_reorder = contracts.collect(
        "reorder", operator="divergence")

    def test_rejects_bad_permutation(self, mesh):
        with pytest.raises(ValueError):
            reorder_mesh(mesh, cell_order=np.zeros(mesh.nc, dtype=int))
