"""Tests of the hexagonal C-grid mesh: topology and geometry invariants."""

import dataclasses
import math

import numpy as np
import pytest

from repro.grid.mesh import MAX_DEG, PAD, build_mesh


@pytest.fixture(scope="module", params=[1, 2, 3])
def mesh(request):
    return build_mesh(request.param)


class TestCounts:
    def test_closed_formulas(self, mesh):
        L = mesh.level
        assert mesh.nc == 10 * 4**L + 2
        assert mesh.ne == 30 * 4**L
        assert mesh.nv == 20 * 4**L

    def test_euler(self, mesh):
        assert mesh.euler_characteristic() == 2

    def test_degrees(self, mesh):
        counts = np.bincount(mesh.cell_ne, minlength=MAX_DEG + 1)
        assert counts[5] == 12                     # the 12 pentagons
        assert counts[6] == mesh.nc - 12
        assert counts[:5].sum() == 0


class TestGeometry:
    def test_cell_areas_tile_sphere(self, mesh):
        total = 4.0 * math.pi * mesh.radius**2
        assert mesh.cell_area.sum() == pytest.approx(total, rel=1e-10)

    def test_vertex_areas_tile_sphere(self, mesh):
        total = 4.0 * math.pi * mesh.radius**2
        assert mesh.vertex_area.sum() == pytest.approx(total, rel=1e-10)

    def test_all_areas_positive(self, mesh):
        assert np.all(mesh.cell_area > 0)
        assert np.all(mesh.vertex_area > 0)

    def test_edge_lengths_positive(self, mesh):
        assert np.all(mesh.de > 0)
        assert np.all(mesh.le > 0)

    def test_unit_vectors(self, mesh):
        for arr in (mesh.cell_xyz, mesh.vertex_xyz, mesh.edge_xyz):
            np.testing.assert_allclose(np.linalg.norm(arr, axis=1), 1.0, atol=1e-12)

    def test_normals_tangent_to_sphere(self, mesh):
        dots = np.einsum("ej,ej->e", mesh.edge_normal, mesh.edge_xyz)
        np.testing.assert_allclose(dots, 0.0, atol=1e-12)

    def test_normal_tangent_orthogonal(self, mesh):
        dots = np.einsum("ej,ej->e", mesh.edge_normal, mesh.edge_tangent)
        np.testing.assert_allclose(dots, 0.0, atol=1e-12)

    def test_right_handed_frame(self, mesh):
        """normal x tangent = outward radial."""
        cross = np.cross(mesh.edge_normal, mesh.edge_tangent)
        np.testing.assert_allclose(cross, mesh.edge_xyz, atol=1e-10)

    def test_normal_points_c1_to_c2(self, mesh):
        chord = mesh.cell_xyz[mesh.edge_cells[:, 1]] - mesh.cell_xyz[mesh.edge_cells[:, 0]]
        assert np.all(np.einsum("ej,ej->e", chord, mesh.edge_normal) > 0)

    def test_spacing_variation_moderate(self, mesh):
        ratio = mesh.de.max() / mesh.de.min()
        assert ratio < 1.35


class TestConnectivity:
    def test_edge_cells_distinct(self, mesh):
        assert np.all(mesh.edge_cells[:, 0] != mesh.edge_cells[:, 1])

    def test_edge_vertices_distinct(self, mesh):
        assert np.all(mesh.edge_vertices[:, 0] != mesh.edge_vertices[:, 1])

    def test_each_edge_in_exactly_two_cells(self, mesh):
        count = np.zeros(mesh.ne, dtype=int)
        valid = mesh.cell_edges != PAD
        np.add.at(count, mesh.cell_edges[valid], 1)
        assert np.all(count == 2)

    def test_edge_sign_antisymmetric(self, mesh):
        """Every edge gets +1 from one cell and -1 from the other."""
        s = np.zeros(mesh.ne)
        valid = mesh.cell_edges != PAD
        np.add.at(s, mesh.cell_edges[valid], mesh.cell_edge_sign[valid])
        np.testing.assert_allclose(s, 0.0)

    def test_sign_matches_ownership(self, mesh):
        """sign=+1 iff the cell is the edge's c1 (normal points out)."""
        for c in range(0, mesh.nc, max(1, mesh.nc // 50)):
            for k in range(mesh.cell_ne[c]):
                e = mesh.cell_edges[c, k]
                sign = mesh.cell_edge_sign[c, k]
                if mesh.edge_cells[e, 0] == c:
                    assert sign == 1.0
                else:
                    assert mesh.edge_cells[e, 1] == c
                    assert sign == -1.0

    def test_neighbors_consistent_with_edges(self, mesh):
        for c in range(0, mesh.nc, max(1, mesh.nc // 50)):
            for k in range(mesh.cell_ne[c]):
                e = mesh.cell_edges[c, k]
                nbr = mesh.cell_neighbors[c, k]
                assert set(mesh.edge_cells[e]) == {c, nbr}

    def test_each_vertex_in_three_cells(self, mesh):
        assert mesh.vertex_cells.shape == (mesh.nv, 3)
        # All distinct.
        assert np.all(mesh.vertex_cells[:, 0] != mesh.vertex_cells[:, 1])
        assert np.all(mesh.vertex_cells[:, 1] != mesh.vertex_cells[:, 2])
        assert np.all(mesh.vertex_cells[:, 0] != mesh.vertex_cells[:, 2])

    def test_vertex_edges_valid(self, mesh):
        assert np.all(mesh.vertex_edges != PAD)
        assert np.all(np.abs(mesh.vertex_edge_sign) == 1.0)

    def test_vertex_edges_touch_vertex(self, mesh):
        for v in range(0, mesh.nv, max(1, mesh.nv // 50)):
            for e in mesh.vertex_edges[v]:
                assert v in mesh.edge_vertices[e]

    def test_cell_vertices_are_incident(self, mesh):
        for c in range(0, mesh.nc, max(1, mesh.nc // 50)):
            deg = mesh.cell_ne[c]
            vs = mesh.cell_vertices[c, :deg]
            assert len(set(vs.tolist())) == deg
            for v in vs:
                assert c in mesh.vertex_cells[v]

    def test_padding_consistent(self, mesh):
        for c in range(0, mesh.nc, max(1, mesh.nc // 50)):
            deg = mesh.cell_ne[c]
            assert np.all(mesh.cell_edges[c, deg:] == PAD)
            assert np.all(mesh.cell_vertices[c, deg:] == PAD)
            assert np.all(mesh.cell_edge_sign[c, deg:] == 0.0)


class TestCoriolis:
    def test_f_range(self, mesh):
        from repro.constants import OMEGA

        for f in (mesh.f_cell, mesh.f_edge, mesh.f_vertex):
            assert np.all(np.abs(f) <= 2.0 * OMEGA + 1e-12)

    def test_f_sign_hemispheres(self, mesh):
        north = mesh.cell_lat > 0.1
        south = mesh.cell_lat < -0.1
        assert np.all(mesh.f_cell[north] > 0)
        assert np.all(mesh.f_cell[south] < 0)


class TestVelocityReconstruction:
    def test_uniform_field_recovered(self, mesh, rng=None):
        # Reconstruction is ~2nd order: tolerance tightens with level.
        tol = {1: 0.45, 2: 0.15, 3: 0.05}[mesh.level]
        rng = np.random.default_rng(7)
        for _ in range(3):
            U0 = rng.normal(size=3)
            ue = mesh.edge_normal @ U0
            gathered = np.where(
                mesh.cell_edges >= 0, ue[np.clip(mesh.cell_edges, 0, None)], 0.0
            )
            rec = np.einsum("nik,nk->ni", mesh.cell_recon, gathered)
            tangent_part = U0 - (mesh.cell_xyz @ U0)[:, None] * mesh.cell_xyz
            err = np.abs(rec - tangent_part).max() / (np.abs(tangent_part).max() + 1e-300)
            assert err < tol

    def test_reconstruction_tangent(self, mesh):
        rng = np.random.default_rng(3)
        ue = rng.normal(size=mesh.ne)
        gathered = np.where(
            mesh.cell_edges >= 0, ue[np.clip(mesh.cell_edges, 0, None)], 0.0
        )
        rec = np.einsum("nik,nk->ni", mesh.cell_recon, gathered)
        radial = np.einsum("ni,ni->n", rec, mesh.cell_xyz)
        np.testing.assert_allclose(radial, 0.0, atol=1e-8)


class TestTake:
    """``Mesh.take`` is the one index remap under reordering and the
    rank-local meshes."""

    def test_permutation_then_inverse_is_identity(self, mesh):
        rng = np.random.default_rng(mesh.level)
        perms = [rng.permutation(n) for n in (mesh.nc, mesh.ne, mesh.nv)]
        back = mesh.take(*perms).take(*(np.argsort(p) for p in perms))
        for f in dataclasses.fields(mesh):
            np.testing.assert_array_equal(
                getattr(back, f.name), getattr(mesh, f.name), err_msg=f.name
            )

    def test_connected_subset_maps_back(self, mesh):
        rng = np.random.default_rng(10 + mesh.level)
        # A connected patch grown from a random cell, in random local order.
        inside = np.zeros(mesh.nc, dtype=bool)
        inside[rng.integers(mesh.nc)] = True
        while inside.sum() < mesh.nc // 3:
            nbrs = mesh.cell_neighbors[inside]
            inside[nbrs[nbrs != PAD]] = True
        cells = rng.permutation(np.flatnonzero(inside))
        # Only edges interior to the patch, so rim cells lose edge slots;
        # every vertex of the patch, so rim vertices lose cells and edges.
        edges = rng.permutation(
            np.flatnonzero(inside[mesh.edge_cells].all(axis=1))
        )
        v_all = mesh.cell_vertices[cells]
        vertices = rng.permutation(np.unique(v_all[v_all != PAD]))
        sub = mesh.take(cells, edges, vertices)
        assert (sub.nc, sub.ne, sub.nv) == (cells.size, edges.size, vertices.size)

        ids = {"cell": cells, "edge": edges, "vertex": vertices}
        tables = [  # (table, row kind, entry kind, value of an absent id)
            ("cell_edges", "cell", "edge", PAD),
            ("cell_neighbors", "cell", "cell", PAD),
            ("cell_vertices", "cell", "vertex", PAD),
            ("vertex_edges", "vertex", "edge", PAD),
            ("edge_cells", "edge", "cell", 0),
            ("edge_vertices", "edge", "vertex", 0),
            ("vertex_cells", "vertex", "cell", 0),
        ]
        dropped_somewhere = False
        for name, rows, entries, absent in tables:
            local = getattr(sub, name)
            glob = getattr(mesh, name)[ids[rows]]
            taken = np.isin(glob, ids[entries]) & (glob != PAD)
            np.testing.assert_array_equal(
                ids[entries][local[taken]], glob[taken], err_msg=name
            )
            assert np.all(local[~taken] == absent), name
            dropped_somewhere |= bool((~taken & (glob != PAD)).any())
        assert dropped_somewhere

        for sign, table, rows in (
            ("cell_edge_sign", "cell_edges", "cell"),
            ("vertex_edge_sign", "vertex_edges", "vertex"),
        ):
            pad = getattr(sub, table) == PAD
            local, glob = getattr(sub, sign), getattr(mesh, sign)[ids[rows]]
            np.testing.assert_array_equal(local == 0.0, pad, err_msg=sign)
            np.testing.assert_array_equal(local[~pad], glob[~pad], err_msg=sign)
