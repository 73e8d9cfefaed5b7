"""Tests of the graph structures, the multilevel partitioner, and the
domain decomposition with halos."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.mesh import PAD, build_mesh
from repro.partition.decomposition import decompose, decomposition_stats
from repro.partition.graph import CSRGraph, from_edge_list, mesh_cell_graph
from repro.partition.metis import (
    _coarsen,
    _heavy_edge_matching,
    edge_cut,
    partition_balance,
    partition_graph,
)


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(3)


@pytest.fixture(scope="module")
def graph(mesh):
    return mesh_cell_graph(mesh)


class TestCSRGraph:
    def test_from_edge_list_roundtrip(self):
        edges = np.array([[0, 1], [1, 2], [2, 0], [2, 3]])
        g = from_edge_list(4, edges)
        g.validate()
        assert g.n == 4
        assert g.num_edges == 4
        assert g.degree(2) == 3
        assert set(g.neighbors(2).tolist()) == {0, 1, 3}

    def test_mesh_graph_valid(self, graph, mesh):
        graph.validate()
        assert graph.n == mesh.nc
        assert graph.num_edges == mesh.ne

    def test_mesh_graph_degrees(self, graph, mesh):
        degs = np.diff(graph.xadj)
        np.testing.assert_array_equal(np.sort(degs), np.sort(mesh.cell_ne))

    def test_validate_catches_asymmetry(self):
        g = CSRGraph(
            xadj=np.array([0, 1, 1]),
            adjncy=np.array([1]),
            vwgt=np.ones(2),
            ewgt=np.ones(1),
        )
        with pytest.raises(ValueError):
            g.validate()


class TestMatchingAndCoarsening:
    def test_matching_is_involution(self, graph):
        rng = np.random.default_rng(0)
        match = _heavy_edge_matching(graph, rng)
        np.testing.assert_array_equal(match[match], np.arange(graph.n))

    def test_matching_respects_adjacency(self, graph):
        rng = np.random.default_rng(1)
        match = _heavy_edge_matching(graph, rng)
        for v in range(graph.n):
            if match[v] != v:
                assert match[v] in graph.neighbors(v)

    def test_coarsen_preserves_weight(self, graph):
        rng = np.random.default_rng(2)
        match = _heavy_edge_matching(graph, rng)
        coarse, cmap = _coarsen(graph, match)
        coarse.validate()
        assert coarse.vwgt.sum() == pytest.approx(graph.vwgt.sum())
        assert cmap.shape == (graph.n,)
        assert coarse.n < graph.n

    def test_coarsen_preserves_cut_structure(self, graph):
        """A partition projected through the coarse map has the same cut."""
        rng = np.random.default_rng(3)
        match = _heavy_edge_matching(graph, rng)
        coarse, cmap = _coarsen(graph, match)
        part_c = np.arange(coarse.n) % 2
        part_f = part_c[cmap]
        # Cut of the projected partition counts only inter-coarse-vertex
        # edges, which the coarse graph aggregates exactly.
        assert edge_cut(coarse, part_c) == pytest.approx(edge_cut(graph, part_f))


class TestPartitioner:
    @pytest.mark.parametrize("nparts", [2, 4, 8, 13])
    def test_partition_complete_and_balanced(self, graph, nparts):
        part = partition_graph(graph, nparts, seed=0)
        assert part.shape == (graph.n,)
        assert set(np.unique(part)) == set(range(nparts))
        lo, hi = partition_balance(graph, part, nparts)
        assert 0.95 <= lo <= 1.0 <= hi <= 1.05

    def test_g5_eight_parts_bounded_both_ways(self):
        """The partition the ranked benchmark runs: no part lighter than
        ``2 - max_imbalance`` of ideal, and the cut no worse than the
        max-only bound gave (1,449)."""
        g = mesh_cell_graph(build_mesh(5))
        part = partition_graph(g, 8, seed=0)
        lo, hi = partition_balance(g, part, 8)
        assert 0.95 <= lo and hi <= 1.05
        assert edge_cut(g, part) <= 1449

    def test_cut_much_better_than_random(self, graph):
        part = partition_graph(graph, 8, seed=0)
        rng = np.random.default_rng(0)
        rand = rng.integers(0, 8, size=graph.n)
        assert edge_cut(graph, part) < 0.25 * edge_cut(graph, rand)

    def test_single_part(self, graph):
        part = partition_graph(graph, 1)
        assert np.all(part == 0)

    def test_reproducible(self, graph):
        p1 = partition_graph(graph, 4, seed=42)
        p2 = partition_graph(graph, 4, seed=42)
        np.testing.assert_array_equal(p1, p2)

    def test_too_many_parts_rejected(self):
        g = from_edge_list(3, np.array([[0, 1], [1, 2]]))
        with pytest.raises(ValueError):
            partition_graph(g, 5)

    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_property_cover_and_balance(self, level, nparts):
        mesh = build_mesh(level)
        g = mesh_cell_graph(mesh)
        part = partition_graph(g, nparts, seed=nparts)
        weights = np.bincount(part, minlength=nparts)
        assert weights.sum() == mesh.nc
        lo, hi = partition_balance(g, part, nparts)
        assert lo >= 0.95 and hi <= 1.05


class TestDecomposition:
    @pytest.mark.parametrize("nparts", [2, 4, 7])
    def test_owned_cells_partition_the_mesh(self, mesh, nparts):
        subs = decompose(mesh, nparts, seed=0)
        owned = np.concatenate([s.local_cells[: s.n_owned] for s in subs])
        assert np.array_equal(np.sort(owned), np.arange(mesh.nc))

    def test_halo_is_exact_neighbor_ring(self, mesh):
        subs = decompose(mesh, 4, seed=0)
        part = np.empty(mesh.nc, dtype=int)
        for s in subs:
            part[s.local_cells[: s.n_owned]] = s.rank
        for s in subs:
            owned = set(s.local_cells[: s.n_owned].tolist())
            halo = set(s.local_cells[s.n_owned:].tolist())
            # Halo = all remote neighbours of owned cells, no more no less.
            expected = set()
            for c in owned:
                for nb in mesh.cell_neighbors[c]:
                    if nb != PAD and int(nb) not in owned:
                        expected.add(int(nb))
            assert halo == expected

    def test_send_recv_symmetry(self, mesh):
        subs = decompose(mesh, 5, seed=1)
        for s in subs:
            for r, recv_idx in s.recv_cells.items():
                peer = subs[r]
                assert s.rank in peer.send_cells
                assert peer.send_cells[s.rank].size == recv_idx.size
                # Peer sends exactly the global cells this rank expects.
                sent_global = peer.local_cells[peer.send_cells[s.rank]]
                want_global = s.local_cells[recv_idx]
                np.testing.assert_array_equal(sent_global, want_global)

    def test_send_cells_are_owned(self, mesh):
        subs = decompose(mesh, 5, seed=1)
        for s in subs:
            for idx in s.send_cells.values():
                assert np.all(idx < s.n_owned)

    def test_stats(self, mesh):
        subs = decompose(mesh, 8, seed=0)
        stats = decomposition_stats(subs)
        assert stats["nparts"] == 8
        assert stats["imbalance"] < 1.12
        assert 0.95 <= stats["min_over_mean"] <= 1.0
        assert stats["mean_halo"] > 0
        # Halo should be ~ perimeter, far less than area.
        assert stats["mean_halo"] < 0.8 * stats["mean_owned"]

    def test_bad_part_rejected(self, mesh):
        with pytest.raises(ValueError):
            decompose(mesh, 2, part=np.zeros(5, dtype=int))
