"""Compressed-sparse-row graphs for the partitioner.

The partitioner consumes plain CSR arrays (``xadj``/``adjncy``), the same
interface METIS exposes, so it can partition either the mesh cell graph or
the coarsened graphs produced during multilevel partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.mesh import Mesh


@dataclass
class CSRGraph:
    """An undirected graph in CSR form with vertex and edge weights."""

    xadj: np.ndarray    # (n+1,) int64
    adjncy: np.ndarray  # (m,)   int64 — both directions stored
    vwgt: np.ndarray    # (n,)   float64 vertex weights
    ewgt: np.ndarray    # (m,)   float64 edge weights, aligned with adjncy

    @property
    def n(self) -> int:
        return self.xadj.size - 1

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjncy[self.xadj[v]: self.xadj[v + 1]]

    def validate(self) -> None:
        """Raise if the CSR structure is not a symmetric simple graph."""
        if self.xadj[0] != 0 or self.xadj[-1] != self.adjncy.size:
            raise ValueError("xadj does not bracket adjncy")
        if np.any(np.diff(self.xadj) < 0):
            raise ValueError("xadj must be non-decreasing")
        if self.adjncy.size and (
            self.adjncy.min() < 0 or self.adjncy.max() >= self.n
        ):
            raise ValueError("adjncy references out-of-range vertices")
        # Symmetry: the multiset of (u, v) equals the multiset of (v, u).
        src = np.repeat(np.arange(self.n), np.diff(self.xadj))
        fwd = np.stack([src, self.adjncy], axis=1)
        rev = fwd[:, ::-1]
        f = np.sort(fwd.view([("a", np.int64), ("b", np.int64)]).ravel())
        r = np.sort(rev.copy().view([("a", np.int64), ("b", np.int64)]).ravel())
        if not np.array_equal(f, r):
            raise ValueError("graph is not symmetric")


def from_edge_list(
    n: int,
    edges: np.ndarray,
    vwgt: np.ndarray | None = None,
    ewgt: np.ndarray | None = None,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an (m, 2) undirected edge list."""
    edges = np.asarray(edges, dtype=np.int64)
    m = edges.shape[0]
    if ewgt is None:
        ewgt = np.ones(m, dtype=np.float64)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    w = np.concatenate([ewgt, ewgt])
    order = np.argsort(src, kind="stable")
    src, dst, w = src[order], dst[order], w[order]
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.add.at(xadj, src + 1, 1)
    xadj = np.cumsum(xadj)
    if vwgt is None:
        vwgt = np.ones(n, dtype=np.float64)
    return CSRGraph(xadj=xadj, adjncy=dst, vwgt=np.asarray(vwgt, dtype=np.float64), ewgt=w)


def mesh_cell_graph(mesh: Mesh, weight_by_halo: bool = True) -> CSRGraph:
    """The cell-adjacency graph of a mesh, for domain decomposition.

    Vertex weights are 1 (every cell carries the same column of work); edge
    weights default to 1 (every cut edge contributes one halo cell pair).
    """
    ewgt = np.ones(mesh.ne, dtype=np.float64) if weight_by_halo else None
    return from_edge_list(mesh.nc, mesh.edge_cells, ewgt=ewgt)
