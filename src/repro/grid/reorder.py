"""Breadth-first-search index reordering (paper section 3.1.3).

GRIST maps the unstructured grid through indirect addressing and optimises
the index sequence with BFS so neighbouring cells land close together in
memory, improving cache hit rates.  ``reorder_mesh`` applies the same idea
to a :class:`~repro.grid.mesh.Mesh`, renumbering cells, then edges and
vertices to follow the new cell order.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.grid.mesh import Mesh, PAD


def bfs_cell_order(mesh: Mesh, start: int = 0) -> np.ndarray:
    """BFS ordering of cells from ``start``.

    Returns ``order`` such that ``order[k]`` is the old index of the cell
    placed at new position ``k``.  The traversal covers all cells (the
    icosahedral mesh is connected).
    """
    if not (0 <= start < mesh.nc):
        raise ValueError(f"start cell {start} out of range [0, {mesh.nc})")
    visited = np.zeros(mesh.nc, dtype=bool)
    order = np.empty(mesh.nc, dtype=np.int64)
    queue: deque[int] = deque([start])
    visited[start] = True
    pos = 0
    while queue:
        c = queue.popleft()
        order[pos] = c
        pos += 1
        for nb in mesh.cell_neighbors[c]:
            if nb != PAD and not visited[nb]:
                visited[nb] = True
                queue.append(int(nb))
    if pos != mesh.nc:
        raise RuntimeError("mesh is not connected; BFS did not reach all cells")
    return order


def reorder_mesh(mesh: Mesh, cell_order: np.ndarray | None = None) -> tuple[Mesh, dict]:
    """Renumber the mesh so cells follow ``cell_order`` (default: BFS).

    Edges and vertices are renumbered by their lowest-numbered incident
    cell (ties broken by the second), which keeps all three index spaces
    coherent for cache locality.

    Returns the new mesh and a dict of permutations
    ``{"cell": ..., "edge": ..., "vertex": ...}`` mapping new -> old.
    """
    if cell_order is None:
        cell_order = bfs_cell_order(mesh)
    cell_order = np.asarray(cell_order, dtype=np.int64)
    if sorted(cell_order.tolist()) != list(range(mesh.nc)):
        raise ValueError("cell_order must be a permutation of all cells")
    new_of_cell = np.empty_like(cell_order)
    new_of_cell[cell_order] = np.arange(mesh.nc)

    # Edge order: sort by (min new cell, max new cell).
    key = np.sort(new_of_cell[mesh.edge_cells], axis=1)
    edge_order = np.lexsort((key[:, 1], key[:, 0]))

    # Vertex order: sort by the minimum new cell index of the triangle.
    vkey = np.sort(new_of_cell[mesh.vertex_cells], axis=1)
    vertex_order = np.lexsort((vkey[:, 2], vkey[:, 1], vkey[:, 0]))

    perms = {"cell": cell_order, "edge": edge_order, "vertex": vertex_order}
    return mesh.take(cell_order, edge_order, vertex_order), perms


def bandwidth(mesh: Mesh) -> float:
    """Mean |c1 - c2| index distance over edges — a locality metric.

    BFS reordering reduces this relative to an arbitrary numbering, which
    is the mechanism behind the paper's cache-hit-rate improvement.
    """
    return float(np.abs(mesh.edge_cells[:, 0] - mesh.edge_cells[:, 1]).mean())
