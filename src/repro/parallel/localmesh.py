"""Per-rank local meshes with remapped indirect addressing.

Each rank holds a :class:`~repro.grid.mesh.Mesh`-compatible view of its
owned cells plus a **two-ring** cell halo, all edges incident to the
owned+first-ring cells, and all vertices of those cells.  The second
cell ring exists because the vertical mass flux at first-ring halo cells
(consumed by the vertical advection of owned-edge momentum) needs the
mass flux divergence there, which interpolates ``dpi`` across the halo
cells' outer edges — exactly the dependency chain real C-grid MPI models
size their halos for.

The contract: after one halo exchange, every operator output is **valid
on owned entities and on first-ring cells**; anything further out is
garbage and must never be consumed without another exchange.  The
distributed driver is tested against the serial solver under this
contract (owned results match to round-off).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.grid.mesh import PAD, Mesh
from repro.partition.decomposition import Subdomain, halo_lists


@dataclass
class LocalMesh:
    """A rank's local mesh view plus global<->local maps.

    ``mesh`` is a real :class:`Mesh` instance restricted to the local
    entities, so a :func:`~repro.dycore.stencil.compiled_kernels` plan
    compiles and runs on it unchanged.  ``cells``/``edges``/``vertices``
    map local -> global ids; owned entities lead the local numbering.
    """

    rank: int
    mesh: Mesh
    cells: np.ndarray
    edges: np.ndarray
    vertices: np.ndarray
    n_owned_cells: int
    n_owned_edges: int
    # Exchange lists (local indices), covering both halo rings.
    cell_send: dict = field(default_factory=dict)
    cell_recv: dict = field(default_factory=dict)
    edge_send: dict = field(default_factory=dict)
    edge_recv: dict = field(default_factory=dict)
    #: Declared cell-halo depth (see the module docstring: owned + two
    #: rings, valid-after-exchange on the first ring).  The analyzer's
    #: SW007 rule checks kernel access specs against this.
    halo_rings: int = 2

    @property
    def n_cells(self) -> int:
        return self.cells.size

    @property
    def n_edges(self) -> int:
        return self.edges.size

    def scatter_cell_field(self, global_field: np.ndarray) -> np.ndarray:
        """Restrict a global cell field to this rank's local numbering."""
        return np.array(global_field[self.cells], copy=True)

    def scatter_edge_field(self, global_field: np.ndarray) -> np.ndarray:
        return np.array(global_field[self.edges], copy=True)


def build_local_meshes(
    mesh: Mesh, subdomains: list[Subdomain], part: np.ndarray
) -> list[LocalMesh]:
    """Build every rank's :class:`LocalMesh` from a 1-ring decomposition.

    ``part`` is the cell partition the subdomains were built from (used
    for entity ownership: an edge belongs to the rank owning its c1).
    The second cell ring is derived here.
    """
    edge_owner = part[mesh.edge_cells[:, 0]]
    locals_: list[LocalMesh] = []

    for sub in subdomains:
        ring01 = sub.local_cells                          # owned + halo1
        nbrs = mesh.cell_neighbors[ring01[sub.n_owned:]]
        ring2 = np.setdiff1d(nbrs[nbrs != PAD], ring01)
        cells = np.concatenate([ring01, ring2])

        # Edges: all edges incident to owned + first-ring cells, owned first.
        e_all = mesh.cell_edges[ring01]
        e_all = np.unique(e_all[e_all != PAD])
        own_mask = edge_owner[e_all] == sub.rank
        edges = np.concatenate([e_all[own_mask], e_all[~own_mask]])

        # Vertices of the owned + first-ring cells.
        v_all = mesh.cell_vertices[ring01]
        vertices = np.unique(v_all[v_all != PAD])

        # Edge endpoints always resolve in the taken mesh: both cells of
        # any local edge lie within owned+ring1+ring2.
        locals_.append(
            LocalMesh(
                rank=sub.rank,
                mesh=mesh.take(cells, edges, vertices),
                cells=cells,
                edges=edges,
                vertices=vertices,
                n_owned_cells=sub.n_owned,
                n_owned_edges=int(own_mask.sum()),
            )
        )

    # Every non-owned local cell (both rings) and edge is received from
    # its owning rank; owners mirror into send lists.
    cell_send, cell_recv = halo_lists(
        [lm.cells for lm in locals_],
        [lm.n_owned_cells for lm in locals_],
        part,
    )
    edge_send, edge_recv = halo_lists(
        [lm.edges for lm in locals_],
        [lm.n_owned_edges for lm in locals_],
        edge_owner,
    )
    for lm in locals_:
        lm.cell_send, lm.cell_recv = cell_send[lm.rank], cell_recv[lm.rank]
        lm.edge_send, lm.edge_recv = edge_send[lm.rank], edge_recv[lm.rank]
    return locals_
