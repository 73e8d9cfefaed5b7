"""Per-rank subdomains with halo layers.

Given a mesh and a cell partition, :func:`decompose` builds, for every
rank, the owned-cell set, the halo cells (one ring of remote neighbours)
and the send/recv lists of the aggregated halo exchange.
:func:`halo_lists` is the one builder of such lists; the rank-local
meshes of :mod:`repro.parallel.localmesh` use it for their two-ring cell
halo and their edge halo too.

Ownership conventions (matching common C-grid practice): a cell is owned
by its partition rank, an edge by the rank of its first cell
(``edge_cells[:, 0]``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.grid.mesh import Mesh, PAD
from repro.partition.graph import mesh_cell_graph
from repro.partition.metis import partition_graph


@dataclass
class Subdomain:
    """One rank's view of the decomposed mesh.

    ``local_cells`` lists global ids: owned cells first, then halo cells.
    ``send_cells[r]`` are *local* indices (into the owned range) this rank
    sends to rank ``r``; ``recv_cells[r]`` are local indices (into the halo
    range) filled from rank ``r``.
    """

    rank: int
    local_cells: np.ndarray            # (nloc,) global ids; owned then halo
    n_owned: int
    send_cells: dict = field(default_factory=dict)   # rank -> local idx array
    recv_cells: dict = field(default_factory=dict)   # rank -> local idx array
    #: Declared halo depth in cell rings.  Kernel reads must not reach
    #: past this — the static analyzer's halo-consistency rule (SW007)
    #: checks declared kernel access specs against it.
    halo_rings: int = 1

    @property
    def n_halo(self) -> int:
        return self.local_cells.size - self.n_owned

    @property
    def neighbor_ranks(self) -> list[int]:
        return sorted(set(self.send_cells) | set(self.recv_cells))

    def halo_volume(self) -> int:
        """Total number of cell values sent per exchange (one variable)."""
        return int(sum(v.size for v in self.send_cells.values()))


def halo_lists(
    local_ids: list[np.ndarray], n_owned: list[int], owner: np.ndarray
) -> tuple[list[dict], list[dict]]:
    """Send and recv index lists of every rank, for one entity kind.

    ``local_ids[r]`` are rank ``r``'s global ids, its ``n_owned[r]`` owned
    ones first and ghosts after; ``owner[g]`` is the rank owning global id
    ``g``.  Every ghost is received from its owner, grouped by owner in
    local order, and the owner's send list holds the same entities in the
    same order.  Returns ``(send, recv)`` with ``send[r][peer]`` and
    ``recv[r][peer]`` local index arrays.
    """
    index_at_owner = np.full(owner.size, -1, dtype=np.int64)
    for ids, n in zip(local_ids, n_owned):
        index_at_owner[ids[:n]] = np.arange(n)
    send: list[dict] = [{} for _ in local_ids]
    recv: list[dict] = [{} for _ in local_ids]
    for rank, (ids, n) in enumerate(zip(local_ids, n_owned)):
        ghosts = ids[n:]
        ghost_owner = owner[ghosts]
        for peer in np.unique(ghost_owner).tolist():
            sel = np.flatnonzero(ghost_owner == peer)
            recv[rank][peer] = n + sel
            at_peer = index_at_owner[ghosts[sel]]
            if at_peer.min() < 0:
                raise RuntimeError("halo entity not owned by its source rank")
            send[peer][rank] = at_peer
    return send, recv


def decompose(
    mesh: Mesh,
    nparts: int,
    part: np.ndarray | None = None,
    seed: int = 0,
) -> list[Subdomain]:
    """Decompose ``mesh`` into ``nparts`` subdomains with 1-ring halos.

    If ``part`` is not given, the cells are partitioned with the built-in
    multilevel partitioner.
    """
    if part is None:
        part = partition_graph(mesh_cell_graph(mesh), nparts, seed=seed)
    part = np.asarray(part, dtype=np.int64)
    if part.shape != (mesh.nc,):
        raise ValueError("part must assign a rank to every cell")
    if part.min() < 0 or part.max() >= nparts:
        raise ValueError("part values out of range")

    local_cells: list[np.ndarray] = []
    n_owned: list[int] = []
    for rank in range(nparts):
        owned = np.where(part == rank)[0]
        nbrs = mesh.cell_neighbors[owned]
        nbrs = nbrs[nbrs != PAD]
        halo = np.unique(nbrs[part[nbrs] != rank])
        local_cells.append(np.concatenate([owned, halo]))
        n_owned.append(owned.size)
    send, recv = halo_lists(local_cells, n_owned, part)
    return [
        Subdomain(
            rank=rank,
            local_cells=local_cells[rank],
            n_owned=n_owned[rank],
            send_cells=send[rank],
            recv_cells=recv[rank],
        )
        for rank in range(nparts)
    ]


def decomposition_stats(subdomains: list[Subdomain]) -> dict:
    """Summary statistics used by the scaling model and benchmarks."""
    owned = np.array([s.n_owned for s in subdomains])
    halo = np.array([s.n_halo for s in subdomains])
    nbrs = np.array([len(s.neighbor_ranks) for s in subdomains])
    return {
        "nparts": len(subdomains),
        "max_owned": int(owned.max()),
        "min_owned": int(owned.min()),
        "mean_owned": float(owned.mean()),
        "imbalance": float(owned.max() / owned.mean()),
        "min_over_mean": float(owned.min() / owned.mean()),
        "mean_halo": float(halo.mean()),
        "max_halo": int(halo.max()),
        "mean_neighbors": float(nbrs.mean()),
        "total_halo_volume": int(sum(s.halo_volume() for s in subdomains)),
    }
