"""Fat-tree network model of the next-generation Sunway interconnect.

From the paper (section 4.1):

    "each node ... has a dedicated network connection to a leaf switch
    with 304 ports.  Of these, 256 ports are connected to nodes, and 48
    are connected to secondary switches.  Each 256-processor node group
    connected to the same leaf switch forms a super node ...  All
    supernodes are connected through a 16:3 (256:48) oversubscribed
    multilayer fat tree network."

The model is alpha-beta with two regimes (same supernode / cross
supernode) plus an oversubscription contention factor applied to
cross-supernode traffic when many processes communicate simultaneously.
It drives the weak/strong scaling reproduction (Figs. 10-11).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FatTreeTopology:
    """Alpha-beta fat-tree model with supernode locality.

    Parameters are per-link; times are seconds.
    """

    nodes_per_supernode: int = 256
    processes_per_node: int = 6          # one process per CG on SW26010P
    oversubscription: float = 256.0 / 48.0   # 16:3
    latency_intra_super: float = 3.0e-6
    latency_inter_super: float = 6.0e-6
    bandwidth_intra_super: float = 16.0e9    # B/s, one switch hop
    bandwidth_inter_super: float = 14.0e9    # B/s per link before contention

    @property
    def processes_per_supernode(self) -> int:
        return self.nodes_per_supernode * self.processes_per_node

    def contention_factor(self, nprocs: int, cross_fraction: float) -> float:
        """Effective slowdown of cross-supernode bandwidth.

        When the job spans more than one supernode, the 16:3 uplink
        oversubscription throttles simultaneous cross-supernode traffic.
        ``cross_fraction`` is the fraction of halo bytes that leave the
        supernode; the factor interpolates between 1 (all local) and the
        full oversubscription ratio (all traffic on uplinks at once).
        """
        if nprocs <= self.processes_per_supernode:
            return 1.0
        return 1.0 + (self.oversubscription - 1.0) * float(np.clip(cross_fraction, 0.0, 1.0))

    def exchange_time(
        self,
        nprocs: int,
        messages_per_rank: float,
        bytes_per_rank: float,
        cross_fraction: float | None = None,
    ) -> float:
        """Time for one bulk halo exchange step across the whole job.

        Every rank sends ``messages_per_rank`` messages totalling
        ``bytes_per_rank`` bytes; the step completes when the slowest rank
        finishes.  ``cross_fraction`` defaults to a geometric estimate:
        with P ranks in S supernodes, a METIS-like partition keeps
        neighbours mostly local, but the boundary fraction grows with the
        number of supernodes spanned.
        """
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if nprocs == 1:
            return 0.0
        nsuper = max(1, int(np.ceil(nprocs / self.processes_per_supernode)))
        if cross_fraction is None:
            if nsuper == 1:
                cross_fraction = 0.0
            else:
                # Fraction of a rank's neighbours that fall outside its
                # supernode: surface-to-volume of the supernode's patch of
                # the sphere, saturating as supernodes shrink relative to
                # the halo ring.
                cross_fraction = min(1.0, 1.35 * (self.processes_per_supernode) ** -0.5
                                     + 0.02 * np.log2(nsuper))
        factor = self.contention_factor(nprocs, cross_fraction)
        local_bytes = bytes_per_rank * (1.0 - cross_fraction)
        cross_bytes = bytes_per_rank * cross_fraction
        t_lat = messages_per_rank * (
            (1.0 - cross_fraction) * self.latency_intra_super
            + cross_fraction * self.latency_inter_super
        )
        t_bw = (
            local_bytes / self.bandwidth_intra_super
            + cross_bytes * factor / self.bandwidth_inter_super
        )
        return t_lat + t_bw


#: The topology of the next-generation Sunway system as described in 4.1.
SUNWAY_TOPOLOGY = FatTreeTopology()
