"""Parallelization facilitation layer (paper section 3.1.3).

A simulated message-passing runtime standing in for MPI:

* :mod:`repro.comm.message` — ranked processes exchanging NumPy buffers,
  with message/byte accounting;
* :mod:`repro.comm.topology` — the next-generation Sunway fat-tree
  (256-node supernodes, 16:3 oversubscription) as an alpha-beta model.

The aggregated halo exchange that runs on this runtime (every registered
variable of a neighbour pair in a *single* message) is
:class:`repro.parallel.exchange.EdgeCellExchanger`.
"""

from repro.comm.message import CommStats, Communicator
from repro.comm.topology import SUNWAY_TOPOLOGY, FatTreeTopology

__all__ = [
    "Communicator",
    "CommStats",
    "FatTreeTopology",
    "SUNWAY_TOPOLOGY",
]
