"""Distributed-memory execution of the dynamical core.

This package closes the loop on the parallelization facilitation layer:
rather than only *describing* the decomposition, it actually runs the
solver rank-by-rank:

* :mod:`repro.parallel.localmesh` — per-rank local meshes (owned + halo
  cells, their edges and vertices) with remapped indirect addressing, the
  in-memory analogue of GRIST's distributed grid structures;
* :mod:`repro.parallel.exchange` — a generic aggregated exchanger for
  cell- and edge-indexed fields built on the simulated communicator;
* :mod:`repro.parallel.driver` — :class:`DistributedDycore`: the serial
  solver's tendency code and RK update executed per rank between halo
  exchanges, bitwise-verifiable against the serial result.
"""

from repro.parallel.driver import DistributedDycore
from repro.parallel.exchange import EdgeCellExchanger
from repro.parallel.executor import ProcessRankExecutor, SerialRankExecutor
from repro.parallel.localmesh import LocalMesh, build_local_meshes

__all__ = [
    "LocalMesh",
    "build_local_meshes",
    "EdgeCellExchanger",
    "DistributedDycore",
    "SerialRankExecutor",
    "ProcessRankExecutor",
]
