"""Horizontal domain decomposition (the paper's METIS-based layer).

The paper partitions GRIST's unstructured mesh with METIS to balance load
and minimise halo communication.  METIS is not available here, so
:mod:`repro.partition.metis` implements a from-scratch multilevel k-way
partitioner with the same structure (heavy-edge-matching coarsening,
greedy initial partitioning, Fiduccia–Mattheyses-style boundary
refinement), and :mod:`repro.partition.decomposition` turns a partition
into per-rank subdomains with halo layers; its ``halo_lists`` is the one
builder of send/recv index lists, for cells and edges alike.
"""

from repro.partition.decomposition import Subdomain, decompose
from repro.partition.graph import CSRGraph, mesh_cell_graph
from repro.partition.metis import edge_cut, partition_balance, partition_graph

__all__ = [
    "CSRGraph",
    "mesh_cell_graph",
    "partition_graph",
    "edge_cut",
    "partition_balance",
    "Subdomain",
    "decompose",
]
