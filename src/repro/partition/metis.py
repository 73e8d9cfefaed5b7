"""Multilevel k-way graph partitioner (from-scratch METIS substitute).

Implements the classic three-phase multilevel scheme METIS popularised
(Karypis & Kumar 1998), which the paper uses for GRIST's horizontal
domain decomposition:

1. **Coarsening** — repeated heavy-edge matching collapses the graph
   until it is small.
2. **Initial partitioning** — greedy region growing from spread-out seeds
   produces a balanced k-way partition of the coarsest graph.
3. **Uncoarsening + refinement** — the partition is projected back level
   by level and improved with Fiduccia–Mattheyses-style boundary moves
   (positive-gain moves subject to a balance constraint).

The partitioner targets quality, not raw speed: on the mesh sizes used in
tests (up to ~40k cells) it runs in seconds and produces partitions whose
edge cut is within a small factor of METIS's.
"""

from __future__ import annotations

import numpy as np

from repro.partition.graph import CSRGraph


def edge_cut(graph: CSRGraph, part: np.ndarray) -> float:
    """Total weight of edges whose endpoints lie in different parts."""
    src = np.repeat(np.arange(graph.n), np.diff(graph.xadj))
    cut = part[src] != part[graph.adjncy]
    return float(graph.ewgt[cut].sum()) / 2.0


def partition_balance(graph: CSRGraph, part: np.ndarray, nparts: int) -> tuple[float, float]:
    """(min, max) part weight over ideal part weight (1.0 = perfectly balanced)."""
    weights = np.bincount(part, weights=graph.vwgt, minlength=nparts)
    ideal = graph.vwgt.sum() / nparts
    return float(weights.min() / ideal), float(weights.max() / ideal)


def _bounds(graph: CSRGraph, nparts: int, max_imbalance: float) -> tuple[float, float]:
    """Allowed (lightest, heaviest) part weight: ideal times 2 - r and r."""
    ideal = graph.vwgt.sum() / nparts
    return (2.0 - max_imbalance) * ideal, max_imbalance * ideal


# --------------------------------------------------------------------------
# Phase 1: coarsening by heavy-edge matching
# --------------------------------------------------------------------------

def _heavy_edge_matching(graph: CSRGraph, rng: np.random.Generator) -> np.ndarray:
    """Match each vertex with its heaviest unmatched neighbour.

    Returns ``match`` where matched pairs point at each other and
    unmatched vertices point at themselves.
    """
    n = graph.n
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    xadj, adjncy, ewgt = graph.xadj, graph.adjncy, graph.ewgt
    for v in order:
        if match[v] != -1:
            continue
        best, best_w = -1, -1.0
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if u != v and match[u] == -1 and ewgt[idx] > best_w:
                best, best_w = u, ewgt[idx]
        if best == -1:
            match[v] = v
        else:
            match[v] = best
            match[best] = v
    return match


def _coarsen(graph: CSRGraph, match: np.ndarray) -> tuple[CSRGraph, np.ndarray]:
    """Collapse matched pairs into coarse vertices.

    Returns the coarse graph and the fine->coarse projection map.
    """
    n = graph.n
    # Assign coarse ids: the lower-numbered endpoint of each pair owns it.
    owner = np.minimum(np.arange(n), match)
    uniq, cmap = np.unique(owner, return_inverse=True)
    nc = uniq.size
    cvwgt = np.bincount(cmap, weights=graph.vwgt, minlength=nc)
    # Aggregate edges between coarse vertices.
    src = np.repeat(np.arange(n), np.diff(graph.xadj))
    cs, cd = cmap[src], cmap[graph.adjncy]
    keep = cs != cd
    cs, cd, w = cs[keep], cd[keep], graph.ewgt[keep]
    key = cs * nc + cd
    uk, inv = np.unique(key, return_inverse=True)
    agg = np.bincount(inv, weights=w)
    csrc = (uk // nc).astype(np.int64)
    cdst = (uk % nc).astype(np.int64)
    order = np.argsort(csrc, kind="stable")
    csrc, cdst, agg = csrc[order], cdst[order], agg[order]
    xadj = np.zeros(nc + 1, dtype=np.int64)
    np.add.at(xadj, csrc + 1, 1)
    xadj = np.cumsum(xadj)
    coarse = CSRGraph(xadj=xadj, adjncy=cdst, vwgt=cvwgt, ewgt=agg)
    return coarse, cmap


# --------------------------------------------------------------------------
# Phase 2: initial partition by greedy region growing
# --------------------------------------------------------------------------

def _grow_initial_partition(
    graph: CSRGraph, nparts: int, rng: np.random.Generator
) -> np.ndarray:
    """Grow ``nparts`` regions from spread seeds until weights balance."""
    n = graph.n
    part = np.full(n, -1, dtype=np.int64)
    total = graph.vwgt.sum()
    target = total / nparts
    # Seeds: BFS-spread — first seed random, each next seed is the vertex
    # farthest (in hops) from all current seeds.
    seeds = [int(rng.integers(n))]
    dist = _bfs_distance(graph, seeds[0])
    for _ in range(1, nparts):
        cand = int(np.argmax(np.where(part == -1, dist, -1)))
        seeds.append(cand)
        dist = np.minimum(dist, _bfs_distance(graph, cand))
    weights = np.zeros(nparts)
    # Frontier-driven growth, one part at a time round-robin so late parts
    # are not starved.
    import heapq

    heaps: list[list[tuple[float, int]]] = [[] for _ in range(nparts)]
    for p, s in enumerate(seeds):
        part[s] = p
        weights[p] += graph.vwgt[s]
        for idx in range(graph.xadj[s], graph.xadj[s + 1]):
            heapq.heappush(heaps[p], (-graph.ewgt[idx], int(graph.adjncy[idx])))
    remaining = n - nparts
    while remaining > 0:
        # Pick the lightest part that still has a frontier.
        order = np.argsort(weights)
        progressed = False
        for p in order:
            grew = False
            while heaps[p]:
                _, v = heapq.heappop(heaps[p])
                if part[v] != -1:
                    continue
                part[v] = p
                weights[p] += graph.vwgt[v]
                remaining -= 1
                for idx in range(graph.xadj[v], graph.xadj[v + 1]):
                    u = int(graph.adjncy[idx])
                    if part[u] == -1:
                        heapq.heappush(heaps[p], (-graph.ewgt[idx], u))
                grew = True
                break
            if grew:
                progressed = True
                break
        if not progressed:
            # Disconnected leftovers: assign to the lightest part.
            leftovers = np.where(part == -1)[0]
            for v in leftovers:
                p = int(np.argmin(weights))
                part[v] = p
                weights[p] += graph.vwgt[v]
            remaining = 0
    _ = target  # target used implicitly through lightest-part policy
    return part


def _bfs_distance(graph: CSRGraph, start: int) -> np.ndarray:
    from collections import deque

    dist = np.full(graph.n, np.iinfo(np.int64).max, dtype=np.int64)
    dist[start] = 0
    q = deque([start])
    while q:
        v = q.popleft()
        for u in graph.neighbors(v):
            if dist[u] > dist[v] + 1:
                dist[u] = dist[v] + 1
                q.append(int(u))
    return dist


# --------------------------------------------------------------------------
# Phase 3: FM-style boundary refinement
# --------------------------------------------------------------------------

def _refine(
    graph: CSRGraph,
    part: np.ndarray,
    nparts: int,
    max_imbalance: float,
    passes: int = 4,
) -> np.ndarray:
    """Greedy positive-gain boundary moves that keep every part in bounds."""
    part = part.copy()
    weights = np.bincount(part, weights=graph.vwgt, minlength=nparts)
    lower, limit = _bounds(graph, nparts, max_imbalance)
    xadj, adjncy, ewgt, vwgt = graph.xadj, graph.adjncy, graph.ewgt, graph.vwgt
    for _ in range(passes):
        moved = 0
        # Boundary vertices only.
        src = np.repeat(np.arange(graph.n), np.diff(xadj))
        boundary = np.unique(src[part[src] != part[adjncy]])
        for v in boundary:
            p = part[v]
            nbrs = adjncy[xadj[v]: xadj[v + 1]]
            ws = ewgt[xadj[v]: xadj[v + 1]]
            conn = np.bincount(part[nbrs], weights=ws, minlength=nparts)
            internal = conn[p]
            conn[p] = -np.inf
            q = int(np.argmax(conn))
            gain = conn[q] - internal
            if gain <= 0:
                continue
            if weights[q] + vwgt[v] > limit:
                continue
            # Keep the source part at or above the lower bound, and non-empty.
            if weights[p] - vwgt[v] < lower or weights[p] - vwgt[v] <= 0:
                continue
            part[v] = q
            weights[p] -= vwgt[v]
            weights[q] += vwgt[v]
            moved += 1
        if moved == 0:
            break
    return part


def _rebalance(
    graph: CSRGraph, part: np.ndarray, nparts: int, max_imbalance: float
) -> np.ndarray:
    """Move lowest-loss boundary vertices out of overweight parts, then
    into underweight ones, one vertex at a time."""
    part = part.copy()
    weights = np.bincount(part, weights=graph.vwgt, minlength=nparts)
    lower, limit = _bounds(graph, nparts, max_imbalance)
    vwgt = graph.vwgt
    src = np.repeat(np.arange(graph.n), np.diff(graph.xadj))
    for _ in range(graph.n):
        over = np.where(weights > limit)[0]
        under = np.where(weights < lower)[0]
        if over.size:
            p = int(over[np.argmax(weights[over])])
            v, q = _cheapest_exit(graph, part, weights, p, limit)
        elif under.size:
            q = int(under[np.argmin(weights[under])])
            v = _cheapest_entry(graph, part, weights, q, lower, limit, src)
            p = int(part[v])
        else:
            break
        if v == -1:
            break
        part[v] = q
        weights[p] -= vwgt[v]
        weights[q] += vwgt[v]
    return part


def _cheapest_exit(graph, part, weights, p, limit):
    """The member of overweight part ``p`` whose move to a neighbouring
    part within ``limit`` adds the least cut: ``(vertex, part)``, or
    ``(-1, -1)``."""
    xadj, adjncy, ewgt, vwgt = graph.xadj, graph.adjncy, graph.ewgt, graph.vwgt
    best_v, best_q, best_loss = -1, -1, np.inf
    for v in np.where(part == p)[0]:
        nbrs = adjncy[xadj[v]: xadj[v + 1]]
        ws = ewgt[xadj[v]: xadj[v + 1]]
        conn = np.bincount(part[nbrs], weights=ws, minlength=weights.size)
        internal = conn[p]
        conn[p] = -np.inf
        for q in np.argsort(conn)[::-1][:3]:
            q = int(q)
            if q == p or weights[q] + vwgt[v] > limit:
                continue
            loss = internal - conn[q]
            if loss < best_loss:
                best_v, best_q, best_loss = int(v), q, loss
            break
    return best_v, best_q


def _cheapest_entry(graph, part, weights, q, lower, limit, src):
    """The neighbour of underweight part ``q`` whose move into ``q``
    adds the least cut while its own part stays at or above ``lower``
    and ``q`` within ``limit``, or -1."""
    adjncy, ewgt, vwgt = graph.adjncy, graph.ewgt, graph.vwgt
    cross = (part[adjncy] == q) & (part[src] != q)
    cands = np.unique(src[cross])
    ok = (weights[part[cands]] - vwgt[cands] >= lower) & (weights[q] + vwgt[cands] <= limit)
    if not ok.any():
        return -1
    same = part[src] == part[adjncy]
    internal = np.bincount(src[same], weights=ewgt[same], minlength=graph.n)
    to_q = np.bincount(src[cross], weights=ewgt[cross], minlength=graph.n)
    loss = np.where(ok, internal[cands] - to_q[cands], np.inf)
    return int(cands[np.argmin(loss)])


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def partition_graph(
    graph: CSRGraph,
    nparts: int,
    seed: int = 0,
    max_imbalance: float = 1.05,
    coarsen_to: int | None = None,
) -> np.ndarray:
    """Partition ``graph`` into ``nparts`` balanced parts, minimising cut.

    Parameters
    ----------
    graph : CSRGraph
    nparts : int
        Number of parts (MPI processes / core groups).
    seed : int
        RNG seed for matching and seeding — partitions are reproducible.
    max_imbalance : float
        Allowed ratio of max part weight to ideal weight; the lightest
        part may weigh no less than ``2 - max_imbalance`` of ideal.
    coarsen_to : int, optional
        Stop coarsening when the graph has at most this many vertices
        (default ``max(20 * nparts, 200)``).

    Returns
    -------
    part : (n,) int64 array of part assignments in ``[0, nparts)``.
    """
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    if nparts == 1:
        return np.zeros(graph.n, dtype=np.int64)
    if nparts > graph.n:
        raise ValueError(f"cannot split {graph.n} vertices into {nparts} parts")
    rng = np.random.default_rng(seed)
    if coarsen_to is None:
        coarsen_to = max(20 * nparts, 200)

    # Coarsening.
    levels: list[tuple[CSRGraph, np.ndarray]] = []
    g = graph
    while g.n > coarsen_to:
        match = _heavy_edge_matching(g, rng)
        coarse, cmap = _coarsen(g, match)
        if coarse.n >= g.n * 0.95:  # matching stalled
            break
        levels.append((g, cmap))
        g = coarse

    # Initial partition on the coarsest graph.
    part = _grow_initial_partition(g, nparts, rng)
    part = _rebalance(g, part, nparts, max_imbalance)
    part = _refine(g, part, nparts, max_imbalance)

    # Uncoarsen with refinement at each level.
    for fine, cmap in reversed(levels):
        part = part[cmap]
        part = _rebalance(fine, part, nparts, max_imbalance)
        part = _refine(fine, part, nparts, max_imbalance)
    return part
