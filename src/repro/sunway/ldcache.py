"""Set-associative LDCache simulator (paper sections 3.3 and 3.3.3, Fig. 6).

Half of each CPE's 256 KB LDM can be configured as a one-level 4-way
group-associative cache.  The paper found that kernels touching more than
four arrays per loop iteration thrash the cache when the arrays are
aligned to a size larger than one cache way and accessed with similar
indices — every array maps to the same cache lane and the ways are
over-subscribed.

:class:`LDCache` is a faithful LRU set-associative simulator;
:func:`loop_access_stream` builds the address stream of a GRIST-style loop
(K arrays read at the same running index) so the thrashing and its fix can
be measured rather than asserted.

Two replay paths share the same cache state:

* :meth:`LDCache.run` — the scalar reference oracle, one
  :meth:`LDCache.access` per address;
* :meth:`LDCache.run_batch` — the vectorized fast path: addresses are
  grouped by set and all per-set segments are replayed in lockstep
  "rounds" (round *r* applies every set's *r*-th access in one NumPy
  step).  Accesses to different sets commute — each set owns its
  tag/age state and the stats are integer sums — so the batch replay is
  *bitwise identical* to the scalar loop: same :class:`CacheStats`,
  same final tag and age arrays.  The property suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import SpanKind, get_metrics, get_tracer


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    #: Valid lines displaced by a miss (cold-miss fills don't count).
    evictions: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class LDCache:
    """LRU set-associative cache over byte addresses.

    Default geometry matches the configured LDCache: 128 KB, 4 ways,
    256-byte lines -> 128 sets, way size 32 KB.
    """

    def __init__(self, size_bytes: int = 128 * 1024, ways: int = 4, line_bytes: int = 256):
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError("size must be a multiple of ways * line size")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.n_sets = size_bytes // (ways * line_bytes)
        # tags[set][way]; lru[set][way] = age (0 most recent)
        self._tags = np.full((self.n_sets, ways), -1, dtype=np.int64)
        self._age = np.zeros((self.n_sets, ways), dtype=np.int64)
        self.stats = CacheStats()

    @property
    def way_bytes(self) -> int:
        """Bytes covered by one way (the alignment hazard size, 32 KB)."""
        return self.n_sets * self.line_bytes

    def set_of(self, addr: int) -> int:
        """Cache set the byte address ``addr`` maps to."""
        return (addr // self.line_bytes) % self.n_sets

    def reset(self) -> None:
        self._tags.fill(-1)
        self._age.fill(0)
        self.stats = CacheStats()

    def access(self, addr: int) -> bool:
        """Access one byte address; returns True on hit."""
        line = addr // self.line_bytes
        s = line % self.n_sets
        tag = line // self.n_sets
        tags = self._tags[s]
        age = self._age[s]
        self.stats.accesses += 1
        hit_ways = np.where(tags == tag)[0]
        if hit_ways.size:
            w = hit_ways[0]
            age[age < age[w]] += 1
            age[w] = 0
            self.stats.hits += 1
            return True
        # Miss: evict LRU way.
        w = int(np.argmax(age))
        if tags[w] != -1:
            self.stats.evictions += 1
        tags[w] = tag
        age += 1
        age[w] = 0
        return False

    def occupancy(self) -> int:
        """Number of valid lines currently resident (<= sets * ways)."""
        return int(np.count_nonzero(self._tags != -1))

    def run(self, addresses: np.ndarray) -> CacheStats:
        """Run a stream of byte addresses; returns the cumulative stats.

        One replay = one CACHE trace span; hit/miss/evict deltas feed
        the active metrics registry.
        """
        before = (self.stats.accesses, self.stats.hits, self.stats.evictions)
        with get_tracer().span(
            "ldcache.run", SpanKind.CACHE, n_addresses=len(addresses)
        ) as span:
            # One bulk conversion instead of a per-element int() cast;
            # access() itself is dtype-agnostic over Python/NumPy ints.
            for a in np.asarray(addresses, dtype=np.int64).tolist():
                self.access(a)
            d_acc = self.stats.accesses - before[0]
            d_hit = self.stats.hits - before[1]
            d_evict = self.stats.evictions - before[2]
            span.set(hits=d_hit, misses=d_acc - d_hit, evictions=d_evict)
        self._emit_metrics(d_acc, d_hit, d_evict)
        return self.stats

    def _emit_metrics(self, d_acc: int, d_hit: int, d_evict: int) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("ldcache.accesses", d_acc)
            metrics.inc("ldcache.hits", d_hit)
            metrics.inc("ldcache.misses", d_acc - d_hit)
            metrics.inc("ldcache.evictions", d_evict)
            metrics.set_gauge("ldcache.occupancy_lines", self.occupancy())

    def run_batch(self, addresses: np.ndarray) -> CacheStats:
        """Vectorized replay of a byte-address stream.

        Bitwise-equivalent to :meth:`run` (same stats, same final
        tag/age arrays) but array-at-a-time: the stream is bucketed by
        cache set with one stable argsort, then all per-set segments are
        replayed in lockstep — round ``r`` performs every set's ``r``-th
        access as one vectorized LRU update over a ``(sets_active,
        ways)`` state slab.  Per-set access order is preserved and
        distinct sets share no state, so the reordering is exact.  The
        wall-clock win is the per-round set fan-out (up to ``n_sets``
        accesses per NumPy step instead of one).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        n = int(addresses.size)
        before = (self.stats.accesses, self.stats.hits, self.stats.evictions)
        with get_tracer().span(
            "ldcache.run_batch", SpanKind.CACHE, n_addresses=n
        ) as span:
            if n:
                self._replay_batch(addresses.ravel())
            d_acc = self.stats.accesses - before[0]
            d_hit = self.stats.hits - before[1]
            d_evict = self.stats.evictions - before[2]
            span.set(hits=d_hit, misses=d_acc - d_hit, evictions=d_evict)
        self._emit_metrics(d_acc, d_hit, d_evict)
        return self.stats

    def _replay_batch(self, addresses: np.ndarray) -> None:
        lines = addresses // self.line_bytes
        sets = lines % self.n_sets
        tags = lines // self.n_sets
        # Stable sort: per-set segments keep their original access order.
        order = np.argsort(sets, kind="stable")
        seg_tags = tags[order]
        uniq_sets, seg_start, counts = np.unique(
            sets[order], return_index=True, return_counts=True
        )
        # Longest segments first so each round's active sets are a prefix.
        by_len = np.argsort(-counts, kind="stable")
        uniq_sets, seg_start, counts = (
            uniq_sets[by_len], seg_start[by_len], counts[by_len]
        )
        hits = 0
        evictions = 0
        lanes = np.arange(uniq_sets.size)
        for r in range(int(counts[0])):
            a = int(np.searchsorted(-counts, -r - 1, side="right"))
            sidx = uniq_sets[:a]
            lane = lanes[:a]
            t_r = seg_tags[seg_start[:a] + r]            # (a,)
            T = self._tags[sidx]                         # (a, ways) copies
            A = self._age[sidx]
            match = T == t_r[:, None]
            is_hit = match.any(axis=1)
            # First matching way on a hit, first LRU-max way on a miss —
            # argmax picks the lowest index, same tie-break as access().
            w = np.where(is_hit, match.argmax(axis=1), A.argmax(axis=1))
            a_w = A[lane, w]
            # Hit rows age only the more-recent ways (age < age[w]);
            # miss rows age every way — exactly access()'s updates.
            A += np.where(is_hit[:, None], A < a_w[:, None], True)
            A[lane, w] = 0
            evicted = ~is_hit & (T[lane, w] != -1)
            T[lane, w] = np.where(is_hit, T[lane, w], t_r)
            self._tags[sidx] = T
            self._age[sidx] = A
            hits += int(is_hit.sum())
            evictions += int(evicted.sum())
        self.stats.accesses += int(addresses.size)
        self.stats.hits += hits
        self.stats.evictions += evictions


def loop_access_stream(
    base_addresses: list[int],
    n_iters: int,
    elem_bytes: int = 8,
    interleave: bool = True,
) -> np.ndarray:
    """Address stream of a loop reading K arrays at the same index.

    ``for i in range(n_iters): touch a1[i], a2[i], ..., aK[i]`` — the
    access pattern of GRIST's field loops (all arrays walk together).
    Returns a flat ``np.int64`` ndarray (never a Python list), ready for
    :meth:`LDCache.run_batch` without any per-element conversion.
    """
    bases = np.asarray(base_addresses, dtype=np.int64)
    idx = np.arange(n_iters, dtype=np.int64) * elem_bytes
    grid = bases[None, :] + idx[:, None]          # (n_iters, K)
    if interleave:
        return grid.ravel()
    return grid.T.ravel()


def loop_hit_ratio(
    base_addresses: list[int],
    n_iters: int,
    elem_bytes: int = 8,
    cache: LDCache | None = None,
) -> float:
    """Measured hit ratio of the canonical K-array loop on the LDCache."""
    if cache is None:
        cache = LDCache()
    else:
        cache.reset()
    stream = loop_access_stream(base_addresses, n_iters, elem_bytes)
    return cache.run_batch(stream).hit_ratio


def analytic_loop_hit_ratio(
    n_arrays: int,
    distributed: bool,
    elem_bytes: int = 8,
    line_bytes: int = 256,
    ways: int = 4,
) -> float:
    """Closed-form hit ratio of the K-array streaming loop.

    With address distribution (or K <= ways) each array's current line
    survives between iterations, so only the first touch of each line
    misses: hit ratio = 1 - elem/line.  Without distribution and
    K > ways, every access evicts a line another array still needs
    (classic thrashing): hit ratio collapses to the within-line reuse the
    eviction pattern happens to leave, which for LRU round-robin is 0.

    Used by the scaling model where simulating streams is too slow; the
    LDCache simulator validates it in tests.
    """
    per_line = line_bytes // elem_bytes
    streaming_hit = 1.0 - 1.0 / per_line
    if distributed or n_arrays <= ways:
        return streaming_hit
    return 0.0
