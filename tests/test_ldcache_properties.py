"""Property-based tests of the LDCache simulator.

Pure-pytest randomised properties: each case draws a random address
stream (seeded, so failures replay) against a random cache geometry and
checks the accounting invariants that must hold for *any* stream:

* ``hits + misses == accesses`` — every access is classified exactly once;
* ``misses - evictions == occupancy`` — every miss fills one line and
  every eviction displaces one valid line, so the cache can't "leak"
  or invent residency;
* occupancy never exceeds the geometric capacity nor the number of
  distinct lines touched;
* the set-index mapping spreads a uniform stream over all sets.
"""

import numpy as np
import pytest

from repro.sunway.ldcache import LDCache, loop_access_stream
from tests import contracts

GEOMETRIES = contracts.LDCACHE_GEOMETRIES


def random_streams(seed: int, n_cases: int = 6):
    """Generate (stream, span) pairs of varying footprint/locality."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        n = int(rng.integers(1, 5000))
        span = int(rng.integers(256, 1 << int(rng.integers(10, 22))) + 256)
        if rng.random() < 0.5:
            # Uniform random bytes: worst-case locality.
            stream = rng.integers(0, span, size=n)
        else:
            # Strided walks from random bases: GRIST-loop-like locality.
            base = int(rng.integers(0, span))
            stride = int(rng.integers(1, 64))
            stream = (base + stride * np.arange(n)) % span
        yield stream.astype(np.int64), span


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("seed", range(8))
def test_accounting_invariants(geometry, seed):
    size, ways, line = geometry
    for stream, _span in random_streams(seed):
        cache = LDCache(size_bytes=size, ways=ways, line_bytes=line)
        stats = cache.run(stream)

        # Every access is exactly one of hit/miss.
        assert stats.accesses == len(stream)
        assert stats.hits + stats.misses == stats.accesses
        assert 0 <= stats.hits <= stats.accesses
        assert 0.0 <= stats.hit_ratio <= 1.0

        # Conservation of residency: fills minus displacements.
        occ = cache.occupancy()
        assert stats.misses - stats.evictions == occ

        # Occupancy bounded by capacity and by the touched footprint.
        capacity = cache.n_sets * cache.ways
        distinct_lines = len(np.unique(stream // line))
        assert 0 <= occ <= capacity
        assert occ <= distinct_lines
        # No evictions can have happened before capacity pressure existed.
        if distinct_lines <= cache.ways:
            assert stats.evictions == 0


@pytest.mark.parametrize("seed", range(4))
def test_rerun_of_resident_working_set_all_hits(seed):
    """Any stream fitting entirely in one way re-runs at 100% hits."""
    rng = np.random.default_rng(seed)
    cache = LDCache(size_bytes=8 * 1024, ways=2, line_bytes=64)
    # Footprint < one way (n_sets * line bytes) so nothing ever evicts.
    stream = rng.integers(0, cache.way_bytes // 2, size=600)
    cache.run(stream)
    before = cache.stats.hits
    cache.run(stream)
    assert cache.stats.hits - before == len(stream)
    assert cache.stats.evictions == 0


@pytest.mark.parametrize("seed", range(4))
def test_set_index_distribution_uniform_stream(seed):
    """A uniform address stream exercises every set, and the model's
    set mapping matches ``(addr // line) % n_sets``."""
    rng = np.random.default_rng(seed)
    cache = LDCache(size_bytes=8 * 1024, ways=2, line_bytes=64)
    n_sets = cache.n_sets
    # Cover the whole index space many times over.
    stream = rng.integers(0, n_sets * 64 * 16, size=8000)
    cache.run(stream)

    sets = (stream // cache.line_bytes) % n_sets
    counts = np.bincount(sets, minlength=n_sets)
    assert (counts > 0).all()
    # Rough uniformity: no set sees more than 3x the mean.
    assert counts.max() < 3.0 * counts.mean()
    # Every set the stream mapped to holds at least one valid line.
    assert ((cache._tags != -1).any(axis=1) == (counts > 0)).all()


def test_single_set_thrash_evicts_round_robin():
    """> ways distinct tags hammering one set evict on every miss."""
    cache = LDCache(size_bytes=4 * 1024, ways=2, line_bytes=64)
    n_sets = cache.n_sets
    # Five tags, all mapping to set 0.
    tags = [t * n_sets * 64 for t in range(5)]
    stream = np.array(tags * 40, dtype=np.int64)
    stats = cache.run(stream)
    assert stats.hits == 0                       # LRU + cyclic access: thrash
    assert stats.evictions == stats.misses - cache.ways
    assert cache.occupancy() == cache.ways


test_batch_replay_bitwise_matches_scalar = contracts.collect("ldcache")


@pytest.mark.ldcache
def test_batch_replay_bitwise_on_fig6_thrashing_stream():
    """The Fig. 6 hazard — 5 way-aligned arrays in a 4-way cache — is
    the pathological all-miss case for the lockstep replay rounds."""
    way = LDCache().way_bytes
    stream = loop_access_stream([i * way for i in range(5)], 2000)
    batch, scalar = contracts.ldcache_replay((), [stream])
    contracts.agree("ldcache", batch, scalar)
    accesses, hits, _, _ = scalar["stats"]
    assert hits / accesses < 0.05       # the five arrays must thrash


@pytest.mark.ldcache
def test_batch_replay_accumulates_across_calls():
    """Stats accumulate over successive run_batch calls exactly as the
    scalar path accumulates over successive run calls."""
    rng = np.random.default_rng(7)
    streams = [rng.integers(0, 1 << 18, size=500) for _ in range(3)]
    contracts.agree("ldcache", *contracts.ldcache_replay((), streams))


def test_batch_replay_empty_stream_is_noop():
    cache = LDCache()
    stats = cache.run_batch(np.array([], dtype=np.int64))
    assert stats.accesses == 0
    assert cache.occupancy() == 0


def test_loop_access_stream_returns_int64_ndarray():
    stream = loop_access_stream([0, 1000], 3)
    assert isinstance(stream, np.ndarray)
    assert stream.dtype == np.int64


def test_loop_access_stream_matches_manual_interleave():
    stream = loop_access_stream([0, 1000], 3, elem_bytes=8)
    assert stream.tolist() == [0, 1000, 8, 1008, 16, 1016]
    blocked = loop_access_stream([0, 1000], 3, elem_bytes=8, interleave=False)
    assert blocked.tolist() == [0, 8, 16, 1000, 1008, 1016]
