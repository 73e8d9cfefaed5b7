"""Unit tests of the content-addressed result cache (repro.serve.cache)."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.serve import ForecastRequest, ResultCache
from repro.serve.request import ForecastError, ForecastResult, MemberResult
from tests import contracts


def _result(request: ForecastRequest, status: str = "ok",
            seed: int = 0) -> ForecastResult:
    rng = np.random.default_rng(seed)
    member = MemberResult(
        member=0, fields={"u": rng.normal(size=(4, 3))},
        digest=f"digest-{seed}", max_wind=1.0, mean_precip=0.0,
    )
    return ForecastResult(
        request=request, key=request.cache_key(), status=status,
        members=(member,) if status == "ok" else (),
        error=None if status == "ok" else ForecastError("FAULT", "boom"),
    )


class TestResultCache:
    def test_miss_then_hit_same_object(self):
        cache = ResultCache()
        req = ForecastRequest(seed=1)
        key = req.cache_key()
        assert cache.get(key) is None
        stored = _result(req)
        cache.put(key, stored)
        hit = cache.get(key)
        # The hit IS the stored result: byte-identity is structural.
        assert hit is stored
        contracts.bitwise(hit, stored)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_errors_never_cached(self):
        cache = ResultCache()
        req = ForecastRequest(seed=2)
        cache.put(req.cache_key(), _result(req, status="error"))
        assert cache.get(req.cache_key()) is None
        assert len(cache) == 0

    def test_distinct_requests_never_collide(self):
        cache = ResultCache()
        a, b = ForecastRequest(seed=0), ForecastRequest(seed=1)
        cache.put(a.cache_key(), _result(a, seed=0))
        cache.put(b.cache_key(), _result(b, seed=1))
        assert cache.get(a.cache_key()).members[0].digest == "digest-0"
        assert cache.get(b.cache_key()).members[0].digest == "digest-1"

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        reqs = [ForecastRequest(seed=i) for i in range(3)]
        cache.put(reqs[0].cache_key(), _result(reqs[0]))
        cache.put(reqs[1].cache_key(), _result(reqs[1]))
        assert cache.get(reqs[0].cache_key()) is not None  # refresh 0
        cache.put(reqs[2].cache_key(), _result(reqs[2]))   # evicts 1
        assert cache.get(reqs[1].cache_key()) is None
        assert cache.get(reqs[0].cache_key()) is not None
        assert cache.get(reqs[2].cache_key()) is not None
        assert cache.stats()["evictions"] == 1

    def test_scheduler_keeps_supplied_empty_cache(self):
        """Regression: an empty ResultCache is falsy (len() == 0), so a
        `cache or default` guard silently replaced a user-supplied cache
        with a default-capacity one."""
        from repro.serve import ForecastScheduler, ModelPool

        cache = ResultCache(capacity=7)
        sched = ForecastScheduler(max_workers=1,
                                  pool=ModelPool(max_models=1), cache=cache)
        try:
            assert sched.cache is cache
            assert sched.stats()["cache"]["capacity"] == 7
        finally:
            sched.shutdown()

    def test_concurrent_put_get_consistent(self):
        """Hammer one cache from many threads: every get returns either
        None or a complete, correctly-keyed result — never a torn one."""
        cache = ResultCache(capacity=16)
        reqs = [ForecastRequest(seed=i) for i in range(32)]
        results = {r.cache_key(): _result(r, seed=i)
                   for i, r in enumerate(reqs)}
        stop = threading.Event()
        bad: list[str] = []

        def writer():
            while not stop.is_set():
                for key, res in results.items():
                    cache.put(key, res)

        def reader():
            while not stop.is_set():
                for key, res in results.items():
                    got = cache.get(key)
                    if got is not None and got.key != key:
                        bad.append(key)

        with ThreadPoolExecutor(max_workers=6) as ex:
            futs = [ex.submit(writer) for _ in range(2)]
            futs += [ex.submit(reader) for _ in range(4)]
            import time
            time.sleep(0.3)
            stop.set()
            for f in futs:
                f.result(timeout=10)
        assert not bad
        assert len(cache) <= 16
