"""Unit tests of the warm model pool (repro.serve.pool).

The pool's contract: exclusive hand-out, bit-exact warm reuse (a reset
model integrates identically to a freshly built one), bounded capacity
with idle eviction, and tainted instances recycled instead of reused.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import (
    ForecastRequest,
    ModelPool,
    build_forecast_model,
    make_member_state,
)
from repro.serve.request import state_digest

REQ = ForecastRequest(level=2, nlev=8, steps=4)


class TestPoolLifecycle:
    def test_acquire_builds_then_reuses(self):
        pool = ModelPool(max_models=2)
        m1 = pool.acquire(REQ)
        pool.release(REQ, m1)
        m2 = pool.acquire(REQ)
        assert m2 is m1
        s = pool.stats()
        assert s["built"] == 1 and s["reused"] == 1

    def test_tainted_release_recycles(self):
        pool = ModelPool(max_models=1)
        m1 = pool.acquire(REQ)
        pool.release(REQ, m1, tainted=True)
        m2 = pool.acquire(REQ)
        assert m2 is not m1
        s = pool.stats()
        assert s["recycled"] == 1 and s["built"] == 2

    def test_evicts_idle_other_config_at_capacity(self):
        pool = ModelPool(max_models=1)
        m1 = pool.acquire(REQ)
        pool.release(REQ, m1)
        other = ForecastRequest(level=2, nlev=10, steps=4)
        m2 = pool.acquire(other)
        assert m2 is not m1
        s = pool.stats()
        assert s["evicted"] == 1 and s["built"] == 2
        assert s["total"] == 1

    def test_acquire_times_out_when_exhausted(self):
        pool = ModelPool(max_models=1)
        held = pool.acquire(REQ)
        with pytest.raises(TimeoutError):
            pool.acquire(REQ, timeout=0.05)
        pool.release(REQ, held)
        assert pool.acquire(REQ, timeout=1.0) is held

    def test_blocked_acquire_wakes_on_release(self):
        pool = ModelPool(max_models=1)
        held = pool.acquire(REQ)
        got = []

        def waiter():
            got.append(pool.acquire(REQ, timeout=10.0))

        t = threading.Thread(target=waiter)
        t.start()
        pool.release(REQ, held)
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert got == [held]

    def test_concurrent_acquire_release_exclusive(self):
        """No model instance is ever held by two workers at once."""
        pool = ModelPool(max_models=2)
        in_use: set[int] = set()
        lock = threading.Lock()
        violations = []

        def worker(_):
            import time
            for _ in range(5):
                m = pool.acquire(REQ, timeout=30.0)
                with lock:
                    if id(m) in in_use:
                        violations.append(id(m))
                    in_use.add(id(m))
                time.sleep(0.002)   # hold window: overlaps would show
                with lock:
                    in_use.discard(id(m))
                pool.release(REQ, m)

        with ThreadPoolExecutor(max_workers=4) as ex:
            list(ex.map(worker, range(4)))
        assert not violations
        assert pool.stats()["total"] <= 2

    def test_counters_exact_under_concurrent_builds(self, monkeypatch):
        """Every counter ``stats()`` reports is updated under the pool
        lock, ``built`` included: n threads x k build-and-recycle cycles
        lose no update even at a 1 us switch interval."""
        import sys

        monkeypatch.setattr(
            "repro.serve.pool.build_forecast_model",
            lambda key, shared_nets=None: object(),
        )
        pool = ModelPool(max_models=64)
        n, cycles = 8, 500

        def worker():
            for _ in range(cycles):
                pool.release(REQ, pool.acquire(REQ, timeout=30.0), tainted=True)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        stats = pool.stats()
        assert stats["built"] == stats["recycled"] == n * cycles
        assert stats["total"] == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ModelPool(max_models=0)


class TestWarmReuseBitwise:
    def test_reset_run_matches_fresh_run(self):
        """The reset contract behind warm reuse: run → reset → run is
        bitwise identical, and identical to a freshly built model."""
        fresh = build_forecast_model(REQ.model_key())
        ref = fresh.run(make_member_state(fresh, REQ, 0), REQ.steps)
        ref_digest = state_digest(ref)

        warm = build_forecast_model(REQ.model_key())
        first = warm.run(make_member_state(warm, REQ, 0), REQ.steps)
        assert state_digest(first) == ref_digest
        warm.reset()
        second = warm.run(make_member_state(warm, REQ, 0), REQ.steps)
        assert state_digest(second) == ref_digest

    def test_reset_covers_different_followup_request(self):
        """A warm model that already served one request serves a
        *different* one (other seed, other lead time) bit-identically
        to a cold model."""
        other = ForecastRequest(level=2, nlev=8, steps=6, seed=9)
        cold = build_forecast_model(other.model_key())
        ref = state_digest(
            cold.run(make_member_state(cold, other, 0), other.steps)
        )

        warm = build_forecast_model(REQ.model_key())
        warm.run(make_member_state(warm, REQ, 0), REQ.steps)
        warm.reset()
        got = state_digest(
            warm.run(make_member_state(warm, other, 0), other.steps)
        )
        assert got == ref

    def test_member_states_deterministic_and_distinct(self):
        model = build_forecast_model(REQ.model_key())
        a0 = make_member_state(model, REQ, 0)
        a0b = make_member_state(model, REQ, 0)
        a1 = make_member_state(model, REQ, 1)
        assert state_digest(a0) == state_digest(a0b)
        assert state_digest(a0) != state_digest(a1)
