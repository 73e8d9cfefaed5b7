"""Concurrency property tests of the forecast scheduler (repro.serve).

The serving layer's headline contracts, exercised end to end:

* **exactly once** — N concurrent submissions with randomized arrival
  all complete, none dropped, none resolved twice;
* **bitwise** — every concurrent result is bit-identical to running the
  same request serially on a freshly built model
  (:func:`run_serial_oracle`), across warm pool reuse, chunked
  stepping, and (for ML schemes) concurrent inference on pooled nets;
* **cancellation** — cancelling jobs mid-flight never corrupts the
  pool: later requests on the same instances stay bitwise clean;
* **cache** — a hit is byte-identical to the cold run and flagged.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.serve import (
    ForecastRequest,
    ForecastScheduler,
    ModelPool,
    run_serial_oracle,
)
from tests import contracts

pytestmark = pytest.mark.slow


def _tiny(seed: int, steps: int = 4, **kw) -> ForecastRequest:
    return ForecastRequest(level=2, nlev=8, steps=steps, seed=seed, **kw)


class TestExactlyOnceBitwise:
    def test_concurrent_random_arrival_matches_serial_oracle(self):
        """The core property: concurrent execution with random arrival
        jitter produces, for every request, exactly one result, bitwise
        identical to the serial single-model reference."""
        rng = random.Random(1234)
        requests = [_tiny(seed=s) for s in range(6)]
        oracles = {r.cache_key(): run_serial_oracle(r) for r in requests}

        with ForecastScheduler(max_workers=4,
                               pool=ModelPool(max_models=2)) as sched:
            jobs = []
            for r in rng.sample(requests, len(requests)):
                jobs.append(sched.submit(r))
                time.sleep(rng.uniform(0.0, 0.01))
            results = [j.result(timeout=120) for j in jobs]
            stats = sched.stats()

        assert [r.status for r in results] == ["ok"] * len(requests)
        for res in results:
            contracts.agree("served", res, oracles[res.key])
        assert stats["submitted"] == len(requests)
        assert stats["completed"] == len(requests)
        assert stats["errors"] == 0 and stats["cancellations"] == 0

    def test_duplicate_submissions_agree(self):
        """The same request submitted concurrently resolves every copy
        ``ok`` with identical bits (stampedes allowed, divergence not)."""
        req = _tiny(seed=3)
        with ForecastScheduler(max_workers=4,
                               pool=ModelPool(max_models=2)) as sched:
            jobs = [sched.submit(req) for _ in range(6)]
            results = [j.result(timeout=120) for j in jobs]
        digests = {r.digest() for r in results}
        assert [r.status for r in results] == ["ok"] * 6
        assert len(digests) == 1

    def test_ensemble_members_bitwise(self):
        req = _tiny(seed=5, ensemble_size=3)
        oracle = run_serial_oracle(req)
        with ForecastScheduler(max_workers=2,
                               pool=ModelPool(max_models=1)) as sched:
            res = sched.submit(req).result(timeout=240)
        assert res.ok and len(res.members) == 3
        contracts.agree("served", res, oracle)
        member_digests = [m.digest for m in res.members]
        assert len(set(member_digests)) == 3   # members truly distinct

    def test_ml_scheme_with_batching_bitwise(self):
        """Concurrent MIX-ML requests, each on its pooled model's own
        seeded nets, stay bitwise identical to the serial oracle (steps
        chosen so ML physics actually fires)."""
        requests = [_tiny(seed=s, steps=12, scheme="MIX-ML")
                    for s in range(3)]
        oracles = {r.cache_key(): run_serial_oracle(r) for r in requests}
        with ForecastScheduler(max_workers=3,
                               pool=ModelPool(max_models=3)) as sched:
            results = [j.result(timeout=240)
                       for j in sched.map(requests)]
        for res in results:
            assert res.ok
            contracts.agree("served", res, oracles[res.key])


class TestCancellation:
    def test_cancel_before_start_resolves_cancelled(self):
        with ForecastScheduler(max_workers=1,
                               pool=ModelPool(max_models=1)) as sched:
            blocker = sched.submit(_tiny(seed=0, steps=8))
            victim = sched.submit(_tiny(seed=1, steps=8))
            victim.cancel()
            res = victim.result(timeout=120)
            assert blocker.result(timeout=120).ok
        assert res.status == "cancelled"
        assert res.error.code == "CANCELLED"

    def test_cancel_mid_flight_never_corrupts_pool(self):
        """Cancel a storm of jobs at random; every job still resolves
        exactly once, and a fresh request afterwards — served by the
        same pooled instances — is bitwise identical to its oracle."""
        rng = random.Random(99)
        pool = ModelPool(max_models=2)
        with ForecastScheduler(max_workers=4, pool=pool,
                               step_chunk=1) as sched:
            jobs = [sched.submit(_tiny(seed=s, steps=8))
                    for s in range(10)]
            for j in rng.sample(jobs, 5):
                time.sleep(rng.uniform(0.0, 0.02))
                j.cancel()
            results = [j.result(timeout=240) for j in jobs]
            # Every job resolved exactly once, to ok or cancelled.
            assert all(r.status in ("ok", "cancelled") for r in results)
            stats = sched.stats()
            assert stats["completed"] + stats["cancellations"] == 10

            probe = _tiny(seed=77, steps=6)
            res = sched.submit(probe).result(timeout=120)
        assert res.ok
        contracts.agree("served", res, run_serial_oracle(probe))

    def test_cancelled_results_not_cached(self):
        with ForecastScheduler(max_workers=1,
                               pool=ModelPool(max_models=1)) as sched:
            blocker = sched.submit(_tiny(seed=0, steps=8))
            victim = sched.submit(_tiny(seed=8, steps=8))
            victim.cancel()
            assert victim.result(timeout=120).status == "cancelled"
            blocker.result(timeout=120)
            # Resubmit: must execute (no cache hit) and succeed.
            redo = sched.submit(_tiny(seed=8, steps=8)).result(timeout=120)
        assert redo.ok and not redo.cache_hit


class TestCache:
    def test_hit_is_byte_identical_and_flagged(self):
        req = _tiny(seed=11)
        with ForecastScheduler(max_workers=2,
                               pool=ModelPool(max_models=1)) as sched:
            cold = sched.submit(req).result(timeout=120)
            warm = sched.submit(req).result(timeout=120)
            stats = sched.stats()
        assert cold.ok and not cold.cache_hit
        assert warm.ok and warm.cache_hit
        contracts.agree("served", warm, cold)
        assert stats["cache_hits"] == 1

    def test_distinct_configs_never_cross_hit(self):
        a, b = _tiny(seed=0), _tiny(seed=0, steps=6)
        with ForecastScheduler(max_workers=2,
                               pool=ModelPool(max_models=1)) as sched:
            ra = sched.submit(a).result(timeout=120)
            rb = sched.submit(b).result(timeout=120)
        assert ra.ok and rb.ok
        assert not rb.cache_hit
        assert ra.digest() != rb.digest()


class TestLifecycle:
    def test_submit_after_shutdown_raises(self):
        sched = ForecastScheduler(max_workers=1,
                                  pool=ModelPool(max_models=1))
        sched.shutdown()
        with pytest.raises(RuntimeError):
            sched.submit(_tiny(seed=0))

    def test_acceptance_100_concurrent_requests(self):
        """ISSUE acceptance: >= 100 concurrent tiny-grid requests in one
        process, zero dropped or duplicated responses."""
        requests = [_tiny(seed=s % 25, steps=2) for s in range(100)]
        with ForecastScheduler(max_workers=4,
                               pool=ModelPool(max_models=4)) as sched:
            jobs = sched.map(requests)
            results = [j.result(timeout=600) for j in jobs]
            stats = sched.stats()
        # Zero dropped: every job produced a result...
        assert len(results) == 100
        assert all(r.ok for r in results)
        # ...and zero duplicated: each resolved exactly once.
        assert stats["submitted"] == 100
        assert stats["completed"] == 100
        assert stats["in_flight"] == 0
        # Identical requests agree bitwise; distinct ones differ.
        by_key: dict[str, set] = {}
        for r in results:
            by_key.setdefault(r.key, set()).add(r.digest())
        assert len(by_key) == 25
        assert all(len(d) == 1 for d in by_key.values())
