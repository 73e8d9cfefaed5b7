"""Per-request fault isolation in the serving layer (repro.serve).

The satellite contract: a poisoned request — a fault plan scoped to one
submission — fails with a structured error while the server keeps
serving; concurrent clean requests stay bitwise clean; the tainted model
instance is recycled by the pool, never handed to another request; and
faulted results never enter the result cache in either direction.

Steps are chosen >= the physics cadence (physics_ratio = 12 dynamics
steps) so the injected ML_BLOWUP actually fires inside the lead time.
"""

from __future__ import annotations

import pytest

from repro.resilience.faults import FaultPlan
from repro.serve import (
    ForecastRequest,
    ForecastScheduler,
    ModelPool,
    run_serial_oracle,
)
from tests import contracts

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

STEPS = 12   # one physics call at level 2/3 (physics_ratio = 12)


def _req(seed: int, **kw) -> ForecastRequest:
    return ForecastRequest(level=2, nlev=8, steps=STEPS, seed=seed, **kw)


class TestFaultIsolation:
    def test_poisoned_fails_clean_neighbours_bitwise(self):
        """The headline: one poisoned request among clean concurrent
        ones errors in isolation; every clean result is bit-identical
        to its serial oracle; the tainted instance is recycled."""
        clean = [_req(seed=s) for s in range(3)]
        poisoned = _req(seed=50)
        oracles = {r.cache_key(): run_serial_oracle(r) for r in clean}

        pool = ModelPool(max_models=2)
        with ForecastScheduler(max_workers=4, pool=pool) as sched:
            bad_job = sched.submit(poisoned, fault_plan="smoke")
            clean_jobs = sched.map(clean)
            bad = bad_job.result(timeout=240)
            results = [j.result(timeout=240) for j in clean_jobs]
            stats = sched.stats()

        assert bad.status == "error"
        assert bad.error.code == "FAULT"
        assert bad.error.faults["fired"].get("ml_blowup", 0) >= 1
        assert bad.members == ()
        for res in results:
            assert res.ok
            contracts.agree("served", res, oracles[res.key])
        assert stats["errors"] == 1 and stats["completed"] == 3
        assert stats["pool"]["recycled"] == 1

    def test_recycled_instance_replaced_not_reused(self):
        """After a poisoned request, the next request for the same model
        config gets a freshly built instance and a clean bitwise run."""
        req = _req(seed=7)
        oracle = run_serial_oracle(req)
        pool = ModelPool(max_models=1)
        with ForecastScheduler(max_workers=1, pool=pool) as sched:
            bad = sched.submit(_req(seed=8), fault_plan="smoke")
            assert bad.result(timeout=240).status == "error"
            res = sched.submit(req).result(timeout=240)
        assert res.ok
        contracts.agree("served", res, oracle)
        stats = pool.stats()
        assert stats["recycled"] == 1
        assert stats["built"] == 2

    def test_faulted_requests_bypass_cache_both_ways(self):
        req = _req(seed=9)
        with ForecastScheduler(max_workers=1,
                               pool=ModelPool(max_models=1)) as sched:
            # Clean run populates the cache...
            clean = sched.submit(req).result(timeout=240)
            assert clean.ok
            # ...but a poisoned twin must NOT be satisfied from it:
            bad = sched.submit(req, fault_plan="smoke").result(timeout=240)
            assert bad.status == "error" and not bad.cache_hit
            # ...and the error must not have evicted/poisoned the entry:
            warm = sched.submit(req).result(timeout=240)
        assert warm.ok and warm.cache_hit
        contracts.agree("served", warm, clean)

    def test_empty_plan_is_not_poison(self):
        req = _req(seed=10)
        with ForecastScheduler(max_workers=1,
                               pool=ModelPool(max_models=1)) as sched:
            res = sched.submit(req, fault_plan=FaultPlan("none")).result(
                timeout=240
            )
        assert res.ok
        contracts.agree("served", res, run_serial_oracle(req))

    def test_unknown_plan_name_rejected_at_submit(self):
        with ForecastScheduler(max_workers=1,
                               pool=ModelPool(max_models=1)) as sched:
            with pytest.raises(ValueError):
                sched.submit(_req(seed=0), fault_plan="not-a-plan")
            # The rejection never consumed a worker or a model.
            assert sched.stats()["submitted"] == 0

    def test_storm_soak_server_survives(self):
        """A storm-plan barrage mixed with clean traffic: the server
        resolves everything exactly once and clean results stay ok."""
        clean = [_req(seed=s) for s in range(2)]
        storms = [_req(seed=100 + s) for s in range(3)]
        with ForecastScheduler(max_workers=4,
                               pool=ModelPool(max_models=2)) as sched:
            storm_jobs = [sched.submit(r, fault_plan="storm", fault_seed=s)
                          for s, r in enumerate(storms)]
            clean_jobs = sched.map(clean)
            storm_results = [j.result(timeout=240) for j in storm_jobs]
            clean_results = [j.result(timeout=240) for j in clean_jobs]
            stats = sched.stats()

        # Storm faults are rate-driven: each poisoned request either
        # blew up (isolated error) or got lucky — never anything else.
        assert all(r.status in ("ok", "error") for r in storm_results)
        assert all(r.ok for r in clean_results)
        n = len(storms) + len(clean)
        assert stats["submitted"] == n
        assert stats["completed"] + stats["errors"] == n
