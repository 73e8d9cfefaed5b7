"""Bounded pool of warm forecast models, shared across requests.

Building a :class:`~repro.model.grist.GristModel` is the expensive part
of serving a forecast (mesh construction, operator caches, network
weight casts); integrating a tiny-grid lead time is cheap.  The pool
keeps built models warm, keyed by :meth:`ForecastRequest.model_key`, and
hands each request exclusive use of one instance:

* **acquire** returns an idle warm model (after a bit-exact
  :meth:`GristModel.reset`, performed at release time), builds a new one
  under the ``max_models`` bound, or evicts an idle model of another
  configuration to make room — blocking when every instance is busy;
* **release(tainted=True)** *recycles* the instance: a model that ran a
  poisoned request (injected fault, non-finite state) is discarded, its
  capacity slot freed, and the next request for that configuration gets
  a freshly built replacement.  Clean releases reset and requeue.

A pooled ML model keeps the seeded nets its own assembly builds, so a
served request runs the same forward passes as a batch run of that
configuration.
"""

from __future__ import annotations

import threading

from repro.obs import get_metrics
from repro.serve.request import ForecastRequest


def make_member_state(model, request: ForecastRequest, member: int):
    """Deterministic initial state for one ensemble member.

    Delegates to the scenario registry
    (:meth:`~repro.ensemble.scenarios.Scenario.member_state`); the
    member RNG is seeded ``[seed, member]``, so member *m* of a request
    is the same state no matter which pooled model runs it, and
    distinct members perturb independently.  For the legacy
    ``tropical``/``baroclinic`` scenarios the construction is
    byte-identical to the pre-registry code.
    """
    from repro.ensemble.scenarios import get_scenario

    return get_scenario(request.scenario).member_state(
        model.mesh, model.vcoord, member=member, seed=request.seed,
        perturbation=request.perturbation,
    )


def build_forecast_model(model_key: tuple):
    """Build one servable model for ``model_key``.

    The dycore compiles to the one production stencil backend
    (:data:`repro.dycore.stencil.DEFAULT_BACKEND`).  The compiled kernel
    plans live on the model's mesh and survive :meth:`GristModel.reset`,
    so a warm :class:`ModelPool` instance reuses the same immutable plans
    across every request it serves — compilation is paid once per pooled
    model, not once per request.
    :func:`~repro.serve.scheduler.run_serial_oracle` builds through this
    same entry point, so pooled and oracle runs always compare
    like-for-like.

    The physics is always wrapped in :class:`ResilientPhysics` with no
    fallback and per-step state validation on, so any blow-up — injected
    or natural — surfaces as a
    :class:`~repro.resilience.recovery.StepFailure` the scheduler turns
    into a structured per-request error instead of a crashed server.

    The scenario component of the key now matters: construction goes
    through the scenario registry
    (:func:`~repro.ensemble.scenarios.build_scenario_model`), which
    carries each scenario's surface (SST boost), solar geometry and
    dycore overrides — byte-identical to the old inline construction
    for the legacy ``tropical``/``baroclinic`` scenarios.
    """
    from repro.ensemble.scenarios import build_scenario_model

    level, nlev, scheme_label, scenario = model_key
    return build_scenario_model(scenario, level, nlev, scheme_label)


class ModelPool:
    """Thread-safe bounded pool of warm models, keyed by model config."""

    def __init__(self, max_models: int = 4):
        if max_models < 1:
            raise ValueError("max_models must be >= 1")
        self.max_models = max_models
        self._cond = threading.Condition()
        self._idle: dict[tuple, list] = {}
        self._total = 0
        self.built = 0
        self.reused = 0
        self.recycled = 0
        self.evicted = 0
        self.acquire_waits = 0

    # -- lifecycle -------------------------------------------------------
    def acquire(self, request: ForecastRequest, timeout: float | None = None):
        """Exclusive use of a warm model for ``request``; blocks while
        the pool is at capacity with nothing idle."""
        key = request.model_key()
        build_slot = False
        with self._cond:
            while True:
                idle = self._idle.get(key)
                if idle:
                    model = idle.pop()
                    self.reused += 1
                    get_metrics().inc("serve.pool.reused")
                    return model
                if self._total < self.max_models:
                    self._total += 1
                    build_slot = True
                    break
                # Full, nothing idle for this key: evict an idle model
                # of another configuration if one exists.
                for other_key, others in self._idle.items():
                    if others:
                        others.pop()
                        self.evicted += 1
                        get_metrics().inc("serve.pool.evicted")
                        build_slot = True
                        break
                if build_slot:
                    break
                self.acquire_waits += 1
                if not self._cond.wait(timeout):
                    raise TimeoutError(
                        f"no pooled model became available within {timeout}s"
                    )
        # Build outside the lock — mesh construction is the slow part.
        try:
            model = build_forecast_model(key)
        except BaseException:
            with self._cond:
                self._total -= 1
                self._cond.notify_all()
            raise
        with self._cond:
            self.built += 1
        get_metrics().inc("serve.pool.built")
        return model

    def release(self, request: ForecastRequest, model, tainted: bool = False) -> None:
        """Return ``model``; ``tainted=True`` recycles (discards) it."""
        if tainted:
            with self._cond:
                self._total -= 1
                self.recycled += 1
                self._cond.notify_all()
            get_metrics().inc("serve.pool.recycled")
            return
        model.reset()
        with self._cond:
            self._idle.setdefault(request.model_key(), []).append(model)
            self._cond.notify_all()

    # -- views -----------------------------------------------------------
    def stats(self) -> dict:
        with self._cond:
            return {
                "max_models": self.max_models,
                "total": self._total,
                "idle": sum(len(v) for v in self._idle.values()),
                "built": self.built,
                "reused": self.reused,
                "recycled": self.recycled,
                "evicted": self.evicted,
                "acquire_waits": self.acquire_waits,
                # Always empty: bench/probes.py still reads it for its
                # serve.batch.* rows until the benchmark drops them.
                "batchers": {},
            }
