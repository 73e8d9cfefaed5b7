"""``repro.serve``: forecast-as-a-service over the simulated substrate.

The "millions of users" half of the north star: forecasts become
*requests* — (grid level, lead time, scenario, ensemble size) — served
concurrently from one process by a :class:`ForecastScheduler` that

* shares warm :class:`~repro.model.grist.GristModel` instances across
  requests through a bounded :class:`ModelPool` (tainted instances are
  recycled, never reused);
* coalesces ML-physics inference from co-scheduled requests into single
  stacked forward passes (one GEMM per layer) via the
  :class:`InferenceBatcher` (with a bitwise-safety probe that falls back
  to sequential execution whenever stacking would change bits);
* answers repeat ``(seed, config)`` requests from a content-addressed
  :class:`ResultCache`;
* isolates failures per request: an injected fault (PR 4's resilience
  ladder) fails *that* request with a structured
  :class:`ForecastError` while every other request keeps serving.

``serve.*`` spans and metrics flow through :mod:`repro.obs`; the
``repro serve`` CLI load-generates the layer, and ``bench/run.py``'s
``serve_g3_mix`` workload records its goodput and latency.
"""

from repro.serve.batch import BatchedRadiationNet, BatchedTendencyNet, InferenceBatcher
from repro.serve.cache import ResultCache
from repro.serve.pool import ModelPool, build_forecast_model, make_member_state
from repro.serve.request import (
    ForecastError,
    ForecastRequest,
    ForecastResult,
    MemberResult,
    state_digest,
)
from repro.serve.scheduler import ForecastJob, ForecastScheduler, run_serial_oracle

__all__ = [
    "BatchedRadiationNet",
    "BatchedTendencyNet",
    "ForecastError",
    "ForecastJob",
    "ForecastRequest",
    "ForecastResult",
    "ForecastScheduler",
    "InferenceBatcher",
    "MemberResult",
    "ModelPool",
    "ResultCache",
    "build_forecast_model",
    "make_member_state",
    "run_serial_oracle",
    "state_digest",
]
