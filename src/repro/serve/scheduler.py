"""The forecast scheduler: concurrent jobs over the warm model pool.

One :class:`ForecastScheduler` is the in-process forecast service:
``submit`` enqueues a :class:`ForecastRequest` and immediately returns a
:class:`ForecastJob`; a bounded worker pool executes jobs against pooled
warm models.  Every submitted job resolves to exactly one
:class:`ForecastResult` — ``ok``, ``error`` (structured
:class:`ForecastError`), or ``cancelled`` — never an unhandled
exception, never twice, never dropped.

Execution pipeline per job::

    cache probe ──hit──▶ result (byte-identical to the cold run)
        │ miss
    pool.acquire (warm model, exclusive)
        │
    per ensemble member: seeded state → chunked model.run(steps)
        │                    │ cancellation checked between chunks
        │                 StepFailure / fault → error + tainted release
    pool.release (reset for warm reuse)
        │
    cache.put + resolve future

Per-request fault isolation: a ``fault_plan`` passed at submission gets
its own seeded :class:`~repro.resilience.faults.FaultInjector` attached
to *that model instance's* ``ResilientPhysics`` for the duration of the
run — concurrent clean requests never observe it, and the poisoned
model is recycled by the pool instead of being reused.

Bitwise contract: a job's member results are bit-identical to running
the same members serially through a freshly built ``GristModel``
(:func:`run_serial_oracle`) — warm reuse resets bit-exactly, chunked
stepping is the same step sequence, and a pooled ML model runs the same
seeded nets a fresh build gets.  Pooled, warm-reset and cached results
against the oracle are the ``served`` row of the test suite's contract
table.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from repro.obs import SpanKind, get_metrics, get_tracer
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.recovery import RetryExhausted, StepFailure
from repro.serve.cache import ResultCache
from repro.serve.pool import ModelPool, make_member_state
from repro.serve.request import (
    ForecastError,
    ForecastRequest,
    ForecastResult,
    MemberResult,
)


class _Cancelled(Exception):
    """Internal: the job's cancel flag was observed mid-run."""


class ForecastJob:
    """Handle for one submitted request."""

    def __init__(self, job_id: int, request: ForecastRequest):
        self.id = job_id
        self.request = request
        self.submitted_at = time.perf_counter()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._cancel = threading.Event()
        self._future = None     # set by the scheduler right after construction

    def cancel(self) -> None:
        """Request cancellation; safe at any point in the job's life.

        A job observed before it starts resolves ``cancelled`` without
        touching a model; an in-flight job stops at the next step chunk
        and its model is reset and returned to the pool unharmed.
        """
        self._cancel.set()

    @property
    def cancelled_requested(self) -> bool:
        return self._cancel.is_set()

    def result(self, timeout: float | None = None) -> ForecastResult:
        """Block for the job's single, final result."""
        return self._future.result(timeout)

    def done(self) -> bool:
        return self._future.done()

    @property
    def latency_seconds(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


class ForecastScheduler:
    """Thread-pool forecast service over a bounded warm-model pool."""

    def __init__(
        self,
        max_workers: int = 4,
        pool: ModelPool | None = None,
        cache: ResultCache | None = None,
        step_chunk: int = 8,
    ):
        if step_chunk < 1:
            raise ValueError("step_chunk must be >= 1")
        self.pool = pool if pool is not None else ModelPool(max_models=max_workers)
        # NOT `cache or ...`: an empty ResultCache has len() 0 and is falsy.
        self.cache = cache if cache is not None else ResultCache()
        self.step_chunk = step_chunk
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="forecast"
        )
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._jobs: dict[int, ForecastJob] = {}
        self._resolved: dict[int, str] = {}       # job id -> status, set once
        self.submitted = 0
        self.completed = 0
        self.errors = 0
        self.cancellations = 0
        self.cache_hits = 0
        self._latencies: list[float] = []
        self._closed = False

    # -- submission ------------------------------------------------------
    def submit(
        self,
        request: ForecastRequest,
        fault_plan: FaultPlan | str | None = None,
        fault_seed: int | None = None,
    ) -> ForecastJob:
        """Enqueue a request; returns immediately with the job handle.

        ``fault_plan`` scopes a seeded fault injection to this request
        alone (the chaos-testing hook the isolation suite drives).
        """
        if self._closed:
            raise RuntimeError("scheduler is shut down")
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.named(fault_plan)
        with self._lock:
            job = ForecastJob(next(self._ids), request)
            self._jobs[job.id] = job
            self.submitted += 1
        get_metrics().inc("serve.requests")
        job._future = self._executor.submit(
            self._run_job, job, fault_plan,
            request.seed if fault_seed is None else fault_seed,
        )
        return job

    def map(self, requests) -> list[ForecastJob]:
        return [self.submit(r) for r in requests]

    # -- execution -------------------------------------------------------
    def _resolve(self, job: ForecastJob, result: ForecastResult) -> ForecastResult:
        """Account the one-and-only resolution of ``job``."""
        job.finished_at = time.perf_counter()
        with self._lock:
            if job.id in self._resolved:      # exactly-once guard
                raise RuntimeError(f"job {job.id} resolved twice")
            self._resolved[job.id] = result.status
            self._latencies.append(job.latency_seconds)
            if result.status == "ok":
                self.completed += 1
                if result.cache_hit:
                    self.cache_hits += 1
            elif result.status == "cancelled":
                self.cancellations += 1
            else:
                self.errors += 1
        m = get_metrics()
        if m.enabled:
            m.inc(f"serve.{result.status}")
            m.observe("serve.latency_seconds", job.latency_seconds)
        return result

    def _run_members(self, job: ForecastJob, model) -> tuple:
        """Integrate every ensemble member on ``model``, warm-reset
        between members; cancellation is honoured between step chunks."""
        request = job.request
        members = []
        for member in range(request.ensemble_size):
            if job.cancelled_requested:
                raise _Cancelled()
            if member > 0:
                model.reset()
            state = make_member_state(model, request, member)
            done = 0
            while done < request.steps:
                if job.cancelled_requested:
                    raise _Cancelled()
                n = min(self.step_chunk, request.steps - done)
                state = model.run(state, n)
                done += n
            members.append(MemberResult.from_state(member, state, model))
        return tuple(members)

    def _run_job(
        self,
        job: ForecastJob,
        fault_plan: FaultPlan | None,
        fault_seed: int,
    ) -> ForecastResult:
        request = job.request
        key = request.cache_key()
        job.started_at = time.perf_counter()
        queue_wait = job.started_at - job.submitted_at
        m = get_metrics()
        if m.enabled:
            m.observe("serve.queue_wait_seconds", queue_wait)

        if job.cancelled_requested:
            return self._resolve(job, ForecastResult(
                request=request, key=key, status="cancelled",
                error=ForecastError("CANCELLED", "cancelled before start"),
            ))

        with get_tracer().span(
            "serve.request", SpanKind.SERVE_REQUEST,
            job=job.id, level=request.level, steps=request.steps,
            ensemble=request.ensemble_size, scheme=request.scheme,
        ) as span:
            # Faulted requests bypass the cache both ways: their results
            # must not poison it and a clean twin must not satisfy them.
            if fault_plan is None or fault_plan.empty:
                cached = self.cache.get(key)
                if cached is not None:
                    span.set(cache_hit=True)
                    return self._resolve(
                        job, replace(cached, cache_hit=True, wall_seconds=0.0)
                    )

            model = self.pool.acquire(request)
            injector = None
            tainted = False
            t0 = time.perf_counter()
            try:
                if fault_plan is not None and not fault_plan.empty:
                    injector = FaultInjector(fault_plan, seed=fault_seed)
                    model.physics.injector = injector
                members = self._run_members(job, model)
                result = ForecastResult(
                    request=request, key=key, status="ok", members=members,
                    wall_seconds=time.perf_counter() - t0,
                )
            except _Cancelled:
                result = ForecastResult(
                    request=request, key=key, status="cancelled",
                    error=ForecastError("CANCELLED", "cancelled in flight"),
                    wall_seconds=time.perf_counter() - t0,
                )
            except (StepFailure, RetryExhausted) as exc:
                tainted = True
                result = ForecastResult(
                    request=request, key=key, status="error",
                    error=ForecastError(
                        "FAULT", str(exc),
                        faults=injector.summary() if injector else {},
                    ),
                    wall_seconds=time.perf_counter() - t0,
                )
            except Exception as exc:   # pragma: no cover - defensive
                tainted = True
                result = ForecastResult(
                    request=request, key=key, status="error",
                    error=ForecastError("INTERNAL", f"{type(exc).__name__}: {exc}"),
                    wall_seconds=time.perf_counter() - t0,
                )
            finally:
                if injector is not None:
                    model.physics.injector = None
                self.pool.release(request, model, tainted=tainted)
            span.set(status=result.status, tainted=tainted)

        if result.ok and (fault_plan is None or fault_plan.empty):
            self.cache.put(key, result)
        return self._resolve(job, result)

    # -- lifecycle / views ----------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "ForecastScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def stats(self) -> dict:
        with self._lock:
            lat = sorted(self._latencies)
            n = len(lat)

            def pct(p: float) -> float:
                if not n:
                    return 0.0
                return lat[min(n - 1, int(p * (n - 1) + 0.5))]

            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "errors": self.errors,
                "cancellations": self.cancellations,
                "cache_hits": self.cache_hits,
                "in_flight": self.submitted - n,
                "latency": {
                    "n": n,
                    "p50_seconds": pct(0.50),
                    "p99_seconds": pct(0.99),
                    "max_seconds": lat[-1] if n else 0.0,
                },
                "pool": self.pool.stats(),
                "cache": self.cache.stats(),
            }


def run_serial_oracle(request: ForecastRequest) -> ForecastResult:
    """The bitwise reference: every member on a freshly built model,
    no pool, no cache — the oracle of the ``served`` contract row."""
    from repro.serve.pool import build_forecast_model

    members = []
    t0 = time.perf_counter()
    for member in range(request.ensemble_size):
        model = build_forecast_model(request.model_key())
        state = make_member_state(model, request, member)
        state = model.run(state, request.steps)
        members.append(MemberResult.from_state(member, state, model))
    return ForecastResult(
        request=request, key=request.cache_key(), status="ok",
        members=tuple(members), wall_seconds=time.perf_counter() - t0,
    )
