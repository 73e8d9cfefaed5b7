"""SWGOMP: the OpenMP-offload job-server runtime (section 3.3.1, Fig. 5).

    "The job server exhibits a high flexibility, allowing new tasks to be
    assigned to CPE by either the MPE or another CPE.  The job server is
    initialized by MPE using the Athread library.  The MPE spawns
    team-head threads via the job server to execute target portions.
    These team-head CPEs have the capability to spawn threads on other
    CPEs within the team to execute parallel code pieces."

This module reproduces that execution model over the simulated CPE array:
kernels are Python callables over index ranges; :class:`JobServer`
schedules chunks onto CPEs, enforces the spawning hierarchy (MPE ->
team heads -> team members), and records per-CPE busy time so load
imbalance and utilisation are measurable.  Work is *actually executed*
(the callables run on real NumPy slices); timing is simulated through the
kernel cost model or wall-clock, whichever the caller supplies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.obs import SpanKind, get_metrics, get_tracer
from repro.resilience.faults import FaultKind, get_injector
from repro.resilience.recovery import RetryPolicy
from repro.sunway.arch import CoreGroup


@lru_cache(maxsize=512)
def _static_bounds(n: int, ncpe: int) -> np.ndarray:
    """Cached static-schedule chunk bounds for an ``n``-element loop.

    The bounds only depend on (n, ncpe) and every kernel launch at a
    fixed grid level re-derives the same split, so they are computed
    once and returned read-only (callers index, never mutate).
    """
    bounds = np.linspace(0, n, ncpe + 1).astype(int)
    bounds.flags.writeable = False
    return bounds


class SWGOMPError(RuntimeError):
    """Misuse of the SWGOMP runtime model.

    Raised when a target region launches (or a spawn is requested)
    before the MPE initialised the job server, mirroring the Athread
    errors the paper's runtime produces on the real hardware.  The
    static analyzer reports the same condition as rule SW003.
    """


@dataclass
class SpawnEvent:
    """One job-server spawn: who asked, which CPE got the job."""

    spawner: str       # "mpe" or "cpe<k>"
    target_cpe: int
    role: str          # "team_head" or "team_member"


@dataclass
class CPEState:
    cpe_id: int
    busy_seconds: float = 0.0
    chunks_executed: int = 0


class JobServer:
    """The SWGOMP job server for one core group.

    Must be initialised from the MPE (``init_from_mpe``) before any
    target region launches, mirroring the Athread initialisation.
    """

    def __init__(self, cg: CoreGroup | None = None, tracer=None):
        self.cg = cg or CoreGroup()
        self._initialized = False
        self.cpes = [CPEState(i) for i in range(self.cg.n_cpes)]
        self.spawn_log: list[SpawnEvent] = []
        #: Tracer override for this server; ``None`` resolves the global
        #: tracer at launch time (disabled no-op by default).  Its CHUNK
        #: spans bracket every chunk body a target region executes — the
        #: one way to observe a chunk (the sanitizer and the profiler
        #: subscribe as listeners).
        self.tracer = tracer
        #: Fault-injector override; ``None`` resolves the global injector
        #: at launch time (no injection by default).  Failed chunks are
        #: re-dispatched under this retry policy (the wasted execution
        #: plus backoff is charged as simulated time).
        self.fault_injector = None
        self.retry = RetryPolicy()

    def init_from_mpe(self) -> None:
        """Athread initialisation performed by the MPE."""
        self._initialized = True

    def _require_init(self) -> None:
        if not self._initialized:
            raise SWGOMPError(
                "target region launched before init_from_mpe (the MPE must "
                "perform athread initialisation first) — statically "
                "detectable as rule SW003"
            )

    def active_tracer(self):
        """This server's tracer, falling back to the process-global one."""
        return self.tracer if self.tracer is not None else get_tracer()

    def active_injector(self):
        """This server's fault injector, falling back to the global one
        (``None`` unless a chaos run installed an injector)."""
        return self.fault_injector if self.fault_injector is not None else get_injector()

    def spawn(self, spawner: str, target_cpe: int, role: str) -> None:
        """Assign a job to a CPE; spawner may be the MPE or another CPE."""
        self._require_init()
        if not (0 <= target_cpe < self.cg.n_cpes):
            raise ValueError(f"CPE id {target_cpe} out of range")
        self.spawn_log.append(SpawnEvent(spawner, target_cpe, role))

    def reset_stats(self) -> None:
        for c in self.cpes:
            c.busy_seconds = 0.0
            c.chunks_executed = 0
        self.spawn_log.clear()

    # -- statistics -----------------------------------------------------
    def utilization(self) -> float:
        """Mean busy time over max busy time (1.0 = perfectly balanced)."""
        busy = np.array([c.busy_seconds for c in self.cpes])
        if busy.max() == 0.0:
            return 1.0
        return float(busy.mean() / busy.max())


@dataclass
class TargetRegion:
    """A ``!$omp target`` region executed on the CPE array.

    Created by the MPE; launching it spawns ``n_teams`` team heads via
    the job server, and each ``parallel_for`` inside it spawns the team
    members (Fig. 5's two-level hierarchy).
    """

    server: JobServer
    n_teams: int = 1
    _team_heads: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_teams < 1 or self.n_teams > self.server.cg.n_cpes:
            raise ValueError("n_teams must be in [1, n_cpes]")
        team_size = self.server.cg.n_cpes // self.n_teams
        for t in range(self.n_teams):
            head = t * team_size
            self.server.spawn("mpe", head, "team_head")
            self._team_heads.append(head)

    def team_members(self, team: int) -> range:
        team_size = self.server.cg.n_cpes // self.n_teams
        start = team * team_size
        return range(start, start + team_size)

    def parallel_for(
        self,
        body: Callable[[int, int], None],
        n: int,
        cost_per_elem: float | Callable[[int, int], float] = 0.0,
        schedule: str = "static",
        chunk: int | None = None,
        name: str = "parallel_for",
    ) -> float:
        """Distribute ``body(start, end)`` over the CPEs of all teams.

        ``cost_per_elem`` supplies simulated seconds per element (scalar)
        or a callable mapping ``(start, end)`` to chunk seconds.  Returns
        the simulated region time (slowest CPE).

        ``schedule="static"`` gives each CPE one contiguous block — the
        SWGOMP default for conflict-free GRIST loops.  ``"dynamic"``
        round-robins chunks of size ``chunk``, modelling guided execution
        of irregular loops.

        ``name`` labels the region's KERNEL_LAUNCH trace span (and its
        CHUNK children) when tracing is enabled.

        Both schedules charge every chunk through the same per-chunk
        step (cost, injected faults, CHUNK span around the body), so the
        accounting does not depend on whether a tracer or an injector is
        attached; static bounds come from a cache.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        if schedule not in ("static", "dynamic"):
            raise ValueError(f"unknown schedule {schedule!r}")
        if chunk is not None and chunk < 0:
            raise ValueError("chunk must be >= 0 (0 or None: default size)")
        tracer = self.server.active_tracer()
        injector = self.server.active_injector()
        metrics = get_metrics()
        all_cpes: list[int] = []
        for t, head in enumerate(self._team_heads):
            for m in self.team_members(t):
                if m != head:
                    self.server.spawn(f"cpe{head}", m, "team_member")
                all_cpes.append(m)
        ncpe = len(all_cpes)
        times = np.zeros(ncpe)
        if n == 0:
            return 0.0

        def charge(lane: int, start: int, end: int) -> None:
            cpe = all_cpes[lane]
            if callable(cost_per_elem):
                dt = cost_per_elem(start, end)
            else:
                dt = cost_per_elem * (end - start)
            penalty = 0.0
            if injector is not None:
                # A failed CPE chunk: the job server re-dispatches it
                # (the wasted attempt plus one backoff is pure simulated
                # time — re-execution of the pure chunk body is bitwise
                # neutral, so only the clock moves).
                ev = injector.fire(FaultKind.CPE_FAIL, site=name)
                if ev is not None:
                    penalty += dt + self.server.retry.backoff(1)
                    metrics.inc("swgomp.chunk_retries")
                    injector.recover(FaultKind.CPE_FAIL, "chunk_retry", site=name)
                # A straggler chunk: same result, k-times the time; the
                # dynamic schedule's argmin lane selection then steers
                # work away from the slow lane (detection + absorption).
                ev = injector.fire(FaultKind.STRAGGLER, site=name)
                if ev is not None:
                    dt *= float(ev.params.get("straggler_factor", 8.0))
                    metrics.inc("swgomp.stragglers")
                    injector.recover(FaultKind.STRAGGLER, "straggler_absorbed", site=name)
            span = tracer.span(name, SpanKind.CHUNK, cpe=cpe, start=start, end=end)
            with span:
                body(start, end)
                span.set(sim_seconds=dt + penalty)
            times[lane] += dt + penalty
            st = self.server.cpes[all_cpes[lane]]
            st.chunks_executed += 1
            metrics.inc("swgomp.chunks")

        with tracer.span(
            name, SpanKind.KERNEL_LAUNCH, n_elems=n, n_cpes=ncpe,
            n_teams=self.n_teams, schedule=schedule,
        ) as region_span:
            if schedule == "static":
                bounds = _static_bounds(n, ncpe)
                for lane in range(ncpe):
                    if bounds[lane + 1] > bounds[lane]:
                        charge(lane, int(bounds[lane]), int(bounds[lane + 1]))
            else:
                chunk = chunk or max(1, n // (4 * ncpe))
                pos = 0
                while pos < n:
                    lane = int(np.argmin(times))
                    end = min(pos + chunk, n)
                    charge(lane, pos, end)
                    pos = end

            region_time = float(times.max())
            region_span.set(sim_seconds=region_time)
        metrics.inc("swgomp.launches")
        metrics.observe("swgomp.region_sim_seconds", region_time)
        for lane, cpe in enumerate(all_cpes):
            self.server.cpes[cpe].busy_seconds += times[lane]
        return region_time
