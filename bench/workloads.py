"""The four benchmark workloads.

Every workload pins its *inputs* (grid, levels, scheme, network size,
decomposition, arrival schedule) and leaves every implementation switch
(stencil backend, overlap, batching, ...) at the process default, so a
change that flips a default shows up here.

A workload object goes through ``build`` + ``warmup_unit`` (cold
construct and the first smallest unit of work: together ``setup_s``) ->
``prepare`` (oracles, untimed) -> ``sample`` once per round.  Batch samples restart from the same initial state
(``model.reset()`` + a copy), so all samples do identical work and their
digests must be equal.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from bench.load import LEVEL as SERVE_LEVEL
from bench.load import NLEV as SERVE_NLEV
from bench.load import SCHEMES, make_schedule
from bench.load import STEPS as SERVE_STEPS
from bench.spans import OFF
from repro.dycore.solver import DycoreConfig, DynamicalCore
from repro.dycore.vertical import VerticalCoordinate
from repro.ensemble.scenarios import build_scenario_model, get_scenario
from repro.grid import build_mesh
from repro.ml.suite import MLPhysicsSuite
from repro.model.config import TABLE3_SCHEMES, scaled_grid_config
from repro.model.grist import GristModel
from repro.parallel.driver import DistributedDycore
from repro.precision.policy import PrecisionPolicy
from repro.resilience.recovery import StepFailure, state_is_finite
from repro.serve.cache import ResultCache
from repro.serve.pool import ModelPool
from repro.serve.request import ForecastRequest, state_digest
from repro.serve.scheduler import ForecastScheduler, run_serial_oracle

STEPS = 12                 # one coupling window: 12 dyn, 2 tracer, 1 physics
NLEV = 10
ML_LEVEL = 3               # grid of the ML workload, at every size
SCENARIO = "tropical"
NPARTS, WORKERS = 8, 2     # workers = nproc of the reference host
LATENCY_LIMIT_S = 1.0      # goodput counts requests answered within this
RANKS_REL_TOL = 1e-9       # per-field relative L2 against the serial oracle


@dataclass(frozen=True)
class Sizes:
    level: int = 5             # grid of the G5 workloads
    ml_width: int = 128        # the paper-size 495,106-parameter CNN
    ml_resunits: int = 5
    serve_round_s: float = 4.0
    reps: int = 5              # isolated calls per layer probe
    builds: int = 5            # fresh set-ups per run


FULL = Sizes()
QUICK = Sizes(level=3, ml_width=32, ml_resunits=2, serve_round_s=2.0, reps=2, builds=2)


@dataclass
class Sample:
    wall_s: float
    attempted: int
    failed: int
    digest: str
    detail: dict = field(default_factory=dict)
    sid: str | None = None     # the id its spans carry, when traced


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    v = sorted(values)
    return v[min(len(v) - 1, int(q * (len(v) - 1) + 0.5))]


def initial_state(mesh, vcoord, seed: int):
    return get_scenario(SCENARIO).member_state(mesh, vcoord, member=0, seed=seed)


# -- model/driver construction shared with the layer probes ---------------

def build_phy_model(sizes: Sizes):
    return build_scenario_model(SCENARIO, sizes.level, NLEV, "DP-PHY")


def build_ml_model(sizes: Sizes):
    mesh = build_mesh(ML_LEVEL)
    vc = VerticalCoordinate.stretched(NLEV)
    surface = get_scenario(SCENARIO).build_surface(mesh)
    suite = MLPhysicsSuite.seeded(
        mesh, vc, surface, width=sizes.ml_width, n_resunits=sizes.ml_resunits,
        precision=PrecisionPolicy(mixed=True),
    )
    return GristModel(
        mesh, vc, scaled_grid_config(ML_LEVEL, NLEV),
        TABLE3_SCHEMES["MIX-ML"], surface=surface, physics_suite=suite,
    )


def build_ranks_driver(sizes: Sizes, mesh=None, workers: int = WORKERS, **kwargs):
    mesh = mesh if mesh is not None else build_mesh(sizes.level)
    dt = scaled_grid_config(sizes.level, NLEV).dt_dyn
    return DistributedDycore(
        mesh, VerticalCoordinate.stretched(NLEV), DycoreConfig(dt=dt),
        nparts=NPARTS, workers=workers, **kwargs,
    )


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


# -- batch workloads -------------------------------------------------------

class BatchWorkload:
    """A workload whose sample is one ``STEPS``-step window."""

    name = ""

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.seed = seed
        self.dt_dyn = 0.0

    def close(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def end_to_end(self, samples: list[Sample]) -> dict:
        """Best-of-rounds, taken piece by piece.  Every sample times the
        same sequence of pieces (each dynamics step of the window; also
        the scatter on ranks), and piece *i* does identical work in every
        round, so its noise-free time is its minimum over the rounds and
        the noise-free window is the sum of those minima.  The host's
        fast episodes are often shorter than a 3 s window but rarely
        shorter than one step (see bench/README.md).

        A "request" here is one window and a round holds one, so goodput
        is windows per second — by construction the same fact as
        ``step_ms``, kept because every workload reports every metric."""
        pieces = [s.detail["pieces_s"] for s in samples if not s.failed]
        best = sum(min(col) for col in zip(*pieces))
        return {
            "step_ms": 1e3 * best / STEPS,
            "sdpd": STEPS * self.dt_dyn / best,
            "goodput_rps": 1.0 / best,
        }


class Coupled(BatchWorkload):
    """Serial ``GristModel``; subclasses choose the model."""

    def _build_model(self):
        raise NotImplementedError

    def build(self) -> None:
        self.model = self._build_model()
        self.dt_dyn = self.model.grid_config.dt_dyn
        self.initial = initial_state(self.model.mesh, self.model.vcoord, self.seed)

    def warmup_unit(self) -> None:
        self.model.reset()
        self.model.dycore.step(self.initial.copy())

    def layer_calls(self):
        """(object, method, span name) for each call into a layer."""
        m = self.model
        ml = bool(m.scheme.ml_physics)
        compute = "compute_from_coupler" if hasattr(m.physics, "compute_from_coupler") else "compute"
        return [
            (m.dycore, "step", "dycore.step"),
            (m.dycore, "compute_tendencies", "dycore.compute_tendencies"),
            (m, "step_physics", "model.step_physics"),
            (m.coupler, "extract", "model.extract"),
            (m.physics, compute, "ml.suite" if ml else "physics.suite"),
            (m.coupler, "apply_tendencies", "model.apply_tendencies"),
        ]

    def sample(self, rec=OFF, sample_id=None) -> Sample:
        self.model.reset()
        state = self.initial.copy()
        mass0 = state.total_dry_mass()
        t0 = time.perf_counter()
        try:
            with ExitStack() as stack:
                stack.enter_context(rec.span(f"{self.name}.window", sample=sample_id))
                for obj, attr, name in self.layer_calls():
                    stack.enter_context(rec.wrapping(obj, attr, name))
                marks = [time.perf_counter()]
                for _ in range(STEPS):      # == run(state, STEPS), timed per step
                    state = self.model.run(state, 1)
                    marks.append(time.perf_counter())
            ok = True
        except (StepFailure, FloatingPointError):
            ok = False
        wall = time.perf_counter() - t0
        ok = ok and state_is_finite(state)
        detail = {
            "pieces_s": list(np.diff(marks)),
            "mass_drift_rel": (state.total_dry_mass() - mass0) / mass0,
        }
        return Sample(wall, 1, 0 if ok else 1, state_digest(state), detail, sample_id)


class CoupledG5Phy(Coupled):
    name = "coupled_g5_phy"
    why = (
        "headline seconds per coupled step: ~90% dycore (RK stages, tracer, sponge), "
        "~2% conventional physics, no ML, comm or scheduler"
    )

    def _build_model(self):
        return build_phy_model(self.sizes)


class CoupledG3MLNet(Coupled):
    name = "coupled_g3_mlnet"
    why = (
        "the opposite split: ~91% inference of the paper-size 495k-parameter CNN, "
        "~8% dycore; Conv1D/float32 work shows here and must not move coupled_g5_phy"
    )

    def _build_model(self):
        return build_ml_model(self.sizes)


class RanksG5W2(BatchWorkload):
    name = "ranks_g5_w2"
    why = (
        "only workload through partition, parallel (local meshes, exchange plans, "
        "forked executor) and comm: same kernels on 8 rank-local meshes, 2 workers"
    )

    def build(self) -> None:
        self.driver = build_ranks_driver(self.sizes)
        self.dt_dyn = self.driver.config.dt
        self.initial = initial_state(self.driver.mesh, self.driver.vcoord, self.seed)
        self.oracle = None

    def close(self) -> None:
        self.driver.close()

    def warmup_unit(self) -> None:
        self.driver.scatter(self.initial)
        self.driver.step()

    def prepare(self) -> None:
        core = DynamicalCore(self.driver.mesh, self.driver.vcoord, self.driver.config)
        ref = core.run(self.initial.copy(), STEPS)
        self.oracle = (ref.ps, ref.u, ref.theta)

    def sample(self, rec=OFF, sample_id=None) -> Sample:
        d = self.driver
        before = d.comm_stats()
        t0 = time.perf_counter()
        with (
            rec.span(f"{self.name}.window", sample=sample_id),
            rec.wrapping(d, "scatter", "parallel.scatter"),
            rec.wrapping(d, "step", "parallel.step"),
        ):
            marks = [time.perf_counter()]
            d.scatter(self.initial)
            marks.append(time.perf_counter())
            for _ in range(STEPS):          # == run(STEPS), timed per step
                d.step()
                marks.append(time.perf_counter())
        wall = time.perf_counter() - t0
        comm = d.comm_stats()
        with rec.span("parallel.gather", sample=sample_id):
            fields = d.gather()
        err = max(rel_l2(a, b) for a, b in zip(fields, self.oracle))
        ok = all(np.isfinite(a).all() for a in fields) and err <= RANKS_REL_TOL
        h = hashlib.sha256()
        for a in fields:
            h.update(np.ascontiguousarray(a).tobytes())
        detail = {
            "pieces_s": list(np.diff(marks)),
            "max_rel_err": err,
            "msgs_per_step": (comm["messages"] - before["messages"]) / STEPS,
            "bytes_per_step": (comm["bytes"] - before["bytes"]) / STEPS,
            "exchange_s": comm["exchange_seconds_total"],
            "pack_s": comm["pack_seconds"],
            "unpack_s": comm["unpack_seconds"],
            "wire_s": comm["wire_seconds"],
        }
        return Sample(wall, 1, 0 if ok else 1, h.hexdigest(), detail, sample_id)


# -- the serving workload --------------------------------------------------

class ServeG3Mix:
    name = "serve_g3_mix"
    why = (
        "per served request, open loop: 8 req/s steady (service time) plus a 32 req/s "
        "burst (queueing); repeats split into cache hits and in-flight duplicates; "
        "the three batch workloads bypass serve"
    )

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.seed = seed
        self.round_s = sizes.serve_round_s
        self.dt_dyn = scaled_grid_config(SERVE_LEVEL, SERVE_NLEV).dt_dyn

    def build(self) -> None:
        self.pool = ModelPool(max_models=2)
        self.schedule = make_schedule(self.seed, self.round_s)
        self.oracle: dict[str, str] = {}

    def close(self) -> None:
        pass

    def _scheduler(self) -> ForecastScheduler:
        return ForecastScheduler(max_workers=2, pool=self.pool, cache=ResultCache())

    def warmup_unit(self) -> None:
        """One request per scheme, concurrently: builds both pooled models."""
        with self._scheduler() as sched:
            jobs = [
                sched.submit(ForecastRequest(
                    level=SERVE_LEVEL, nlev=SERVE_NLEV, steps=SERVE_STEPS, scheme=s,
                ))
                for s in SCHEMES
            ]
            for job in jobs:
                job.result()

    def prepare(self) -> None:
        """Serial-oracle digest of the first scheduled request per scheme."""
        for scheme in SCHEMES:
            req = next(a.request for a in self.schedule if a.request.scheme == scheme)
            self.oracle[req.cache_key()] = run_serial_oracle(req).digest()

    def sample(self, rec=OFF, sample_id=None) -> Sample:
        """One open-loop round: submit each request at its due time,
        whatever the scheduler's backlog, then wait for all of them."""
        sched = self._scheduler()
        try:
            t0 = time.perf_counter() + 0.02
            jobs = []
            for a in self.schedule:
                delay = t0 + a.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                jobs.append(sched.submit(a.request))
            results = [job.result() for job in jobs]
            stats = sched.stats()
        finally:
            sched.shutdown()
        end = max(job.finished_at for job in jobs)
        rows, digests, failed = self._check(t0, jobs, results)
        # Every job resolved exactly once, none left behind.
        if stats["completed"] != len(jobs) or stats["in_flight"] != 0:
            failed = max(failed, 1)

        parent = rec.add(f"{self.name}.round", t0, end, sample=sample_id)
        for i, r in enumerate(rows):
            rid, tid = f"{sample_id}/{i}", 1 + i % 8
            req = rec.add("serve.request", r["due"], r["finished"], parent, rid, tid)
            rec.add("serve.queue_wait", r["submitted"], r["started"], req, rid, tid)
            rec.add("serve.hit" if r["hit"] else "serve.run",
                    r["started"], r["finished"], req, rid, tid)

        in_time = sum(r["ok"] and r["finished"] - r["due"] <= LATENCY_LIMIT_S for r in rows)
        h = hashlib.sha256()
        for key in sorted(digests):
            h.update(f"{key}:{digests[key]}".encode())
        detail = {
            "goodput_rps": in_time / (end - t0),
            # Service time of a request that had a worker to itself in a
            # fast host episode: the fastest cold run (two at once share
            # the GIL).
            "solo_step_s": min(
                (r["finished"] - r["started"]) / SERVE_STEPS for r in rows if not r["hit"]),
            "rows": rows,
            "pool": self.pool.stats(),
            "counts": {
                "requests": len(rows),
                "new": sum(not r["repeat"] for r in rows),
                "repeat": sum(r["repeat"] for r in rows),
            },
        }
        return Sample(end - t0, len(rows), failed, h.hexdigest(), detail, sample_id)

    def _check(self, t0: float, jobs, results):
        """Per-request rows (timestamps, class, verdict), the digest of
        each distinct request, and how many requests failed a check."""
        first_job: dict[str, object] = {}
        digests: dict[str, str] = {}
        failed = 0
        rows = []
        for a, job, res in zip(self.schedule, jobs, results):
            key = res.key
            bad = res.status != "ok"
            if not bad:
                digest = res.digest()
                bad = digests.setdefault(key, digest) != digest
                bad = bad or self.oracle.get(key, digest) != digest
            failed += bad
            original = first_job.setdefault(key, job)
            rows.append({
                "due": t0 + a.due, "submitted": job.submitted_at,
                "started": job.started_at, "finished": job.finished_at,
                "ok": not bad, "hit": bool(res.cache_hit), "repeat": a.repeat,
                "inflight": a.repeat and original.finished_at > job.submitted_at,
            })
        return rows, digests, failed

    def end_to_end(self, samples: list[Sample]) -> dict:
        """Each metric is its best round.  ``step_ms`` is the service side
        of a request: solo cold run time per dynamics step."""
        d = [s.detail for s in samples]
        step_s = min(x["solo_step_s"] for x in d)
        return {
            "step_ms": 1e3 * step_s,
            "sdpd": self.dt_dyn / step_s,
            "goodput_rps": max(x["goodput_rps"] for x in d),
        }


WORKLOADS = (CoupledG5Phy, CoupledG3MLNet, RanksG5W2, ServeG3Mix)
