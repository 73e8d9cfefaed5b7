"""The ensemble engine: N perturbed members on one shared warm model.

:class:`EnsembleRunner` executes N ensemble members of a registered
scenario — perturbed initial conditions (seeded ``[seed, member]``
theta noise) and optionally perturbed physics (SPPT-style multiplicative
tendency factors, seeded ``[seed, member, SPPT_STREAM]``, set per member
on the model's physics slot as ``ResilientPhysics.factors``) — and
derives spread/probability products from the member results.

``run()`` is the **per-member loop**: one shared warm model (or a model
acquired from a serving :class:`~repro.serve.pool.ModelPool` when the
configs match), reset bit-exactly between members, exactly the serving
scheduler's member execution.  Stencil plans compile once for the
shared mesh, not once per member.  ``workers=N`` runs the same loop
(``_run_shard``) on member-strided shards in forked processes,
digest-identical to the serial loop.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from repro.ensemble.products import ensemble_products
from repro.ensemble.scenarios import (
    Scenario,
    build_scenario_model,
    get_scenario,
    physics_perturbation_factors,
)

#: Exceedance thresholds of the default product set.
PRECIP_THRESHOLD = 1.0 / 86400.0     # 1 mm/day in kg/m^2/s
WIND_THRESHOLD = 15.0                # m/s


@dataclass(frozen=True)
class EnsembleResult:
    """All members of one ensemble run plus derived products."""

    scenario: str
    level: int
    nlev: int
    steps: int
    scheme: str
    seed: int
    n_members: int
    members: tuple             # MemberResult per member
    products: dict             # field -> product dict (see ensemble_products)
    plan_compiles: int         # stencil plan compilations this run caused
    wall_seconds: float = 0.0

    def digest(self) -> str:
        """One digest over the member states — the run's identity."""
        h = hashlib.sha256()
        for m in self.members:
            h.update(m.digest.encode())
        return h.hexdigest()

    def member_digests(self) -> tuple:
        return tuple(m.digest for m in self.members)


class EnsembleRunner:
    """Run N perturbed members of a registered scenario."""

    def __init__(
        self,
        scenario: Scenario | str = "tropical",
        n_members: int = 4,
        seed: int = 0,
        level: int = 3,
        nlev: int = 8,
        steps: int | None = None,
        scheme: str | None = None,
        perturbation: float = 0.3,
        physics_perturbation: float = 0.0,
        pool=None,
        workers: int = 1,
    ):
        self.scenario = (
            get_scenario(scenario) if isinstance(scenario, str) else scenario
        )
        if n_members < 1:
            raise ValueError("n_members must be >= 1")
        self.n_members = n_members
        self.seed = seed
        self.level = level
        self.nlev = nlev
        self.steps = self.scenario.default_steps if steps is None else steps
        self.scheme = self.scenario.default_scheme if scheme is None else scheme
        self.perturbation = perturbation
        self.physics_perturbation = physics_perturbation
        self.pool = pool
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers > 1 and pool is not None:
            raise ValueError(
                "workers > 1 forks member-sharded processes and cannot "
                "share a serving ModelPool; pass pool=None"
            )
        self.workers = workers

    # -- serving-schema view ---------------------------------------------
    def request(self):
        """This ensemble as a :class:`ForecastRequest` (the pool key and
        the cache-addressable identity of the unperturbed-physics run)."""
        from repro.serve.request import ForecastRequest

        return ForecastRequest(
            level=self.level, nlev=self.nlev, steps=self.steps,
            scenario=self.scenario.name, ensemble_size=self.n_members,
            seed=self.seed, scheme=self.scheme,
            perturbation=self.perturbation,
        )

    # -- internals -------------------------------------------------------
    def _member_result(self, member: int, state, model):
        """The serving layer's member result plus the time-mean
        precipitation field the ensemble products are built from."""
        from repro.serve.request import MemberResult

        result = MemberResult.from_state(member, state, model)
        result.fields["diag.mean_precip"] = (
            model.history.mean_precip()
            if model.history.precip else np.zeros_like(state.ps)
        )
        return result

    def _products(self, members: tuple) -> dict:
        stacks = {
            "mean_precip": np.stack(
                [m.fields["diag.mean_precip"] for m in members]
            ),
            "wind": np.stack(
                [np.abs(m.fields["u"]).max(axis=1) for m in members]
            ),
        }
        return ensemble_products(
            stacks,
            thresholds={
                "mean_precip": PRECIP_THRESHOLD, "wind": WIND_THRESHOLD,
            },
        )

    def _build_model(self):
        return build_scenario_model(
            self.scenario, self.level, self.nlev, self.scheme
        )

    def _result(self, members, compiles, t0):
        return EnsembleResult(
            scenario=self.scenario.name, level=self.level, nlev=self.nlev,
            steps=self.steps, scheme=self.scheme, seed=self.seed,
            n_members=self.n_members, members=tuple(members),
            products=self._products(tuple(members)),
            plan_compiles=compiles,
            wall_seconds=time.perf_counter() - t0,
        )

    # -- execution -------------------------------------------------------
    def run(self) -> EnsembleResult:
        """The per-member loop on one shared warm model."""
        from repro.dycore.stencil import plan_compile_count

        if self.workers > 1:
            return self._run_loop_forked()
        t0 = time.perf_counter()
        c0 = plan_compile_count()
        request = None
        if self.pool is not None:
            request = self.request()
            model = self.pool.acquire(request)
        else:
            model = self._build_model()
        try:
            members = [res for _, res in self._run_shard(model, range(self.n_members))]
        finally:
            if self.pool is not None:
                self.pool.release(request, model)
        return self._result(members, plan_compile_count() - c0, t0)

    def _run_loop_forked(self) -> EnsembleResult:
        """Member-sharded fork of the oracle loop (``workers > 1``).

        Worker ``w`` runs members ``w, w + W, ...`` on a private model.
        Each member's trajectory starts from its own seeded initial
        state on a freshly built (or bit-exactly reset) model, so the
        shard assignment cannot change any member's bits — the result
        is digest-identical to the serial loop, which the test suite
        pins.  ``plan_compiles`` sums the per-worker deltas (each forked
        process compiles the shared mesh's plan once).
        """
        import multiprocessing as mp

        from repro.dycore.stencil import plan_compile_count

        t0 = time.perf_counter()
        c0 = plan_compile_count()
        ctx = mp.get_context("fork")
        n_workers = min(self.workers, self.n_members)
        conns, procs = [], []
        for w in range(n_workers):
            parent, child = ctx.Pipe(duplex=False)
            p = ctx.Process(
                target=_loop_shard_worker,
                args=(child, self, w, n_workers),
                daemon=True,
            )
            p.start()
            child.close()
            conns.append(parent)
            procs.append(p)
        members: list = [None] * self.n_members
        compiles = plan_compile_count() - c0
        errors = []
        for w, conn in enumerate(conns):
            try:
                tag, payload = conn.recv()
            except (EOFError, ConnectionResetError, OSError):
                errors.append(f"ensemble worker {w} died (pipe closed)")
                continue
            if tag == "ok":
                shard, shard_compiles = payload
                compiles += shard_compiles
                for member, res in shard:
                    members[member] = res
            else:
                errors.append(f"worker {w}: {payload}")
        for conn in conns:
            conn.close()
        for p in procs:
            p.join()
        if errors:
            raise RuntimeError(
                "ensemble worker failed: " + "; ".join(errors)
            )
        return self._result(members, compiles, t0)

    def _run_shard(self, model, members) -> list:
        """``(member, result)`` for each of ``members``, one after the
        other on the warm ``model``, reset bit-exactly between them."""
        out = []
        for member in members:
            if out:
                model.reset()
            state = self.scenario.member_state(
                model.mesh, model.vcoord, member, self.seed, self.perturbation,
            )
            if self.physics_perturbation > 0.0:
                model.physics.factors = physics_perturbation_factors(
                    model.mesh.nc, self.seed, member, self.physics_perturbation,
                )
            try:
                state = model.run(state, self.steps)
            finally:
                model.physics.factors = None
            out.append((member, self._member_result(member, state, model)))
        return out


def _loop_shard_worker(conn, runner: EnsembleRunner, shard: int, stride: int):
    """Forked child: members ``shard, shard + stride, ...`` on a private
    model, shipped back as ``("ok", (results, plan_compiles))``."""
    from repro.dycore.stencil import plan_compile_count

    try:
        c0 = plan_compile_count()
        out = runner._run_shard(
            runner._build_model(), range(shard, runner.n_members, stride)
        )
        conn.send(("ok", (out, plan_compile_count() - c0)))
    except Exception as exc:   # report, don't hang the parent's recv
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


__all__ = [
    "EnsembleResult", "EnsembleRunner", "PRECIP_THRESHOLD", "WIND_THRESHOLD",
]
