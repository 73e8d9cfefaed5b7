"""The benchmark driver: set-up timing, round-robin rounds, the traced
pass and the report.  ``bench/run.py`` is the entry point; it puts the
checkout's ``src`` on the path and hands the parsed arguments to
:func:`run_benchmark`."""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

import numpy

from bench import probes
from bench import workloads as wl
from bench.spans import SpanRecorder
from repro.dycore.stencil import plan_compile_count
from repro.grid import build_mesh

E2E_UNITS = {
    "setup_s": "s",
    "step_ms": "ms",
    "sdpd": "d/d",
    "goodput_rps": "req/s",
}
DEFAULT_ROUNDS = 6
MIN_ROUNDS = 2
TRACED_ROUNDS = 2


class Run:
    """One workload's bookkeeping across the run."""

    def __init__(self, workload):
        self.w = workload
        self.setups: list[float] = []
        self.samples = []
        self.traced = []
        self.plan_compiles = 0
        self.rss_mb = 0.0


def timed_setup(w) -> float:
    """Time to the first result: cold construct plus the first smallest
    unit of work, which pays whatever the construct left lazy."""
    t0 = time.perf_counter()
    w.build()
    w.warmup_unit()
    return time.perf_counter() - t0


def start(run: Run) -> None:
    """First (kept) set-up of a workload, the stencil-plan compilations it
    caused, and its oracle."""
    c0 = plan_compile_count()
    run.setups.append(timed_setup(run.w))
    run.plan_compiles = plan_compile_count() - c0
    run.rss_mb = probes.rss_mb()
    run.w.prepare()


def measure(runs, sizes, rounds: int | None, seconds: float | None) -> None:
    """Round-robin untraced rounds.  Rounds 1..builds-1 also time one
    more fresh, throw-away set-up per workload, so set-ups (like samples)
    are spread over the run and their best is not one host phase's."""
    spent = 0.0
    r = 0
    while True:
        for run in runs:
            if 0 < r < sizes.builds:
                extra = type(run.w)(sizes, run.w.seed)
                try:
                    run.setups.append(timed_setup(extra))
                finally:
                    extra.close()
            s = run.w.sample()
            run.samples.append(s)
            spent += s.wall_s
        r += 1
        if rounds is not None and r >= rounds:
            return
        # Another round only if at least half of it fits the budget.
        if seconds is not None and r >= MIN_ROUNDS and spent + 0.5 * spent / r > seconds:
            return


def take_traced(run: Run, rec, tag: str) -> None:
    run.traced.append(run.w.sample(rec, f"{run.w.name}#{tag}"))


def verdict(run: Run) -> tuple[int, int]:
    """(attempted, failed) over every sample taken, traced ones included.
    Samples of one workload do identical work: a digest that differs from
    the first sample's is a failure."""
    samples = run.samples + run.traced
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    failed += sum(s.digest != samples[0].digest and not s.failed for s in samples)
    return attempted, failed


class Fixtures:
    """Workload-sized inputs for the layer probes: the selected workload's
    own objects where it has them, otherwise built (and sampled once, for
    the window the budget shares divide by) on demand."""

    def __init__(self, runs, sizes, seed, rec):
        self.by_class = {type(run.w): run for run in runs}
        self.sizes, self.seed, self.rec = sizes, seed, rec
        self._budgets: dict[type, dict] = {}

    def run_of(self, cls) -> Run:
        run = self.by_class.get(cls)
        if run is None:
            run = Run(cls(self.sizes, self.seed))
            timed_setup(run.w)
            run.w.prepare()
            take_traced(run, self.rec, "probe")
            self.by_class[cls] = run
        return run

    def budget_of(self, coupled: Run) -> dict:
        """The coupled budget of a model, from its fastest traced window."""
        cls = type(coupled.w)
        if cls not in self._budgets:
            sid = min(coupled.traced, key=lambda s: s.wall_s).sid
            self._budgets[cls] = probes.model_budget(
                self.sizes, coupled.w.model, coupled.w.initial,
                [sp for sp in self.rec.spans if sp.sample == sid])
        return self._budgets[cls]

    def close(self) -> None:
        for run in self.by_class.values():
            run.w.close()


def shared_layers(fx: Fixtures) -> dict:
    """Every probe that does not depend on which workload was selected."""
    sizes = fx.sizes
    phy = fx.run_of(wl.CoupledG5Phy).w
    mlnet = fx.run_of(wl.CoupledG3MLNet).w
    serve = fx.run_of(wl.ServeG3Mix)
    mesh = build_mesh(sizes.level)
    out = {}
    out.update(probes.grid_partition(sizes, mesh))
    out.update(probes.parallel(sizes, mesh, phy.initial))
    out.update(probes.dycore(sizes, phy.initial))
    out.update(probes.precision(sizes))
    out.update(probes.physics(sizes, phy.model, phy.initial))
    out.update(probes.ml(sizes, mlnet.model, mlnet.initial))
    out.update(probes.serve(
        [s.detail for s in serve.traced], serve.w.schedule[0].request))
    out.update(probes.obs_overhead(sizes))
    return out


def own_layers(run: Run, fx: Fixtures) -> dict:
    """The per-layer numbers that are about the selected workload's own
    samples.  The coupled budget is that of the workload's own model, or
    of the G5 DP-PHY model for workloads that have no ``GristModel``."""
    coupled = run if isinstance(run.w, wl.Coupled) else fx.run_of(wl.CoupledG5Phy)
    walls = [s.wall_s for s in run.samples + run.traced]
    untraced = [s.wall_s for s in run.samples] or walls
    out = dict(fx.budget_of(coupled))
    out.update(probes.host(walls, run.rss_mb))
    out.update({
        "model.window_s.p50": (statistics.median(untraced), "s"),
        "model.window_s.p90": (wl.percentile(untraced, 0.9), "s"),
        "model.mass_drift_rel": (
            (coupled.samples or coupled.traced)[0].detail["mass_drift_rel"], "ratio"),
        "bench.samples": (float(len(untraced)), "count"),
        "bench.trace_overhead_share": (
            min(s.wall_s for s in run.traced) / min(untraced) - 1.0, "share"),
        "dycore.plan_compiles": (float(run.plan_compiles), "count"),
    })
    return out


def exact_facts(run: Run) -> dict:
    """What must repeat exactly between two runs of one seed."""
    first = run.samples[0]
    facts = {"digest": first.digest, "dycore.plan_compiles": run.plan_compiles}
    for key in ("msgs_per_step", "bytes_per_step"):
        if key in first.detail:
            facts[f"comm.{key}"] = first.detail[key]
    for key, n in first.detail.get("counts", {}).items():
        facts[f"serve.requests.{key}"] = n
    return facts


def print_table(title: str, metrics: dict) -> None:
    print(f"\n{title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46s} {value:>16.6g} {unit}")


def run_benchmark(args) -> int:
    """Run what ``args`` (see ``bench/run.py``) asks for; the exit code."""
    sizes = wl.QUICK if args.quick else wl.FULL
    classes = [c for c in wl.WORKLOADS if args.workload in (None, c.name)]
    if not classes:
        sys.stderr.write(
            f"bench: unknown workload {args.workload!r}; "
            f"known: {[c.name for c in wl.WORKLOADS]}\n")
        return 2
    rounds, seconds = args.rounds, args.seconds
    if rounds is None and seconds is None:
        rounds = MIN_ROUNDS if args.quick else DEFAULT_ROUNDS
    if seconds is not None and args.trace:
        seconds /= 3.0      # the traced pass and the probes need the rest

    runs = [Run(cls(sizes, args.seed)) for cls in classes]
    rec = SpanRecorder()
    fx = Fixtures(runs, sizes, args.seed, rec)
    try:
        for run in runs:
            start(run)
        measure(runs, sizes, rounds, seconds)
        layers = {}
        if args.trace:
            for i in range(TRACED_ROUNDS):
                for run in runs:
                    take_traced(run, rec, f"t{i}")
            shared = shared_layers(fx)
            for run in runs:
                layers[run.w.name] = {**shared, **own_layers(run, fx)}
    finally:
        fx.close()
    return report(runs, layers, args, rec)


def report(runs, layers: dict, args, rec) -> int:
    """Print every metric, write the results (and spans), print the
    contract's last line; the exit code."""
    results = {
        "schema": "bench/1",
        "seed": args.seed,
        "quick": args.quick,
        "host": {
            "cpus": os.cpu_count(),
            "numpy": numpy.__version__,
            "python": platform.python_version(),
        },
        "workloads": {},
    }
    total_attempted = total_failed = 0
    last = {}
    for run in runs:
        name = run.w.name
        attempted, failed = verdict(run)
        total_attempted += attempted
        total_failed += failed
        e2e = {"setup_s": min(run.setups), **run.w.end_to_end(run.samples)}
        e2e = {k: (e2e[k], E2E_UNITS[k]) for k in E2E_UNITS}
        print_table(
            f"{name}: end to end, best of {len(run.samples)} rounds "
            f"({len(run.setups)} set-ups); fail_share {failed}/{attempted}", e2e)
        if args.trace:
            print_table(f"{name}: per layer", layers[name])
        results["workloads"][name] = {
            "why": run.w.why,
            "rounds": len(run.samples),
            "attempted": attempted,
            "failed": failed,
            "fail_share": failed / attempted,
            "sample_wall_s": [s.wall_s for s in run.samples],
            "setup_s_all": run.setups,
            "exact": exact_facts(run),
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.get(name, {}).items()},
        }
        prefix = f"{name}:" if len(runs) > 1 else ""
        for k, (v, u) in (layers[name] if args.trace else e2e).items():
            last[prefix + k] = {"value": v, "unit": u}

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults: {args.out}")
    if args.trace:
        trace_path = args.out.with_suffix(".trace.json")
        rec.write(trace_path)
        print(f"trace:   {trace_path} ({len(rec.spans)} spans)")
    print(json.dumps({
        "correct": total_failed == 0,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": last,
    }))
    return 0 if total_failed == 0 else 1
