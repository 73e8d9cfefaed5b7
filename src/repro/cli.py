"""Command-line interface: ``python -m repro <command>``.

Commands mirror the example scripts so the headline experiments run
without writing any Python:

* ``simulate``  — integrate the coupled model and write history/restart;
* ``doksuri``   — the Fig. 7 resolution comparison;
* ``scaling``   — Figs. 10/11 + headline SYPD from the machine model;
* ``kernels``   — the Fig. 9 kernel speedup table;
* ``train-ml``  — the section 3.2 training workflow;
* ``grids``     — print Table 2;
* ``lint``      — swlint: static offload-plan analysis + sanitizer,
  and with ``--parallel`` the RD race & determinism pass;
* ``profile``   — instrumented run: spans, metrics, Chrome trace, and
  the predicted-vs-traced kernel reconciliation;
* ``chaos``     — fault-injected integration under a named plan:
  survival, recovery accounting, drift vs the fault-free twin;
* ``serve``     — forecast-as-a-service load run: concurrent requests
  through the scheduler/pool/cache, with throughput, p50/p99 latency
  and cache accounting (optionally poisoning some requests to
  demonstrate per-request fault isolation);
* ``ensemble``  — run N perturbed members of a registered scenario
  and print spread and probability products.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_grids(args) -> int:
    from repro.model.config import TABLE2_GRIDS

    print(f"{'label':6s} {'cells':>12s} {'edges':>12s} {'vertices':>12s} "
          f"{'res km':>16s}")
    for label, g in TABLE2_GRIDS.items():
        lo, hi = g.resolution_km
        print(f"{label:6s} {g.cells:12,d} {g.edges:12,d} {g.vertices:12,d} "
              f"{lo:7.2f}~{hi:<7.2f}")
    return 0


def _cmd_simulate(args) -> int:
    import numpy as np

    from repro.ensemble.scenarios import build_scenario_model, get_scenario
    from repro.model.io import HistoryWriter, save_state

    scenario = get_scenario("tropical")
    model = build_scenario_model(scenario, args.level, args.nlev, args.scheme)
    state = scenario.base_state(model.mesh, model.vcoord)
    rng = np.random.default_rng(args.seed)
    state.theta = state.theta + 0.3 * rng.normal(size=state.theta.shape)

    writer = HistoryWriter(args.out) if args.out else None
    chunk = max(1.0, args.hours / 8.0)
    done = 0.0
    while done < args.hours:
        step = min(chunk, args.hours - done)
        state = model.run_hours(state, step)
        done += step
        precip = (
            model.history.mean_precip().mean() * 86400.0
            if model.history.precip else 0.0
        )
        print(f"  t = {state.time / 3600.0:7.1f} h   "
              f"max wind {np.abs(state.u).max():5.1f} m/s   "
              f"mean precip {precip:6.2f} mm/day")
        if writer is not None:
            writer.record(
                state.time,
                ps_mean=float(state.ps.mean()),
                max_wind=float(np.abs(state.u).max()),
                precip_mm_day=precip,
            )
    if writer is not None:
        path = writer.flush()
        print(f"history written to {path}")
    if args.restart:
        save_state(args.restart, state)
        print(f"restart written to {args.restart}")
    return 0


def _cmd_doksuri(args) -> int:
    from repro.experiments.doksuri import resolution_comparison

    res = resolution_comparison(
        low_level=args.low, high_level=args.high, ref_level=args.ref,
        nlev=args.nlev, hours=args.hours,
    )
    print(f"correlation vs reference: low r={res['corr_low']:.3f}, "
          f"high r={res['corr_high']:.3f}")
    print("higher horizontal resolution wins:",
          res["corr_high"] > res["corr_low"])
    return 0


def _cmd_scaling(args) -> int:
    from repro.perf.scaling import (
        headline_numbers,
        strong_scaling_experiment,
        weak_scaling_experiment,
    )

    for scheme, pts in weak_scaling_experiment().items():
        print(f"weak {scheme}: " + ", ".join(
            f"{p.nprocs}:{p.sdpd:.0f}sdpd/{p.efficiency:.2f}" for p in pts))
    for (grid, scheme), pts in strong_scaling_experiment().items():
        print(f"strong {grid}/{scheme}: " + " -> ".join(
            f"{p.sdpd:.0f}" for p in pts))
    h = headline_numbers()
    print(f"headline: G12 {h['G12_sdpd']:.1f} SDPD ({h['G12_sypd']:.2f} SYPD), "
          f"G11S {h['G11S_sdpd']:.1f} SDPD ({h['G11S_sypd']:.2f} SYPD)")
    return 0


def _cmd_kernels(args) -> int:
    from repro.dycore.kernels import MAJOR_KERNELS
    from repro.model.config import TABLE2_GRIDS
    from repro.sunway.kernel import KernelTimer, Precision

    timer = KernelTimer()
    g = TABLE2_GRIDS[args.grid]
    variants = [("DP", Precision.DP, False), ("DP+DST", Precision.DP, True),
                ("MIX", Precision.MIXED, False), ("MIX+DST", Precision.MIXED, True)]
    print(f"{'kernel':38s}" + "".join(f"{v[0]:>9s}" for v in variants))
    for name, reg in MAJOR_KERNELS.items():
        n = (g.cells if reg.element == "cell" else g.edges) * g.nlev
        row = "".join(
            f"{timer.speedup_vs_mpe_dp(reg.spec, n, prec, dst):9.1f}"
            for _, prec, dst in variants
        )
        print(f"{name:38s}{row}")
    return 0


def _cmd_train_ml(args) -> int:
    from repro.dycore.vertical import VerticalCoordinate
    from repro.experiments.workflow import train_ml_suite
    from repro.grid import build_mesh
    from repro.ml.data import TABLE1_PERIODS

    mesh = build_mesh(args.level)
    vc = VerticalCoordinate.stretched(args.nlev)
    trained = train_ml_suite(
        mesh, vc, periods=TABLE1_PERIODS[: args.periods],
        hours_per_period=args.hours, epochs=args.epochs,
        width=args.width, n_resunits=args.resunits, seed=args.seed,
    )
    print(f"trained on {trained.n_train} columns "
          f"({trained.n_train / max(trained.n_test, 1):.1f}:1 split)")
    print(f"tendency net: {trained.tendency_net.n_params():,} params, "
          f"test MSE {trained.tendency_test_mse:.4f}")
    print(f"radiation net: {trained.radiation_net.n_params():,} params, "
          f"test MSE {trained.radiation_test_mse:.4f}")
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro.analysis.report import lint_all, render_human, to_json

    result = lint_all(sanitize=not args.no_sanitize, parallel=args.parallel)
    if args.json:
        print(json.dumps(to_json(result), indent=2))
    else:
        print(render_human(result))
    if args.strict and not result["summary"]["strict_ok"]:
        return 1
    return 0


def _cmd_chaos(args) -> int:
    import json

    from repro.obs import Tracer
    from repro.resilience.chaos import render_report, run_chaos

    tracer = Tracer(enabled=True) if args.trace_out else None
    report = run_chaos(
        plan=args.plan, level=args.level, nlev=args.nlev, steps=args.steps,
        seed=args.seed, checkpoint_every=args.checkpoint_every,
        include_baseline=not args.no_baseline, tracer=tracer,
    )
    if args.trace_out:
        tracer.write_chrome_trace(args.trace_out)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
        if args.trace_out:
            print(f"Chrome trace written to {args.trace_out}")
    return 0 if report["survived"] else 1


def _cmd_serve(args) -> int:
    import json
    import time

    from repro.obs import MetricsRegistry, Tracer, collecting, set_tracer
    from repro.serve import ForecastRequest, ForecastScheduler, ModelPool

    requests = [
        ForecastRequest(
            level=args.level, nlev=args.nlev, steps=args.steps,
            scenario=args.scenario, ensemble_size=args.ensemble,
            seed=args.seed + (i % args.distinct), scheme=args.scheme,
        )
        for i in range(args.requests)
    ]
    tracer = Tracer(enabled=True) if args.trace_out else None
    prev_tracer = set_tracer(tracer) if tracer is not None else None
    try:
        with collecting(MetricsRegistry(enabled=True)) as metrics:
            pool = ModelPool(max_models=args.pool)
            t0 = time.perf_counter()
            with ForecastScheduler(max_workers=args.workers, pool=pool) as sched:
                jobs = []
                for i, req in enumerate(requests):
                    if i < args.poison:
                        jobs.append(sched.submit(req, fault_plan=args.poison_plan))
                    else:
                        jobs.append(sched.submit(req))
                results = [j.result() for j in jobs]
                wall = time.perf_counter() - t0
                stats = sched.stats()
        snapshot = metrics.snapshot()
    finally:
        if prev_tracer is not None:
            set_tracer(prev_tracer)
    if args.trace_out:
        tracer.write_chrome_trace(args.trace_out)

    poisoned = results[: args.poison]
    clean = results[args.poison:]
    report = {
        "requests": len(results),
        "distinct_configs": args.distinct,
        "workers": args.workers,
        "pool_size": args.pool,
        "wall_seconds": wall,
        "requests_per_second": len(results) / wall if wall > 0 else 0.0,
        "statuses": {
            s: sum(1 for r in results if r.status == s)
            for s in ("ok", "error", "cancelled")
        },
        "poisoned": {
            "count": args.poison,
            "plan": args.poison_plan if args.poison else None,
            "errored_in_isolation": all(
                r.status == "error" and r.error and r.error.code == "FAULT"
                for r in poisoned
            ) if args.poison else None,
        },
        "scheduler": stats,
        "serve_metrics": {
            k: v for k, v in snapshot["counters"].items()
            if k.startswith("serve.")
        },
    }
    clean_ok = all(r.ok for r in clean)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        lat = stats["latency"]
        print(f"served {report['requests']} requests "
              f"({args.distinct} distinct) on {args.workers} workers, "
              f"pool {args.pool}: {report['statuses']}")
        print(f"  {report['requests_per_second']:8.1f} req/s   "
              f"p50 {lat['p50_seconds'] * 1e3:7.1f} ms   "
              f"p99 {lat['p99_seconds'] * 1e3:7.1f} ms")
        c = stats["cache"]
        p = stats["pool"]
        print(f"  cache: {c['hits']} hits / {c['misses']} misses   "
              f"pool: built {p['built']}, reused {p['reused']}, "
              f"recycled {p['recycled']}")
        if args.poison:
            print(f"  poisoned {args.poison} request(s) with plan "
                  f"{args.poison_plan!r}: isolated errors = "
                  f"{report['poisoned']['errored_in_isolation']}")
        if args.trace_out:
            print(f"Chrome trace written to {args.trace_out}")
    if not clean_ok:
        return 1
    if args.poison and not report["poisoned"]["errored_in_isolation"]:
        return 1
    return 0


def _cmd_ensemble(args) -> int:
    import json as _json

    import numpy as np

    from repro.ensemble import EnsembleRunner
    from repro.ensemble.scenarios import all_scenarios

    if args.list:
        print(f"{'name':16s} {'kind':8s} {'steps':>5s} {'scheme':8s} "
              f"description")
        for s in all_scenarios():
            print(f"{s.name:16s} {s.kind:8s} {s.default_steps:5d} "
                  f"{s.default_scheme:8s} {s.description}")
        return 0

    runner = EnsembleRunner(
        scenario=args.scenario, n_members=args.members, seed=args.seed,
        level=args.level, nlev=args.nlev, steps=args.steps,
        scheme=args.scheme, perturbation=args.perturbation,
        physics_perturbation=args.physics_perturbation,
        workers=args.workers,
    )
    result = runner.run()

    if args.json:
        pr = result.products["mean_precip"]
        payload = {
            "scenario": result.scenario,
            "members": result.n_members,
            "steps": result.steps,
            "scheme": result.scheme,
            "seed": result.seed,
            "digest": result.digest(),
            "plan_compiles": result.plan_compiles,
            "wall_seconds": result.wall_seconds,
            "max_wind": [m.max_wind for m in result.members],
            "mean_precip_mm_day": [
                m.mean_precip * 86400.0 for m in result.members
            ],
            "precip_mean_mm_day": float(pr["mean"].mean() * 86400.0),
            "precip_spread_mm_day": float(pr["spread"].mean() * 86400.0),
            "precip_exceedance_frac": float(pr["exceedance"].mean()),
        }
        print(_json.dumps(payload, indent=2))
    else:
        print(f"ensemble: {result.scenario} x{result.n_members} members, "
              f"{result.steps} steps, {result.scheme}, seed {result.seed}")
        print(f"  wall {result.wall_seconds:.2f} s, "
              f"stencil plan compiles {result.plan_compiles}")
        print(f"  {'member':>6s} {'max wind m/s':>13s} "
              f"{'mean precip mm/day':>19s}")
        for m in result.members:
            print(f"  {m.member:6d} {m.max_wind:13.2f} "
                  f"{m.mean_precip * 86400.0:19.3f}")
        pr = result.products["mean_precip"]
        wind = result.products["wind"]
        print("  precip products (mm/day): "
              f"mean {pr['mean'].mean() * 86400.0:.3f}  "
              f"spread {pr['spread'].mean() * 86400.0:.3f}  "
              f"p10/p50/p90 "
              f"{pr['p10'].mean() * 86400.0:.3f}/"
              f"{pr['p50'].mean() * 86400.0:.3f}/"
              f"{pr['p90'].mean() * 86400.0:.3f}")
        print(f"  P(precip > 1 mm/day): {pr['exceedance'].mean():.3f} "
              f"(area fraction)  "
              f"P(|wind| > 15 m/s): {wind['exceedance'].mean():.3f}")
        spread_ratio = np.median(pr["spread_ratio"])
        print(f"  median precip spread/signal: {spread_ratio:.3f}")
    return 0


def _cmd_profile(args) -> int:
    import json

    from repro.perf.metrics import sdpd_from_trace
    from repro.perf.reconcile import run_profile

    result = run_profile(
        level=args.level, nlev=args.nlev, steps=args.steps, seed=args.seed,
        compare_model=args.compare_model,
    )
    tracer = result.pop("tracer")
    if args.trace_out:
        tracer.write_chrome_trace(args.trace_out)
    try:
        result["sdpd_traced"] = sdpd_from_trace(tracer, result["config"]["dt_dyn"])
    except ValueError:
        result["sdpd_traced"] = None

    if args.json:
        print(json.dumps(result, indent=2))
    else:
        cfg = result["config"]
        print(f"profiled G{cfg['level']} ({cfg['cells']} cells, "
              f"nlev {cfg['nlev']}, {cfg['stencil_backend']} stencils, "
              f"{cfg['stage_lanes']} stage lane(s)): "
              f"{cfg['steps']} steps, {result['n_spans']} spans")
        if result["sdpd_traced"] is not None:
            print(f"traced speed: {result['sdpd_traced']:.1f} SDPD "
                  f"(single in-process rank)")
        print(f"\n{'span (kind:name)':42s} {'count':>7s} {'wall ms':>10s} "
              f"{'sim ms':>10s}")
        for key, st in sorted(result["aggregate"].items()):
            print(f"{key:42s} {st['count']:7d} "
                  f"{st['wall_seconds'] * 1e3:10.3f} "
                  f"{st['sim_seconds'] * 1e3:10.3f}")
        if args.compare_model:
            print(f"\n{'kernel':38s} {'elems':>9s} {'predicted us':>13s} "
                  f"{'traced us':>11s} {'rel err':>8s}")
            for row in result["reconciliation"]:
                print(f"{row['kernel']:38s} {row['elements']:9d} "
                      f"{row['predicted_seconds'] * 1e6:13.2f} "
                      f"{row['traced_seconds'] * 1e6:11.2f} "
                      f"{row['relative_error']:8.4f}")
            print(f"max relative error: {result['max_relative_error']:.4f}")
    if args.trace_out and not args.json:
        print(f"\nChrome trace written to {args.trace_out}")
    if args.compare_model and result["max_relative_error"] > args.max_error:
        print(f"FAIL: reconciliation error exceeds --max-error "
              f"{args.max_error}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="AI-enhanced GRIST reproduction (PPoPP 2025)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("grids", help="print Table 2")
    sp.set_defaults(func=_cmd_grids)

    sp = sub.add_parser("simulate", help="run the coupled model")
    sp.add_argument("--level", type=int, default=3)
    sp.add_argument("--nlev", type=int, default=8)
    sp.add_argument("--hours", type=float, default=24.0)
    sp.add_argument("--scheme", default="DP-PHY",
                    choices=["DP-PHY", "MIX-PHY"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="history output directory")
    sp.add_argument("--restart", default=None, help="restart file to write")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("doksuri", help="Fig. 7 resolution comparison")
    sp.add_argument("--low", type=int, default=3)
    sp.add_argument("--high", type=int, default=4)
    sp.add_argument("--ref", type=int, default=5)
    sp.add_argument("--nlev", type=int, default=8)
    sp.add_argument("--hours", type=float, default=6.0)
    sp.set_defaults(func=_cmd_doksuri)

    sp = sub.add_parser("scaling", help="Figs. 10/11 + headline SYPD")
    sp.set_defaults(func=_cmd_scaling)

    sp = sub.add_parser("kernels", help="Fig. 9 kernel table")
    sp.add_argument("--grid", default="G6")
    sp.set_defaults(func=_cmd_kernels)

    sp = sub.add_parser("train-ml", help="section 3.2 training workflow")
    sp.add_argument("--level", type=int, default=2)
    sp.add_argument("--nlev", type=int, default=8)
    sp.add_argument("--periods", type=int, default=2)
    sp.add_argument("--hours", type=int, default=6)
    sp.add_argument("--epochs", type=int, default=4)
    sp.add_argument("--width", type=int, default=16)
    sp.add_argument("--resunits", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_train_ml)

    sp = sub.add_parser(
        "lint",
        help="swlint: lint annotated kernels + known-bad corpus (SW001-SW007),"
             " plus the RD race/determinism pass with --parallel",
    )
    sp.add_argument("--json", action="store_true",
                    help="machine-readable JSON instead of the human report")
    sp.add_argument("--strict", action="store_true",
                    help="exit nonzero on kernel ERRORs or missed corpus rules")
    sp.add_argument("--no-sanitize", action="store_true",
                    help="static analysis only, skip the runtime sanitizer")
    sp.add_argument("--parallel", action="store_true",
                    help="also run the RD race & determinism analyzer: real "
                         "step plan, seeded racy corpus, dynamic workers=2 run")
    sp.set_defaults(func=_cmd_lint)

    sp = sub.add_parser(
        "chaos",
        help="fault-injected integration: survival, recovery counts, and "
             "drift vs the fault-free twin",
    )
    sp.add_argument("--level", type=int, default=3)
    sp.add_argument("--nlev", type=int, default=8)
    sp.add_argument("--steps", type=int, default=24)
    sp.add_argument("--plan", default="smoke",
                    help="named fault plan (none, smoke, storm)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--checkpoint-every", type=int, default=6)
    sp.add_argument("--no-baseline", action="store_true",
                    help="skip the fault-free twin / drift comparison")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable JSON instead of the report")
    sp.add_argument("--trace-out", default=None,
                    help="write the Chrome trace-event JSON here")
    sp.set_defaults(func=_cmd_chaos)

    sp = sub.add_parser(
        "serve",
        help="forecast-as-a-service load run: concurrent requests through "
             "the scheduler, warm-model pool, and result cache",
    )
    sp.add_argument("--requests", type=int, default=32,
                    help="total requests to submit")
    sp.add_argument("--distinct", type=int, default=8,
                    help="distinct request configs (seeds); the rest are "
                         "repeats that exercise the result cache")
    sp.add_argument("--workers", type=int, default=4,
                    help="scheduler worker threads")
    sp.add_argument("--pool", type=int, default=4,
                    help="warm model pool capacity")
    sp.add_argument("--level", type=int, default=3)
    sp.add_argument("--nlev", type=int, default=8)
    sp.add_argument("--steps", type=int, default=12)
    sp.add_argument("--scheme", default="DP-PHY",
                    help="Table 3 scheme (DP-PHY, MIX-PHY, DP-ML, MIX-ML)")
    sp.add_argument("--scenario", default="tropical",
                    help="registered scenario (see `repro ensemble --list`)")
    sp.add_argument("--ensemble", type=int, default=1,
                    help="ensemble members per request")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--poison", type=int, default=0,
                    help="inject a fault plan into the first N requests to "
                         "demonstrate per-request isolation")
    sp.add_argument("--poison-plan", default="smoke",
                    help="named fault plan for --poison (smoke, storm)")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable JSON instead of the summary")
    sp.add_argument("--trace-out", default=None,
                    help="write the Chrome trace-event JSON here")
    sp.set_defaults(func=_cmd_serve)

    sp = sub.add_parser(
        "ensemble",
        help="run N perturbed members of a registered scenario with "
             "spread/probability products",
    )
    sp.add_argument("--list", action="store_true",
                    help="list the registered scenarios and exit")
    sp.add_argument("--scenario", default="tropical",
                    help="registered scenario name (see --list)")
    sp.add_argument("--members", type=int, default=4)
    sp.add_argument("--level", type=int, default=3)
    sp.add_argument("--nlev", type=int, default=8)
    sp.add_argument("--steps", type=int, default=None,
                    help="dynamics steps (default: the scenario's)")
    sp.add_argument("--scheme", default=None,
                    help="Table 3 scheme (default: the scenario's)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--perturbation", type=float, default=0.3,
                    help="initial theta perturbation amplitude [K]")
    sp.add_argument("--physics-perturbation", type=float, default=0.0,
                    help="SPPT-style tendency perturbation amplitude")
    sp.add_argument("--workers", type=int, default=1,
                    help="fork this many member-sharded processes "
                         "(digest-identical to the serial loop)")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable JSON instead of the summary")
    sp.set_defaults(func=_cmd_ensemble)

    sp = sub.add_parser(
        "profile",
        help="instrumented dycore run: span/metric report, Chrome trace, "
             "predicted-vs-traced kernel reconciliation",
    )
    sp.add_argument("--level", type=int, default=3)
    sp.add_argument("--nlev", type=int, default=8)
    sp.add_argument("--steps", type=int, default=None,
                    help="dynamics steps (default: one tracer ratio)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trace-out", default=None,
                    help="write the Chrome trace-event JSON here")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable JSON instead of the tables")
    sp.add_argument("--compare-model", action="store_true",
                    help="reconcile traced kernel costs vs the timer model")
    sp.add_argument("--max-error", type=float, default=0.25,
                    help="fail if any kernel's relative error exceeds this")
    sp.set_defaults(func=_cmd_profile)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
