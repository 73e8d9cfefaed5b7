"""Substrate fast-path benchmark: vectorized replay, parallel ranks, ML
inference.

Times the four hot layers this repo's substrate simulation spends its
wall-clock in, each against its bitwise reference path:

* **LDCache replay** — scalar ``access()`` loop vs ``run_batch`` on a
  G4-scale loop stream and on the Fig. 6 five-array thrashing stream,
  asserting identical `CacheStats` and final tag/age arrays;
* **SWGOMP launches** — per-launch cost of the chunk-granular fast path
  vs the per-chunk reference (a listener-only tracer on the server),
  asserting identical lane accounting;
* **rank stepping** — `DistributedDycore` wall time at 1/2/4 workers,
  asserting the gathered prognostic fields match the serial run bitwise
  (true multiprocess speedup needs a multi-core host; `host_cpus` is
  recorded and the regression gate only enforces worker speedups when
  the host has enough cores);
* **ML inference** — `TendencyCNN`/`RadiationMLP` prediction throughput,
  float64 vs the compiled float32 inference path.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_substrate.py          # full
    PYTHONPATH=src python benchmarks/bench_substrate.py --tiny   # CI smoke

CI regression gate: ``--check BENCH_substrate.json`` compares the
machine-independent speedup *ratios* (reference time / fast time, both
measured in-process on the same data) against the committed baseline
and fails on a >2x collapse, or on any broken bitwise contract.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Standalone execution (`python benchmarks/bench_substrate.py`) puts only
# the benchmarks/ directory on sys.path; make the repo root importable.
_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

import numpy as np

from benchmarks._util import print_header
from repro.dycore.solver import DycoreConfig
from repro.dycore.state import baroclinic_wave_state
from repro.dycore.vertical import VerticalCoordinate
from repro.grid import build_mesh
from repro.ml.radiation_net import RadiationMLP
from repro.ml.tendency_net import TendencyCNN
from repro.obs import Tracer
from repro.parallel.driver import DistributedDycore
from repro.sunway.ldcache import LDCache, loop_access_stream
from repro.sunway.swgomp import JobServer, TargetRegion

SCHEMA = "bench_substrate/1"


def _time_calls(fn, iters: int, warmup: int = 1) -> float:
    """Mean seconds per call."""
    for _ in range(warmup):
        fn()
    t0 = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - t0) / iters


# -- LDCache ---------------------------------------------------------------

def _replay_pair(stream: np.ndarray, repeats: int) -> dict:
    """Scalar vs batch replay of one stream, bitwise-compared."""
    scalar, batch = LDCache(), LDCache()
    t_scalar = _time_calls(
        lambda: (scalar.reset(), scalar.run(stream)), repeats
    )
    t_batch = _time_calls(
        lambda: (batch.reset(), batch.run_batch(stream)), repeats
    )
    stats_equal = (
        scalar.stats.accesses == batch.stats.accesses
        and scalar.stats.hits == batch.stats.hits
        and scalar.stats.evictions == batch.stats.evictions
    )
    arrays_equal = bool(
        np.array_equal(scalar._tags, batch._tags)
        and np.array_equal(scalar._age, batch._age)
    )
    return {
        "n_addresses": int(stream.size),
        "scalar_seconds": t_scalar,
        "batch_seconds": t_batch,
        "speedup": t_scalar / t_batch,
        "hit_ratio": scalar.stats.hit_ratio,
        "stats_bitwise_identical": bool(stats_equal),
        "tag_age_bitwise_identical": arrays_equal,
    }


def bench_ldcache(n_iters: int, repeats: int) -> dict:
    cache = LDCache()
    way = cache.way_bytes
    # A GRIST-style field loop: 6 arrays, staggered so the cache streams.
    g4_stream = loop_access_stream(
        [i * way + i * cache.line_bytes for i in range(6)], n_iters
    )
    # Fig. 6's hazard: 5 way-aligned arrays thrash the 4-way cache.
    thrash = loop_access_stream(
        [i * way for i in range(5)], max(n_iters // 8, 512)
    )
    return {
        "g4_stream": _replay_pair(g4_stream, repeats),
        "thrash_fig6": _replay_pair(thrash, repeats),
    }


# -- SWGOMP launches -------------------------------------------------------

def _launch_time(fast: bool, n: int, iters: int) -> tuple[float, dict]:
    srv = JobServer()
    if not fast:
        # A listener-only tracer (nothing retained) makes a launch take
        # the per-chunk path.
        srv.tracer = Tracer(enabled=True, record=False)
    srv.init_from_mpe()
    region = TargetRegion(srv)
    buf = np.zeros(n)

    def body(s: int, e: int) -> None:
        buf[s:e] += 1.0

    def launch():
        region.parallel_for(body, n, cost_per_elem=1.25e-9, name="bench")

    seconds = _time_calls(launch, iters, warmup=2)
    accounting = {
        "busy_seconds": [c.busy_seconds for c in srv.cpes],
        "chunks": [c.chunks_executed for c in srv.cpes],
    }
    return seconds, accounting


def bench_swgomp(n: int, iters: int) -> dict:
    t_ref, acc_ref = _launch_time(False, n, iters)
    t_fast, acc_fast = _launch_time(True, n, iters)
    return {
        "n_elems": n,
        "launches_timed": iters,
        "reference_seconds_per_launch": t_ref,
        "fast_seconds_per_launch": t_fast,
        "speedup": t_ref / t_fast,
        "accounting_identical": acc_ref == acc_fast,
    }


# -- parallel rank stepping ------------------------------------------------

def bench_rank_stepping(
    level: int, nlev: int, nparts: int, steps: int, worker_counts: list[int]
) -> dict:
    mesh = build_mesh(level)
    vc = VerticalCoordinate.uniform(nlev)
    cfg = DycoreConfig(dt=300.0)

    def _run(workers: int) -> tuple[tuple, float]:
        d = DistributedDycore(mesh, vc, cfg, nparts=nparts, workers=workers)
        d.scatter(baroclinic_wave_state(mesh, vc))
        d.step()  # warmup: plan compilation, operator caches, fork
        t0 = time.perf_counter()
        d.run(steps)
        wall = time.perf_counter() - t0
        fields = d.gather()
        d.close()
        return fields, wall

    ref_fields, ref_wall = _run(1)
    out = {
        "level": level,
        "nlev": nlev,
        "nparts": nparts,
        "steps": steps,
        "serial_seconds_per_step": ref_wall / steps,
        "workers": {},
    }
    for w in worker_counts:
        fields, wall = _run(w)
        out["workers"][str(w)] = {
            "seconds_per_step": wall / steps,
            "speedup": ref_wall / wall,
            "bitwise_identical": bool(
                all(np.array_equal(a, b) for a, b in zip(fields, ref_fields))
            ),
        }
    return out


# -- ML inference ----------------------------------------------------------

def bench_ml(nlev: int, ncol: int, width: int, resunits: int,
             iters: int) -> dict:
    rng = np.random.default_rng(0)
    tn = TendencyCNN(nlev, width=width, n_resunits=resunits)
    x = rng.normal(size=(ncol, 5, nlev))
    tn.fit_normalizers(x, rng.normal(size=(ncol, 2, nlev)))
    t64 = _time_calls(lambda: tn.predict(x), iters)
    ref = tn.predict(x)
    tn.compile_inference(np.float32)
    t32 = _time_calls(lambda: tn.predict(x), iters)
    # Scale-relative error: max abs deviation over the output's dynamic
    # range (pointwise relative error is meaningless near zero crossings).
    rel = float(np.max(np.abs(tn.predict(x) - ref)) / np.max(np.abs(ref)))

    rn = RadiationMLP(nlev, width=width)
    xr = rng.normal(size=(ncol, 2 * nlev + 2))
    rn.fit_normalizers(xr, np.abs(rng.normal(size=(ncol, 2))))
    r64 = _time_calls(lambda: rn.predict(xr), iters * 4)
    rn.compile_inference(np.float32)
    r32 = _time_calls(lambda: rn.predict(xr), iters * 4)

    return {
        "ncol": ncol,
        "nlev": nlev,
        "width": width,
        "tendency_cnn": {
            "fp64_seconds": t64,
            "fp32_seconds": t32,
            "speedup": t64 / t32,
            "columns_per_second_fp32": ncol / t32,
            "fp32_vs_fp64_max_rel_err": rel,
            "output_dtype_float64": True,
        },
        "radiation_mlp": {
            "fp64_seconds": r64,
            "fp32_seconds": r32,
            "speedup": r64 / r32,
            "columns_per_second_fp32": ncol / r32,
        },
    }


# -- driver ----------------------------------------------------------------

def run(tiny: bool) -> dict:
    """One measurement profile (``tiny`` or ``full``).

    Speedup ratios are size-dependent (e.g. the tiny thrash stream only
    touches a handful of cache sets, capping the batch fan-out), so the
    regression gate always compares a profile against the *same-named*
    profile in the baseline — the committed baseline carries both.
    """
    results = {}

    if tiny:
        ld = bench_ldcache(n_iters=2000, repeats=2)
        sw = bench_swgomp(n=20_000, iters=20)
        rk = bench_rank_stepping(3, 8, 4, steps=2, worker_counts=[2])
        ml = bench_ml(nlev=8, ncol=64, width=16, resunits=2, iters=3)
    else:
        ld = bench_ldcache(n_iters=40_000, repeats=3)
        # Launch-overhead measurement: n small enough that per-chunk
        # bookkeeping (not the body's array work) dominates.
        sw = bench_swgomp(n=20_000, iters=300)
        rk = bench_rank_stepping(4, 32, 4, steps=3, worker_counts=[2, 4])
        ml = bench_ml(nlev=10, ncol=512, width=128, resunits=5, iters=3)

    host_cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )
    results["ldcache"] = ld
    results["swgomp"] = sw
    results["rank_stepping"] = rk
    results["ml_inference"] = ml
    results["host_cpus"] = host_cpus

    print_header("SUBSTRATE — LDCache replay")
    for key, r in ld.items():
        print(f"{key:14s} {r['n_addresses']:8d} addrs: "
              f"scalar {r['scalar_seconds'] * 1e3:9.2f} ms  "
              f"batch {r['batch_seconds'] * 1e3:8.2f} ms  "
              f"{r['speedup']:6.1f}x  bitwise "
              f"{r['stats_bitwise_identical'] and r['tag_age_bitwise_identical']}")
    print_header("SUBSTRATE — SWGOMP launch")
    print(f"per launch ({sw['n_elems']} elems): "
          f"reference {sw['reference_seconds_per_launch'] * 1e6:8.1f} us  "
          f"fast {sw['fast_seconds_per_launch'] * 1e6:8.1f} us  "
          f"{sw['speedup']:5.1f}x  accounting identical "
          f"{sw['accounting_identical']}")
    print_header(
        f"SUBSTRATE — rank stepping (G{rk['level']}, {rk['nparts']} ranks, "
        f"{host_cpus} host cpu(s))"
    )
    print(f"serial: {rk['serial_seconds_per_step'] * 1e3:8.1f} ms/step")
    for w, r in rk["workers"].items():
        print(f"{w:>2s} workers: {r['seconds_per_step'] * 1e3:8.1f} ms/step  "
              f"{r['speedup']:5.2f}x  bitwise {r['bitwise_identical']}")
    print_header("SUBSTRATE — ML inference")
    t = ml["tendency_cnn"]
    print(f"tendency CNN ({ml['ncol']} cols): fp64 {t['fp64_seconds'] * 1e3:8.1f} ms  "
          f"fp32 {t['fp32_seconds'] * 1e3:8.1f} ms  {t['speedup']:5.2f}x  "
          f"rel err {t['fp32_vs_fp64_max_rel_err']:.2e}")
    r = ml["radiation_mlp"]
    print(f"radiation MLP: fp64 {r['fp64_seconds'] * 1e3:8.2f} ms  "
          f"fp32 {r['fp32_seconds'] * 1e3:8.2f} ms  {r['speedup']:5.2f}x")
    return results


def _check_profile(res: dict, base: dict, tag: str,
                   factor: float) -> list[str]:
    """Compare one measurement profile against its baseline twin."""
    failures: list[str] = []

    for key in ("g4_stream", "thrash_fig6"):
        r, b = res["ldcache"][key], base["ldcache"][key]
        if r["speedup"] < b["speedup"] / factor:
            failures.append(
                f"{tag} ldcache {key}: batch speedup {r['speedup']:.1f}x < "
                f"baseline {b['speedup']:.1f}x / {factor}"
            )
        if not (r["stats_bitwise_identical"]
                and r["tag_age_bitwise_identical"]):
            failures.append(f"{tag} ldcache {key}: batch replay not bitwise")

    sw, sb = res["swgomp"], base["swgomp"]
    if sw["speedup"] < sb["speedup"] / factor:
        failures.append(
            f"{tag} swgomp: fast-path speedup {sw['speedup']:.1f}x < "
            f"baseline {sb['speedup']:.1f}x / {factor}"
        )
    if not sw["accounting_identical"]:
        failures.append(f"{tag} swgomp: fast-path accounting diverged")

    rk = res["rank_stepping"]
    for w, r in rk["workers"].items():
        if not r["bitwise_identical"]:
            failures.append(f"{tag} rank_stepping: workers={w} not bitwise")
        base_w = base["rank_stepping"]["workers"].get(w)
        enough_cores = (
            res["host_cpus"] >= int(w)
            and base_w is not None
            and base["host_cpus"] >= int(w)
        )
        if enough_cores and r["speedup"] < base_w["speedup"] / factor:
            failures.append(
                f"{tag} rank_stepping: workers={w} speedup "
                f"{r['speedup']:.2f}x < baseline "
                f"{base_w['speedup']:.2f}x / {factor}"
            )

    ml, mb = res["ml_inference"], base["ml_inference"]
    got = ml["tendency_cnn"]["speedup"]
    want = mb["tendency_cnn"]["speedup"]
    if got < want / factor:
        failures.append(
            f"{tag} ml_inference: fp32 speedup {got:.2f}x < baseline "
            f"{want:.2f}x / {factor}"
        )
    if ml["tendency_cnn"]["fp32_vs_fp64_max_rel_err"] > 1e-2:
        failures.append(
            f"{tag} ml_inference: fp32 path drifted from fp64 beyond 1e-2"
        )
    return failures


def check_regression(results: dict, baseline_path: str,
                     factor: float = 2.0) -> list[str]:
    """Compare fast-path speedup ratios against the committed baseline.

    Absolute times are machine-dependent; the reference/fast ratios are
    measured in-process on the same data, so a >``factor`` collapse
    means the fast path itself regressed.  Bitwise contracts are
    absolute.  Multi-worker speedups are only enforced when both the
    current host and the baseline host had at least as many cores as
    workers (a 1-core container cannot show multiprocess speedup).

    Ratios are size-dependent, so only same-named profiles are compared
    (CI's ``--tiny`` run checks against the baseline's ``tiny`` profile,
    which the full baseline run records alongside ``full``).
    """
    baseline = json.loads(Path(baseline_path).read_text())
    failures: list[str] = []
    compared = 0
    for name, res in results["profiles"].items():
        base = baseline.get("profiles", {}).get(name)
        if base is None:
            continue
        compared += 1
        failures.extend(_check_profile(res, base, name, factor))
    if compared == 0:
        failures.append(
            f"no profile in {sorted(results['profiles'])} has a baseline "
            f"twin in {baseline_path}"
        )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true",
                    help="run only the small smoke profile (CI)")
    ap.add_argument("--out", default="BENCH_substrate.json",
                    help="output JSON path")
    ap.add_argument("--check", metavar="BASELINE",
                    help="fail if a fast path regressed >2x against this "
                         "committed baseline or broke a bitwise contract")
    args = ap.parse_args(argv)

    results = {
        "schema": SCHEMA,
        "generated_unix": time.time(),
        "profiles": {},
    }
    if args.tiny:
        results["profiles"]["tiny"] = run(tiny=True)
    else:
        # The committed baseline carries both profiles so the CI tiny
        # run always has a like-for-like twin to compare against.
        results["profiles"]["full"] = run(tiny=False)
        results["profiles"]["tiny"] = run(tiny=True)
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    if args.check:
        failures = check_regression(results, args.check)
        if failures:
            for f in failures:
                print(f"REGRESSION: {f}", file=sys.stderr)
            return 1
        print("regression check against committed baseline: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
