"""`repro lint` driver: run swlint end-to-end and render the results.

Sections:

* **kernels** — the repo's own annotated kernels
  (:data:`repro.dycore.kernels.MAJOR_KERNELS`) assembled into one
  offload plan with pool-allocated (distributed) base addresses and the
  halo width taken from a real mesh decomposition; must produce zero
  ERROR diagnostics;
* **corpus** — the known-bad plans of
  :data:`repro.analysis.corpus.KNOWN_BAD_CORPUS`; every case must keep
  producing its expected rule IDs, and runnable cases get their
  diagnostics verified by the sanitizer (CONFIRMED / FALSE_POSITIVE);
  both corpora go through one loop, :func:`lint_cases`;
* **parallel** (``--parallel``) — the RD race & determinism pass: the
  step plan of a real (tiny) :class:`DistributedDycore` must analyze
  clean, every :data:`repro.analysis.corpus.KNOWN_RACY_PLANS` case
  must keep its expected rules and replay verdict, and a one-step
  ``workers=2`` run is dynamically sanitized through the observed span
  stream.

The JSON serialization carries ``schema_version``
(:data:`LINT_SCHEMA_VERSION`), contains no wall-clock fields, and keeps
a deterministic ordering (severity-ranked diagnostics, fixed corpus
order), so CI can diff reports across runs byte for byte.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.access import OffloadPlan, PlannedLoop
from repro.analysis.corpus import KNOWN_BAD_CORPUS, KNOWN_RACY_PLANS
from repro.analysis.diagnostics import CONFIRMED, FALSE_POSITIVE, Diagnostic, Severity, rank
from repro.analysis.races import analyze_parallel_plan
from repro.analysis.sanitizer import RaceReplay, Sanitizer, sanitize_run, verify
from repro.analysis.static import analyze_plan
from repro.sunway.allocator import PoolAllocator

#: Version of the ``repro lint --json`` document layout.  Bump on any
#: structural change so CI consumers can reject unknown layouts.
LINT_SCHEMA_VERSION = 4


def partition_halo_width(level: int = 2, nparts: int = 4) -> int:
    """Declared halo width of a real decomposition of a small mesh."""
    from repro.grid.mesh import build_mesh
    from repro.partition.decomposition import decompose

    subs = decompose(build_mesh(level), nparts)
    return min(s.halo_rings for s in subs)


def build_kernel_plan(
    n_iters: int = 100_000,
    distribute_addresses: bool = True,
) -> OffloadPlan:
    """One offload plan covering every annotated registered kernel.

    Base addresses come from the pool allocator exactly as the executor
    would allocate them (``distribute_addresses`` mirrors the DST
    switch), so the thrash lint sees the same layout the simulated runs
    use.
    """
    # Imported lazily: repro.dycore.kernels imports repro.analysis.access.
    from repro.dycore.kernels import MAJOR_KERNELS

    alloc = PoolAllocator(distribute=distribute_addresses)
    bases: dict = {}
    loops = []
    for name, reg in MAJOR_KERNELS.items():
        spec = reg.spec
        if spec.access is None:
            continue
        for acc in spec.access.arrays:
            key = f"{name}.{acc.name}"
            bases[key] = alloc.malloc(n_iters * acc.bytes_per_elem, key)
        # Namespace the array names per kernel so unrelated kernels do
        # not alias in the base-address table.
        ns_access = replace(spec.access, arrays=tuple(
            replace(acc, name=f"{name}.{acc.name}") for acc in spec.access.arrays
        ))
        loops.append(PlannedLoop(
            name=name,
            access=ns_access,
            n_iters=n_iters,
            ldm_staged=spec.ldm_staged,
        ))
    return OffloadPlan(
        loops=loops, name="registered_kernels",
        array_bases=bases, halo_width=partition_halo_width(),
    )


def lint_kernels() -> list:
    return analyze_plan(build_kernel_plan())


def lint_cases(cases, analyze, observe) -> dict:
    """The one corpus loop: a section with one result per :class:`CorpusCase`.

    ``analyze(built)`` returns the static diagnostics of whatever the
    case's factory built; ``observe(built)`` (``None`` = static only)
    returns the ``(events, covered)`` :func:`verify` stamps their
    verdicts from, and a case that pins an ``expect_verdict`` then
    needs it on every expected rule.
    """
    results = []
    for case in cases:
        built = case.build()
        diags = analyze(built)
        if observe is not None:
            verify(diags, *observe(built))
        found = {d.rule for d in diags}
        pinned = observe is not None and case.expect_verdict is not None
        result = {
            "name": case.name,
            "expected_rules": sorted(case.expect_rules),
            "expected_verdict": case.expect_verdict if pinned else None,
            "found_rules": sorted(found),
            "ok": case.expect_rules <= found and (not pinned or all(
                any(d.rule == r and d.verdict == case.expect_verdict
                    for d in diags)
                for r in case.expect_rules
            )),
            "diagnostics": rank(diags),
        }
        if case.expect_verdict is None:   # no pin, no key (the SW corpus)
            del result["expected_verdict"]
        results.append(result)
    return {"cases": results,
            "all_expected_found": all(c["ok"] for c in results)}


def lint_parallel(sanitize: bool = True, workers: int = 2) -> dict:
    """The RD race & determinism pass over a real tiny G3 driver.

    The lockstep step plan (``nparts=4``) must analyze clean
    statically, and when ``sanitize`` a one-step run must replay clean
    through the observed span stream.
    """
    from repro.dycore.solver import DycoreConfig
    from repro.dycore.state import baroclinic_wave_state
    from repro.dycore.vertical import VerticalCoordinate
    from repro.grid.mesh import build_mesh
    from repro.parallel.driver import DistributedDycore

    mesh = build_mesh(2)
    vc = VerticalCoordinate.uniform(4)
    driver = DistributedDycore(
        mesh, vc, DycoreConfig(dt=600.0, sponge_levels=2),
        nparts=4, workers=workers,
    )
    try:
        driver.scatter(baroclinic_wave_state(mesh, vc))
        plan = driver.step_plan()
        plan_diags = rank(analyze_parallel_plan(plan))
        if sanitize:
            run_report = sanitize_run(driver, steps=1).to_dict()
        else:
            run_report = None
    finally:
        driver.close()
    corpus = lint_cases(
        KNOWN_RACY_PLANS.values(), analyze_parallel_plan,
        (lambda plan: RaceReplay(plan).observe()) if sanitize else None,
    )
    plan_errors = [d for d in plan_diags if d.severity is Severity.ERROR]
    run_clean = run_report is None or run_report["clean"]
    return {
        "step_plan": {
            "name": plan.name,
            "ops": len(plan.ops),
            "workers": workers,
            "diagnostics": plan_diags,
            "n_error": len(plan_errors),
        },
        "race_corpus": corpus,
        "dynamic_run": run_report,
        "ok": not plan_errors and corpus["all_expected_found"] and run_clean,
    }


def lint_all(sanitize: bool = True, parallel: bool = False) -> dict:
    """Full lint run; the dict `repro lint` serialises."""
    kernel_diags = rank(lint_kernels())
    corpus = lint_cases(
        KNOWN_BAD_CORPUS.values(), lambda built: analyze_plan(built[0]),
        (lambda built: Sanitizer().observe(*built)) if sanitize else None,
    )
    all_diags = kernel_diags + [d for c in corpus["cases"] for d in c["diagnostics"]]
    par = lint_parallel(sanitize=sanitize) if parallel else None
    if par is not None:
        all_diags = all_diags + par["step_plan"]["diagnostics"] + [
            d for c in par["race_corpus"]["cases"] for d in c["diagnostics"]
        ]
    confirmed = sum(1 for d in all_diags if d.verdict == CONFIRMED)
    false_pos = sum(1 for d in all_diags if d.verdict == FALSE_POSITIVE)
    kernel_errors = [d for d in kernel_diags if d.severity is Severity.ERROR]
    result = {
        "kernels": {
            "diagnostics": kernel_diags,
            "n_error": len(kernel_errors),
        },
        "corpus": corpus,
        "summary": {
            "diagnostics": len(all_diags),
            "errors": sum(1 for d in all_diags if d.severity is Severity.ERROR),
            "warnings": sum(1 for d in all_diags if d.severity is Severity.WARNING),
            "info": sum(1 for d in all_diags if d.severity is Severity.INFO),
            "confirmed": confirmed,
            "false_positives": false_pos,
            "strict_ok": not kernel_errors and corpus["all_expected_found"]
            and (par is None or par["ok"]),
        },
    }
    if par is not None:
        result["parallel"] = par
    return result


def to_json(result: dict) -> dict:
    """JSON-serialisable copy of a :func:`lint_all` result.

    Carries ``schema_version`` and preserves the deterministic ordering
    (rank-sorted diagnostics, fixed case order) so CI diffs are stable.
    """
    def plain(x):
        if isinstance(x, Diagnostic):
            return x.to_dict()
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return [plain(v) for v in x] if isinstance(x, list) else x

    return {"schema_version": LINT_SCHEMA_VERSION, **plain(result)}


def _fmt_diag(d) -> str:
    verdict = f" [{d.verdict}]" if d.verdict else ""
    where = ":".join(x for x in (d.plan, d.loop, d.array) if x)
    return f"  {d.severity.name:7s} {d.rule} {where}: {d.message}{verdict}"


def _corpus_lines(title: str, section: dict, missing: str) -> list:
    lines = [f"== {title} =="]
    for c in section["cases"]:
        status = "ok" if c["ok"] else missing
        want_v = f" ({c['expected_verdict']})" if c.get("expected_verdict") else ""
        lines.append(
            f" {c['name']}: expected {','.join(c['expected_rules'])}"
            f"{want_v} -> found {','.join(c['found_rules']) or '(none)'} "
            f"[{status}]"
        )
        lines.extend(_fmt_diag(d) for d in c["diagnostics"])
    return lines


def _plan_lines(header: str, diags: list, clean: str) -> list:
    return [header] + ([_fmt_diag(d) for d in diags] or [f"  clean: {clean}"])


def render_human(result: dict) -> str:
    """Severity-ranked human report."""
    k = result["kernels"]
    lines = _plan_lines(
        f"== registered kernels ({k['n_error']} error(s)) ==",
        k["diagnostics"], "no diagnostics",
    )
    lines.append("")
    lines += _corpus_lines(
        "known-bad corpus", result["corpus"], "MISSING EXPECTED RULES"
    )
    if "parallel" in result:
        par = result["parallel"]
        sp = par["step_plan"]
        lines.append("")
        lines += _plan_lines(
            f"== parallel step plan ({sp['workers']} worker(s), "
            f"{sp['ops']} ops, {sp['n_error']} error(s)) ==",
            sp["diagnostics"], "no RD diagnostics",
        )
        lines.append("")
        lines += _corpus_lines(
            "known-racy corpus", par["race_corpus"],
            "MISSING EXPECTED RULES/VERDICTS",
        )
        run = par["dynamic_run"]
        if run is not None:
            lines.append(
                f" dynamic run: {run['ops']} observed ops — "
                f"{'clean' if run['clean'] else str(len(run['events'])) + ' race event(s)'}"
            )
    s = result["summary"]
    lines.append("")
    lines.append(
        f"summary: {s['diagnostics']} diagnostic(s) — {s['errors']} error, "
        f"{s['warnings']} warning, {s['info']} info; "
        f"{s['confirmed']} confirmed, {s['false_positives']} false positive(s) "
        f"by the sanitizer; strict {'PASS' if s['strict_ok'] else 'FAIL'}"
    )
    return "\n".join(lines)
