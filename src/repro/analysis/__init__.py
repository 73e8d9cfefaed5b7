"""swlint: static analyzers + runtime sanitizers for the substrate.

The correctness-tooling layer: one program model, two rule families.

* **SW001–SW007** — one offload launch at a time.  A kernel declares
  *what* it touches (:class:`~repro.analysis.access.AccessSpec`);
  :class:`~repro.analysis.static.StaticAnalyzer` checks an
  :class:`~repro.analysis.access.OffloadPlan` of such loops against the
  paper's offloading rules (races, ``nowait`` hazards, launch order,
  LDCache thrash, LDM budget, precision demotion, halo reach).
* **RD001–RD005** — the whole parallel layer.  A
  :class:`~repro.analysis.parallel_plan.ParallelPlan` declares
  rank-step phases, exchange-plan index sets, shared-arena extents and
  barriers; :func:`~repro.analysis.races.analyze_parallel_plan` checks
  it (races on arena slots, halo read-before-recv, in-flight
  pack-buffer reuse, missing stage barriers, order-sensitive
  reductions).

Both families read one model: a ``ParallelPlan``, its ordering relation
(``HappensBefore``) and one conflict pass
(:func:`~repro.analysis.races.unordered_conflicts`).  An offload launch
enters it through one view (``OffloadPlan.as_parallel_plan``: each loop
two chunk ops on lanes of their own, barriers where OpenMP puts them),
so SW001 and SW002 are readings of the same pass.  The sanitizers
(:mod:`repro.analysis.sanitizer`) observe what really ran — executed
chunks through the same view, or a replay of a plan's observed index
sets — and one :func:`~repro.analysis.sanitizer.verify` stamps every
verdict.  The known-bad plans of both families live in
:mod:`repro.analysis.corpus`.

``repro lint`` (and ``--parallel``) drives both passes over the repo's
annotated kernels, the real step plan and the corpora
(:mod:`repro.analysis.report`).
"""
