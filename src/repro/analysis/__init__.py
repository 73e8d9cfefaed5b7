"""swlint: static analyzers + runtime sanitizers for the substrate.

The correctness-tooling layer, two rule families:

* **SW001–SW007** — one offload plan at a time.  A kernel declares
  *what* it touches (:class:`AccessSpec`); the static analyzer
  (:class:`StaticAnalyzer`) checks an :class:`OffloadPlan` of such
  loops against the paper's hard-won offloading rules (races,
  ``nowait`` hazards, launch order, LDCache thrash, LDM budget,
  precision demotion, halo reach); the runtime :class:`Sanitizer`
  executes the loops chunk-by-chunk through the real job server and
  stamps each suspected race CONFIRMED or FALSE_POSITIVE from the
  observed per-chunk index sets.
* **RD001–RD005** — the whole parallel layer.  A
  :class:`ParallelPlan` declares rank-step phases, exchange-plan index
  sets, shared-arena extents and barriers; the
  :class:`StaticRaceAnalyzer` checks the happens-before graph (races on
  arena slots, halo read-before-recv, in-flight pack-buffer reuse,
  missing stage barriers, order-sensitive reductions) and the
  :class:`RaceSanitizer` replays the plan — or a real driver run via
  :func:`sanitize_run` — to settle every verdict.

Both families share one core: one ordering relation
(:class:`HappensBefore`) and one conflict pass
(:func:`repro.analysis.races.unordered_conflicts`), called with
declared indices by the static RD checker, with observed indices by the
RD replay, and with one lane per executed chunk for SW001's verdict.

``repro lint`` (and ``--parallel``) drives both passes over the repo's
annotated kernels, the real step plan, and the known-bad corpora.
"""

from repro.analysis.access import (
    AccessSpec,
    ArrayAccess,
    IndexExpr,
    IndexKind,
    OffloadPlan,
    PlannedLoop,
    parse_index,
)
from repro.analysis.corpus import KNOWN_BAD_CORPUS, CorpusCase
from repro.analysis.diagnostics import (
    CONFIRMED,
    FALSE_POSITIVE,
    RULES,
    Diagnostic,
    Severity,
    rank,
)
from repro.analysis.parallel_plan import (
    DRIVER,
    Access,
    HappensBefore,
    OpKind,
    ParallelPlan,
    PlanOp,
)
from repro.analysis.race_corpus import KNOWN_RACY_PLANS
from repro.analysis.race_sanitizer import (
    RaceEvent,
    RaceReplay,
    RaceSanitizer,
    RunSanitizeReport,
    sanitize_run,
)
from repro.analysis.races import (
    StaticRaceAnalyzer,
    analyze_parallel_plan,
    build_step_plan,
)
from repro.analysis.report import LINT_SCHEMA_VERSION
from repro.analysis.sanitizer import LoopObservation, Sanitizer, ShadowArray
from repro.analysis.static import (
    CacheGeometry,
    StaticAnalyzer,
    analyze_plan,
    plan_from_directives,
)

__all__ = [
    "AccessSpec",
    "ArrayAccess",
    "IndexExpr",
    "IndexKind",
    "OffloadPlan",
    "PlannedLoop",
    "parse_index",
    "KNOWN_BAD_CORPUS",
    "CorpusCase",
    "CONFIRMED",
    "FALSE_POSITIVE",
    "RULES",
    "Diagnostic",
    "Severity",
    "rank",
    "DRIVER",
    "Access",
    "HappensBefore",
    "OpKind",
    "ParallelPlan",
    "PlanOp",
    "KNOWN_RACY_PLANS",
    "RaceEvent",
    "RaceReplay",
    "RaceSanitizer",
    "RunSanitizeReport",
    "sanitize_run",
    "StaticRaceAnalyzer",
    "analyze_parallel_plan",
    "build_step_plan",
    "LINT_SCHEMA_VERSION",
    "LoopObservation",
    "Sanitizer",
    "ShadowArray",
    "CacheGeometry",
    "StaticAnalyzer",
    "analyze_plan",
    "plan_from_directives",
]
