"""Every public name in ``src/repro`` has a consumer outside ``tests/``.

The public module-level functions and classes of ``src/repro``, and the
public methods of those classes, are collected by parsing the source.
A name counts as consumed when it appears as an ``ast.Name`` id or an
``ast.Attribute`` attr in a non-``__init__`` file under ``src/repro``,
``bench/``, ``benchmarks/`` or ``examples/``: something a CLI command, a
bench workload, a paper benchmark or an example can reach.  Re-exports
in ``__init__`` files and calls from tests do not count.

:data:`BASELINE` lists the unconsumed names that stay, each with its
reason.  It can only shrink: a baseline entry that gains a consumer, or
whose definition is gone, fails as surely as a new unconsumed name.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CONSUMER_DIRS = (SRC, ROOT / "bench", ROOT / "benchmarks", ROOT / "examples")

_ORACLE = "test oracle"
_VIEW = "test view"
_ITEM8 = "ROADMAP item 8: the coarse-grained, residual-Q1/Q2 training archive"
_ITEM11 = "ROADMAP item 11: the nonhydrostatic path's hydrostatic-limit gate"

#: ``module.qualname`` -> why it stays without a consumer.
BASELINE = {
    "repro.analysis.sanitizer.RunObserver.on_span_open":
        "listener method: the tracer calls it by name",
    "repro.dycore.hevi.acoustic_timescale": _ITEM11,
    "repro.dycore.hevi.hydrostatic_residual": _ITEM11,
    "repro.ensemble.runner.EnsembleResult.member_digests":
        f"{_VIEW}: the ensemble row's members-are-distinct check",
    "repro.ml.coarse_grain.CoarseGrainer": _ITEM8,
    "repro.ml.coarse_grain.CoarseGrainer.restrict_state": _ITEM8,
    "repro.ml.coarse_grain.residual_q1q2": _ITEM8,
    "repro.model.io.HistoryWriter.n_records": f"{_VIEW}: records buffered before a flush",
    "repro.model.io.HistoryWriter.read_series":
        "format reader: the history files `repro simulate --out` writes",
    "repro.model.io.load_state":
        "format reader: the restart file `repro simulate --restart` writes; "
        "the replay[restart] contract case pins it",
    "repro.obs.metrics.MetricsRegistry.counter":
        f"{_VIEW}: the get-or-create instrument the thread-safety tests race on",
    "repro.obs.metrics.MetricsRegistry.gauge":
        f"{_VIEW}: the get-or-create instrument the thread-safety tests race on",
    "repro.obs.metrics.MetricsRegistry.histogram":
        f"{_VIEW}: the get-or-create instrument the thread-safety tests race on",
    "repro.obs.trace.Tracer.span_sequence": f"{_VIEW}: the golden-trace sequence",
    "repro.partition.graph.CSRGraph.validate": f"{_ORACLE}: CSR bracketing and symmetry",
    "repro.partition.metis.partition_balance": f"{_ORACLE}: both balance ends of a partition",
    "repro.serve.scheduler.ForecastJob.cancel":
        "ROADMAP item 5: per-request deadlines cancel through it",
    "repro.sunway.allocator.PoolAllocator.set_spread":
        f"{_VIEW}: the cache-set spread the address distributor is judged by",
    "repro.sunway.execution.StepExecution.kernel_seconds":
        f"{_VIEW}: the executed kernel seconds the perf row compares",
}


@functools.lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions(paths, root: Path) -> dict:
    """``{module.qualname: bare name}`` of every public module-level
    function and class in ``paths`` and every public method of those
    classes; module names are the paths relative to ``root``."""
    out = {}
    for path in paths:
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            out[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and sub.name[0] != "_":
                        out[f"{module}.{node.name}.{sub.name}"] = sub.name
    return out


def referenced_names(paths) -> set:
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def unconsumed(defining, consumers, root: Path = SRC.parent) -> set:
    """Names defined in ``defining`` that no non-``__init__`` file of
    ``consumers`` references."""
    used = referenced_names(p for p in consumers if p.name != "__init__.py")
    return {q for q, name in public_definitions(defining, root).items() if name not in used}


def _tree_files() -> tuple[list, list]:
    defining = sorted(SRC.rglob("*.py"))
    consumers = sorted(p for d in CONSUMER_DIRS for p in d.rglob("*.py"))
    return defining, consumers


def test_every_public_name_has_a_consumer():
    new = sorted(unconsumed(*_tree_files()) - set(BASELINE))
    assert not new, (
        "public names only tests reach (give each a consumer, delete it, or "
        f"add it to BASELINE with a reason): {new}"
    )


def test_baseline_only_shrinks():
    stale = sorted(set(BASELINE) - unconsumed(*_tree_files()))
    assert not stale, f"BASELINE entries now consumed or gone; remove them: {stale}"


def test_planted_unconsumed_function_is_flagged(tmp_path):
    """A function only a test would call is flagged beside the real
    tree; one call from an example clears it."""
    planted = tmp_path / "src" / "repro" / "planted.py"
    planted.parent.mkdir(parents=True)
    planted.write_text("def planted_helper():\n    return 1\n")
    consumers = _tree_files()[1]
    found = unconsumed([planted], consumers + [planted], root=tmp_path / "src")
    assert found == {"repro.planted.planted_helper"}
    caller = tmp_path / "examples" / "use.py"
    caller.parent.mkdir()
    caller.write_text("from repro.planted import planted_helper\n\nplanted_helper()\n")
    assert not unconsumed([planted], consumers + [planted, caller], root=tmp_path / "src")


def test_operators_the_bench_times_by_name_exist():
    """``bench/probes.py`` looks its ``STENCIL_OPS`` up on
    :mod:`repro.dycore.operators` by string (``getattr(ops, name)``),
    which the name scan cannot see."""
    from repro.dycore import operators

    (table,) = [
        node.value for node in _tree(ROOT / "bench" / "probes.py").body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "STENCIL_OPS"
    ]
    names = [op for op, _ in ast.literal_eval(table)]
    assert names
    assert [op for op in names if not callable(getattr(operators, op, None))] == []
