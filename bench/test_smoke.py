"""Smoke test of the benchmark itself (``python -m pytest bench -q``).

Not part of the tier-1 suite (``testpaths`` is ``tests``): it drives the
real driver in ``--quick`` mode, which takes ~20 s.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
ROW = re.compile(r"^  (\S+)\s+(\S+) (\S+)$")


def run_driver(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.json"
    proc = run_driver("--quick", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, out


def test_spec_is_within_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_every_declared_metric_is_printed_with_its_unit(quick):
    stdout, out = quick
    results = json.loads(out.read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    assert set(results["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, w in results["workloads"].items():
        assert w["failed"] == 0, name
        for table, want in declared.items():
            got = {k: v["unit"] for k, v in w[table].items()}
            assert got == want, (name, table, set(got) ^ set(want))
    printed = {m.group(1): m.group(3) for m in map(ROW.match, stdout.splitlines()) if m}
    for want in declared.values():
        for metric, unit in want.items():
            assert printed.get(metric) == unit, metric
    assert json.loads(out.with_suffix(".trace.json").read_text())["traceEvents"]


def test_result_set_agrees_with_itself(quick):
    sys.path.insert(0, str(ROOT))
    try:
        from bench.compare import compare, load_bounds
    finally:
        sys.path.remove(str(ROOT))
    results = json.loads(quick[1].read_text())
    lines, bad = compare(results, results, load_bounds())
    assert not bad and len(lines) > 4 * len(SPEC["end_to_end"])


def test_contract_line_for_one_workload(tmp_path):
    proc = run_driver(
        "--quick", "--workload", "serve_g3_mix", "--seed", "3", "--seconds", "4",
        "--trace", "0", "--out", str(tmp_path / "r.json"),
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_driver("--workload", "serve_g3_mix", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
