"""The runner of the equality-contract table (``tests/contracts.py``).

``test_row`` runs every case no older test id runs (those ids are
``contracts.collect`` tests in their own modules, imported here first);
the checks below keep the table honest: every row runs at least one
case, the case list does not depend on the process, and the comparator
catches one ulp.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tests import contracts

REPO = Path(__file__).resolve().parent.parent

for _module in sorted(Path(__file__).parent.glob("test_*.py")):
    importlib.import_module(f"tests.{_module.stem}")


@pytest.mark.parametrize("name,case", contracts.uncollected())
def test_row(name, case):
    contracts.check(name, case)


def test_every_row_runs_cases():
    for row in contracts.ROWS.values():
        keys = [row.key(c) for c in row.cases()]
        assert keys, f"row {row.name!r} runs zero cases"
        assert len(set(keys)) == len(keys), f"row {row.name!r} repeats a case"
        for cid in row.xfail:
            assert cid in {row.case_id(c) for c in row.cases()}, f"{row.name!r}: xfail {cid}"


def test_ranks_row_is_the_full_product():
    cases = contracts.ROWS["ranks"].cases()
    assert len(cases) == 32
    assert {tuple(sorted(c)) for c in cases} == {
        ("backend", "precision", "scenario", "sponge", "workers")
    }


CASE_LIST = ("from tests.contracts import ROWS; print(*(f'{r.name}[{r.case_id(c)}]' "
             "for r in ROWS.values() for c in r.cases()))")


def test_case_list_is_the_same_in_a_fresh_process():
    """Another interpreter (another hash seed) lists the same cases in
    the same order."""
    out = subprocess.run(
        [sys.executable, "-c", CASE_LIST], cwd=REPO, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": f"{REPO / 'src'}:{REPO}", "PYTHONHASHSEED": "12345"},
    )
    assert out.stdout.split() == [f"{r.name}[{r.case_id(c)}]" for r in contracts.ROWS.values()
                                  for c in r.cases()]


#: rows cheap enough to run one case each in the self-test
CHEAP = ("operator", "stage", "reorder", "annihilation", "mimetic", "net_f32",
         "executor_vs_analytic", "dry_mass")


def test_one_ulp_fails_exactly_the_nudged_row():
    failed = {}
    for name in CHEAP:
        try:
            contracts.check(name, contracts.ROWS[name].cases()[0], nudge=name == "stage")
        except AssertionError as exc:
            failed[name] = str(exc)
    assert list(failed) == ["stage"]
    assert failed["stage"].startswith("contract 'stage' [2-reference-DP-hydrostatic] field '0.ps'")


def test_comparator_bounds():
    a = np.array([1.0, -0.0])
    b = np.array([1.0, 0.0])
    contracts.agree("annihilation", {"x": a}, {"x": b})           # Abs(0): -0 == 0
    with pytest.raises(AssertionError, match="bytes differ"):
        contracts.agree("stage", a, b)                              # bitwise pins the sign
    with pytest.raises(AssertionError, match="bitwise field 'value': bytes differ"):
        contracts.bitwise(a, b)
    with pytest.raises(AssertionError, match="float32"):
        contracts.agree("stage", a.astype(np.float32), a)
    contracts.agree("net_f32", {"y": b * (1 + 9e-6)}, {"y": b})
    with pytest.raises(AssertionError, match="max"):
        contracts.agree("net_f32", {"y": b * (1 + 2e-5)}, {"y": b})
    contracts.agree("mix_accuracy", {"ps": b * 1.04}, {"ps": b})
    with pytest.raises(AssertionError, match="relative L2"):
        contracts.agree("mix_accuracy", {"ps": b * 1.06}, {"ps": b})
    with pytest.raises(AssertionError, match="fields"):
        contracts.agree("stage", {"x": a}, {"y": a})
