"""The examples that drive the operator, exchange, driver and history
APIs run end to end, each in a fresh interpreter (0.6–2.6 s apiece on a
2-vCPU host); an API change that breaks one fails here by name."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "quickstart.py",
    "aquaplanet_climate.py",
    "sunway_kernel_tuning.py",
    "distributed_run.py",
])
def test_example_runs(name, tmp_path):
    src = str(ROOT / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "TMPDIR": str(tmp_path),      # what an example writes lands here
    }
    run = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-4000:]
    assert run.stdout.strip()
    # what an example writes under TMPDIR it removes again
    assert not list(tmp_path.glob("repro_climate_*"))
