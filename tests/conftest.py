"""Shared fixtures: session-scoped meshes and vertical coordinates, and
one marker per row of the contract table (``tests/contracts.py``).

Mesh construction is deterministic and nothing in ``repro`` writes to a
mesh beyond memoising its compiled stencil plans (a core of either
backend leaves it as it found it), so instances are shared across tests
and with the contract table; a test that edits mesh arrays builds its
own.
"""

from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest

from repro.dycore.vertical import VerticalCoordinate
from tests import contracts


def pytest_configure(config):
    for row in contracts.ROWS.values():
        candidate, oracle = row.paths
        config.addinivalue_line("markers", f"{row.name}: contract row, {candidate} vs {oracle}")


@contextlib.contextmanager
def _deadline(seconds):
    """Turn a hang into a test failure instead of a stuck suite."""
    def _alarm(signum, frame):
        raise TimeoutError(f"operation exceeded {seconds}s deadline")

    old = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="session")
def deadline():
    """``with deadline(seconds):`` — a SIGALRM bound on the block."""
    return _deadline


@pytest.fixture(scope="session")
def mesh_g1():
    return contracts.mesh(1)


@pytest.fixture(scope="session")
def mesh_g2():
    return contracts.mesh(2)


@pytest.fixture(scope="session")
def mesh_g3():
    return contracts.mesh(3)


@pytest.fixture(scope="session")
def vcoord10():
    return VerticalCoordinate.uniform(10)


@pytest.fixture(scope="session")
def vcoord8s():
    return VerticalCoordinate.stretched(8)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
