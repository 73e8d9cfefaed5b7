"""Shared fixtures: session-scoped meshes and vertical coordinates.

Mesh construction is deterministic and nothing in ``repro`` writes to a
mesh beyond memoising its compiled stencil plans (a core of either
backend leaves it as it found it), so instances are shared across tests;
a test that edits mesh arrays builds its own.
"""

from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest

from repro.dycore.vertical import VerticalCoordinate
from repro.grid import build_mesh


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
    return build_mesh(1)


@pytest.fixture(scope="session")
def mesh_g2():
    return build_mesh(2)


@pytest.fixture(scope="session")
def mesh_g3():
    return build_mesh(3)


@pytest.fixture(scope="session")
def vcoord10():
    return VerticalCoordinate.uniform(10)


@pytest.fixture(scope="session")
def vcoord8s():
    return VerticalCoordinate.stretched(8)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
