"""Unit tests of the batching inference proxy (repro.serve.batch).

The batcher's contract is *bitwise conservatism*: coalescing concurrent
``predict`` calls may only switch to stacked execution when its probe
proved that stacking changes no output bits at this workload's shapes;
otherwise it must degrade to back-to-back solo calls.  Either way every
caller gets exactly the rows for its own input.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve import BatchedRadiationNet, BatchedTendencyNet, InferenceBatcher


def _row_independent(x: np.ndarray) -> np.ndarray:
    """A forward whose per-row output never depends on batch size."""
    return np.tanh(x) * 2.0 + 1.0


def _shape_dependent(x: np.ndarray) -> np.ndarray:
    """A forward whose output bits depend on the batch size — models the
    BLAS-blocking hazard the probe exists to catch."""
    return x * (1.0 + 1e-12 * x.shape[0])


def _concurrent_submit(batcher: InferenceBatcher, inputs: list[np.ndarray],
                       workers: int | None = None) -> list[np.ndarray]:
    """Release submissions through a barrier so they co-schedule.

    The barrier is sized to the worker count (oversubscribed inputs just
    queue up behind it), so every wave of submissions arrives together.
    """
    workers = workers or len(inputs)
    barrier = threading.Barrier(min(workers, len(inputs)))

    def call(x):
        barrier.wait()
        return batcher.submit(x)

    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(call, inputs))


class TestInferenceBatcher:
    def test_solo_submit_matches_forward(self):
        b = InferenceBatcher(_row_independent, max_batch=4)
        x = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(b.submit(x), _row_independent(x))
        assert b.stacking is True  # probe ran on first input

    def test_probe_enables_stacking_when_safe(self):
        b = InferenceBatcher(_row_independent, max_batch=4,
                             window_seconds=0.5)
        rng = np.random.default_rng(0)
        inputs = [rng.normal(size=(5, 3)) for _ in range(8)]
        outs = _concurrent_submit(b, inputs)
        for x, out in zip(inputs, outs):
            assert np.array_equal(out, _row_independent(x))
        assert b.stacking is True
        stats = b.stats()
        assert stats["items"] == 8
        # With a generous window at least one batch coalesced.
        assert stats["max_batch_seen"] >= 2
        assert stats["stacked_items"] >= 2

    def test_probe_disables_stacking_when_unsafe(self):
        b = InferenceBatcher(_shape_dependent, max_batch=4,
                             window_seconds=0.5)
        rng = np.random.default_rng(1)
        inputs = [rng.normal(size=(5, 3)) for _ in range(8)]
        outs = _concurrent_submit(b, inputs)
        # Sequential fallback: every answer is the SOLO forward's bits.
        for x, out in zip(inputs, outs):
            assert np.array_equal(out, _shape_dependent(x))
        assert b.stacking is False
        assert b.stats()["stacked_items"] == 0

    def test_rows_never_cross_between_callers(self):
        """Each caller's rows come back exactly, under heavy contention
        and distinct row counts."""
        b = InferenceBatcher(_row_independent, max_batch=4,
                             window_seconds=0.05)
        rng = np.random.default_rng(2)
        inputs = [rng.normal(size=(1 + i % 5, 3)) for i in range(24)]
        outs = _concurrent_submit(b, inputs, workers=8)
        for x, out in zip(inputs, outs):
            assert out.shape == x.shape
            assert np.array_equal(out, _row_independent(x))
        assert b.stats()["items"] == 24

    def test_error_propagates_to_every_waiter(self):
        calls = {"n": 0}

        def bad(x):
            calls["n"] += 1
            raise RuntimeError("net exploded")

        b = InferenceBatcher(bad, max_batch=4, window_seconds=0.5)
        inputs = [np.ones((2, 2)) for _ in range(4)]
        barrier = threading.Barrier(4)
        errors = []

        def call(x):
            barrier.wait()
            try:
                b.submit(x)
            except RuntimeError as exc:
                errors.append(str(exc))

        with ThreadPoolExecutor(max_workers=4) as ex:
            list(ex.map(call, inputs))
        assert errors == ["net exploded"] * 4

    def test_batcher_usable_after_error(self):
        flip = {"fail": True}

        def flaky(x):
            if flip["fail"]:
                raise RuntimeError("once")
            return _row_independent(x)

        b = InferenceBatcher(flaky, max_batch=2)
        with pytest.raises(RuntimeError):
            b.submit(np.ones((2, 2)))
        flip["fail"] = False
        x = np.ones((2, 2))
        assert np.array_equal(b.submit(x), _row_independent(x))

    def test_max_batch_bounds_coalescing(self):
        b = InferenceBatcher(_row_independent, max_batch=2,
                             window_seconds=0.2)
        inputs = [np.full((2, 2), float(i)) for i in range(6)]
        outs = _concurrent_submit(b, inputs)
        for x, out in zip(inputs, outs):
            assert np.array_equal(out, _row_independent(x))
        assert b.stats()["max_batch_seen"] <= 2

    def test_rejects_bad_max_batch(self):
        with pytest.raises(ValueError):
            InferenceBatcher(_row_independent, max_batch=0)


class TestBatchedNetProxies:
    def test_tendency_proxy_matches_direct(self):
        from repro.dycore.vertical import VerticalCoordinate
        from repro.ml.suite import MLPhysicsSuite

        vc = VerticalCoordinate.stretched(8)
        suite = MLPhysicsSuite.seeded(None, vc, surface=None)
        tn = suite.tendency_net
        proxy = BatchedTendencyNet(
            tn, InferenceBatcher(tn.predict, max_batch=2)
        )
        rng = np.random.default_rng(3)
        u, v = rng.normal(10, 3, (6, 8)), rng.normal(0, 3, (6, 8))
        t = rng.normal(270, 10, (6, 8))
        q = np.abs(rng.normal(0, 3e-3, (6, 8)))
        p = rng.uniform(2e4, 1e5, (6, 8))
        q1, q2 = proxy.predict_q1q2(u, v, t, q, p)
        q1d, q2d = tn.predict_q1q2(u, v, t, q, p)
        assert np.array_equal(q1, q1d) and np.array_equal(q2, q2d)
        # Non-predict attributes delegate to the shared net.
        assert proxy.nlev == tn.nlev

    def test_radiation_proxy_matches_direct(self):
        from repro.dycore.vertical import VerticalCoordinate
        from repro.ml.suite import MLPhysicsSuite

        vc = VerticalCoordinate.stretched(8)
        suite = MLPhysicsSuite.seeded(None, vc, surface=None)
        rn = suite.radiation_net
        proxy = BatchedRadiationNet(
            rn, InferenceBatcher(rn.predict, max_batch=2)
        )
        rng = np.random.default_rng(4)
        t = rng.normal(270, 10, (6, 8))
        q = np.abs(rng.normal(0, 3e-3, (6, 8)))
        tskin = rng.normal(285, 5, 6)
        coszr = rng.uniform(0, 1, 6)
        gsw, glw = proxy.predict_gsw_glw(t, q, tskin, coszr)
        gswd, glwd = rn.predict_gsw_glw(t, q, tskin, coszr)
        assert np.array_equal(gsw, gswd) and np.array_equal(glw, glwd)


class TestStackingOnTheGemmConv:
    """`Conv1D` is one GEMM per layer, so whether k stacked requests give
    each request its solo bits is BLAS's blocking decision at that shape.
    The contract does not depend on the answer: the probe decides, and
    every caller gets its solo output either way."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("nlev,width,n_resunits", [(8, 16, 2), (10, 128, 5)])
    @pytest.mark.parametrize("ncol", [642, 162])
    def test_served_equals_solo_whichever_way_the_probe_decides(
        self, ncol, nlev, width, n_resunits, dtype
    ):
        from repro.ml.tendency_net import TendencyCNN

        rng = np.random.default_rng([ncol, nlev, width])
        net = TendencyCNN(nlev, width=width, n_resunits=n_resunits)
        net.fit_normalizers(
            rng.normal(size=(32, 5, nlev)), rng.normal(size=(32, 2, nlev))
        )
        if dtype == np.float32:
            net.compile_inference(np.float32)
        inputs = [rng.normal(size=(ncol, 5, nlev)) for _ in range(3)]
        solo = [net.predict(x) for x in inputs]

        b = InferenceBatcher(net.predict, max_batch=3, window_seconds=0.5)
        # First wave probes on its leader's input, second wave runs decided.
        outs = _concurrent_submit(b, inputs * 2, workers=3)
        assert b.stacking is not None
        for out, want in zip(outs, solo * 2):
            assert np.array_equal(out, want)
        if not b.stacking:
            assert b.stats()["stacked_items"] == 0
