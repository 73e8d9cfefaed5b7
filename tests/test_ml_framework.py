"""Tests of the NumPy NN framework: layers, gradients, optimisers,
training protocol."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.layers import Conv1D, Dense, Layer, ReLU
from repro.ml.network import ResUnit, Sequential
from repro.ml.optimizer import Adam, Optimizer
from repro.ml.training import Normalizer, Trainer, train_test_split_by_day
from tests import contracts


def gradient_check(
    net: Layer,
    x: np.ndarray,
    eps: float = 1e-6,
    n_samples: int = 10,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and finite-difference grads.

    Uses loss = 0.5 * sum(y^2) so dL/dy = y.  Samples a few parameter
    entries per tensor (exhaustive checks are O(params) forward passes).
    """
    rng = rng or np.random.default_rng(0)
    y = net.forward(x, train=True)
    net.backward(y.copy())
    worst = 0.0
    for name, p in net.params().items():
        g = net.grads()[name]
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        idxs = rng.choice(flat_p.size, size=min(n_samples, flat_p.size), replace=False)
        for i in idxs:
            orig = flat_p[i]
            flat_p[i] = orig + eps
            lp = 0.5 * float((net.forward(x, train=False) ** 2).sum())
            flat_p[i] = orig - eps
            lm = 0.5 * float((net.forward(x, train=False) ** 2).sum())
            flat_p[i] = orig
            fd = (lp - lm) / (2 * eps)
            # Below this scale the central difference is pure round-off
            # (e.g. a dead-ReLU unit: analytic 0 vs fd noise ~1e-7).
            if max(abs(fd), abs(flat_g[i])) < 1e-5:
                continue
            denom = max(abs(fd), abs(flat_g[i]))
            worst = max(worst, abs(fd - flat_g[i]) / denom)
    return worst


class SGD(Optimizer):
    """Momentum SGD: a second optimiser over the same backprop."""

    def __init__(self, net: Layer, lr: float = 1e-3, momentum: float = 0.9):
        super().__init__(net, lr)
        self.momentum = momentum
        self._vel = {k: np.zeros_like(v) for k, v in net.params().items()}

    def step(self) -> None:
        params = self.net.params()
        grads = self.net.grads()
        for k in params:
            v = self._vel[k]
            v *= self.momentum
            v -= self.lr * grads[k]
            params[k] += v


class TestDense:
    def test_forward_shape(self):
        d = Dense(5, 3)
        y = d.forward(np.zeros((7, 5)))
        assert y.shape == (7, 3)

    def test_gradient_check(self, rng):
        net = Sequential(Dense(6, 10), ReLU(), Dense(10, 4))
        err = gradient_check(net, rng.normal(size=(8, 6)))
        assert err < 1e-5

    def test_linearity(self, rng):
        d = Dense(4, 2)
        x = rng.normal(size=(3, 4))
        y1 = d.forward(2.0 * x, train=False)
        y2 = 2.0 * d.forward(x, train=False) - d.b
        np.testing.assert_allclose(y1, y2, atol=1e-12)


class TestConv1D:
    def test_same_padding_shape(self, rng):
        c = Conv1D(3, 5, k=3)
        y = c.forward(rng.normal(size=(2, 3, 11)))
        assert y.shape == (2, 5, 11)

    def test_1x1_kernel_is_pointwise(self, rng):
        c = Conv1D(3, 2, k=1)
        x = rng.normal(size=(4, 3, 7))
        y = c.forward(x, train=False)
        manual = np.einsum("oi,bil->bol", c.W[:, :, 0], x) + c.b[None, :, None]
        np.testing.assert_allclose(y, manual, atol=1e-12)

    def test_translation_equivariance_interior(self, rng):
        """Shifting the input shifts the output (away from boundaries)."""
        c = Conv1D(2, 2, k=3)
        x = rng.normal(size=(1, 2, 20))
        xs = np.roll(x, 3, axis=2)
        y = c.forward(x, train=False)
        ys = c.forward(xs, train=False)
        np.testing.assert_allclose(ys[:, :, 5:17], np.roll(y, 3, axis=2)[:, :, 5:17],
                                   atol=1e-12)

    def test_gradient_check(self, rng):
        net = Sequential(Conv1D(2, 6, 3), ReLU(), Conv1D(6, 2, 3))
        err = gradient_check(net, rng.normal(size=(3, 2, 9)))
        assert err < 1e-5

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv1D(2, 2, k=4)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("L", [1, 2, 10])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_literal_definition(self, k, L, dtype):
        """Forward, dW, db and dx against the definition written out as
        loops — the only place a k > 1 'same' convolution is spelled."""
        rng = np.random.default_rng([k, L])
        c_in, c_out, b = 3, 4, 1
        c = Conv1D(c_in, c_out, k, rng)
        c.W, c.b = c.W.astype(dtype), rng.normal(size=c_out).astype(dtype)
        c.dW, c.db = np.zeros_like(c.W), np.zeros_like(c.b)
        # Non-contiguous on purpose: a transposed view of (b, L, c_in).
        x = rng.normal(size=(b, L, c_in)).astype(dtype).transpose(0, 2, 1)
        dy = rng.normal(size=(b, L, c_out)).astype(dtype).transpose(0, 2, 1)
        assert L == 1 or not x.flags.c_contiguous

        pad = k // 2
        y = np.zeros((b, c_out, L))
        dW, db, dx = np.zeros(c.W.shape), np.zeros(c_out), np.zeros(x.shape)
        for n in range(b):
            for o in range(c_out):
                for l in range(L):                       # noqa: E741
                    y[n, o, l] = c.b[o]
                    db[o] += dy[n, o, l]
                    for i in range(c_in):
                        for dk in range(k):
                            m = l + dk - pad             # zero outside [0, L)
                            if 0 <= m < L:
                                y[n, o, l] += float(c.W[o, i, dk]) * float(x[n, i, m])
                                dW[o, i, dk] += float(dy[n, o, l]) * float(x[n, i, m])
                                dx[n, i, m] += float(c.W[o, i, dk]) * float(dy[n, o, l])

        out = c.forward(x, train=True)
        got_dx = c.backward(dy)
        assert out.dtype == dtype and got_dx.dtype == dtype
        tol = 1e-12 if dtype == np.float64 else 1e-5
        for got, want in ((out, y), (c.dW, dW), (c.db, db), (got_dx, dx)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=tol * max(1.0, np.abs(want).max()))

    def test_result_dtype_follows_operands(self, rng):
        """float32 input on float64 weights promotes (``np.result_type``)."""
        c = Conv1D(3, 2, 3)
        assert c.forward(rng.normal(size=(2, 3, 5)).astype(np.float32)).dtype == np.float64

    def test_wrong_channel_count_rejected(self):
        """A size-1 channel axis used to broadcast silently over c_in."""
        c = Conv1D(3, 4, 3)
        for bad in (np.ones((2, 1, 5)), np.ones((2, 6, 5)), np.ones((3, 5)), np.ones((1, 2, 3, 5))):
            with pytest.raises(ValueError, match=re.escape(f"(batch, 3, L), got {bad.shape}")):
                c.forward(bad)

    def test_wrong_gradient_shape_rejected(self):
        c = Conv1D(3, 4, 3)
        c.forward(np.ones((2, 3, 5)))
        for bad in (np.ones((2, 1, 5)), np.ones((2, 3, 5)), np.ones((2, 4, 6)), np.ones((2, 4))):
            with pytest.raises(ValueError, match=re.escape(f"(2, 4, 5), got {bad.shape}")):
                c.backward(bad)
        np.testing.assert_array_equal(c.dW, 0.0)       # nothing accumulated


class TestResUnit:
    def test_identity_at_zero_weights(self, rng):
        inner = Dense(5, 5)
        inner.W[:] = 0.0
        inner.b[:] = 0.0
        r = ResUnit(inner)
        x = rng.normal(size=(4, 5))
        np.testing.assert_array_equal(r.forward(x), x)

    def test_gradient_check(self, rng):
        net = Sequential(
            Dense(4, 8), ReLU(),
            ResUnit(Dense(8, 8), ReLU(), Dense(8, 8)),
            ResUnit(Dense(8, 8), ReLU()),
            Dense(8, 2),
        )
        err = gradient_check(net, rng.normal(size=(6, 4)))
        assert err < 1e-5

    def test_shape_change_rejected(self, rng):
        r = ResUnit(Dense(4, 5))
        with pytest.raises(ValueError):
            r.forward(rng.normal(size=(2, 4)))


class TestInferenceMode:
    """``train=False`` must allocate no backward caches — the memory
    contract the coupled-model inference loop relies on."""

    def _net(self):
        rng = np.random.default_rng(0)
        return Sequential(Conv1D(3, 4, 3, rng), ReLU(), Conv1D(4, 2, 3, rng))

    def test_inference_leaves_caches_none(self):
        net = self._net()
        x = np.random.default_rng(1).normal(size=(5, 3, 8))
        net.forward(x, train=False)
        for layer in net.layers:
            if isinstance(layer, Conv1D):
                assert layer._cols is None
            if isinstance(layer, ReLU):
                assert layer._mask is None

    def test_inference_clears_training_caches(self):
        """A training forward then an inference forward must not retain
        the stale training batch."""
        net = self._net()
        rng = np.random.default_rng(2)
        net.forward(rng.normal(size=(64, 3, 8)), train=True)
        net.forward(rng.normal(size=(5, 3, 8)), train=False)
        for layer in net.layers:
            if isinstance(layer, Conv1D):
                assert layer._cols is None

    def test_dense_relu_inference_caches_none(self):
        rng = np.random.default_rng(3)
        dense, relu = Dense(6, 4, rng), ReLU()
        x = rng.normal(size=(10, 6))
        relu.forward(dense.forward(x, train=False), train=False)
        assert dense._x is None
        assert relu._mask is None

    def test_train_and_inference_outputs_identical(self):
        net = self._net()
        x = np.random.default_rng(4).normal(size=(5, 3, 8))
        np.testing.assert_array_equal(
            net.forward(x, train=True), net.forward(x, train=False)
        )


class TestCastNetwork:
    def test_cast_is_a_deep_copy(self):
        from repro.ml.network import cast_network

        net = Sequential(Dense(4, 3, np.random.default_rng(0)))
        clone = cast_network(net, np.float32)
        assert clone is not net
        assert clone.layers[0].W.dtype == np.float32
        # The original is untouched.
        assert net.layers[0].W.dtype == np.float64
        clone.layers[0].W[:] = 0.0
        assert not np.all(net.layers[0].W == 0.0)

    def test_cast_recurses_through_resunits(self):
        from repro.ml.network import cast_network

        rng = np.random.default_rng(1)
        net = Sequential(
            Conv1D(3, 4, 3, rng), ResUnit(Conv1D(4, 4, 3, rng), ReLU())
        )
        clone = cast_network(net, np.float32)
        for p in clone.params().values():
            assert p.dtype == np.float32

    test_float32_forward_close_to_float64 = contracts.collect("net_f32", net="conv")


class TestOptimizers:
    def _quadratic_net(self):
        d = Dense(3, 1, rng=np.random.default_rng(0))
        return Sequential(d)

    @pytest.mark.parametrize("opt_cls,kw", [(SGD, {"lr": 0.05}), (Adam, {"lr": 0.05})])
    def test_converges_on_linear_regression(self, opt_cls, kw, rng):
        net = self._quadratic_net()
        opt = opt_cls(net, **kw)
        w_true = np.array([[1.0], [-2.0], [0.5]])
        x = rng.normal(size=(256, 3))
        y = x @ w_true + 0.3
        for _ in range(400):
            pred = net.forward(x)
            diff = pred - y
            opt.zero_grad()
            net.backward(2.0 * diff / diff.size)
            opt.step()
        loss = float(((net.forward(x, train=False) - y) ** 2).mean())
        assert loss < 1e-3

    def test_adam_steps_bounded_by_lr(self):
        net = Sequential(Dense(2, 2))
        opt = Adam(net, lr=0.01)
        p0 = {k: v.copy() for k, v in net.params().items()}
        for g in net.grads().values():
            g[:] = 1e9                       # huge gradient
        opt.step()
        for k, v in net.params().items():
            assert np.abs(v - p0[k]).max() < 0.011   # ~lr per step


class TestTrainer:
    def test_loss_decreases(self, rng):
        x = rng.normal(size=(300, 4))
        y = x[:, :2] * 2.0
        net = Sequential(Dense(4, 16), ReLU(), Dense(16, 2))
        tr = Trainer(net, lr=3e-3)
        h = tr.fit(x, y, epochs=25, batch_size=32)
        assert h.train_loss[-1] < 0.3 * h.train_loss[0]

    def test_test_loss_recorded(self, rng):
        x = rng.normal(size=(100, 3))
        y = x.sum(axis=1, keepdims=True)
        net = Sequential(Dense(3, 1))
        tr = Trainer(net, lr=1e-2)
        h = tr.fit(x[:80], y[:80], epochs=3, x_test=x[80:], y_test=y[80:])
        assert len(h.test_loss) == 3


class TestSplitProtocol:
    def test_seven_to_one_ratio(self):
        """Paper: 3 random test steps per 24-step day -> exactly 7:1."""
        tr, te = train_test_split_by_day(480, steps_per_day=24, test_per_day=3)
        assert tr.size / te.size == 7.0
        assert te.size == 60

    def test_no_overlap_full_cover(self):
        tr, te = train_test_split_by_day(240)
        assert np.intersect1d(tr, te).size == 0
        assert np.union1d(tr, te).size == 240

    def test_three_test_steps_each_day(self):
        _, te = train_test_split_by_day(240, steps_per_day=24, test_per_day=3)
        days = te // 24
        counts = np.bincount(days, minlength=10)
        assert np.all(counts == 3)

    def test_reproducible(self):
        a = train_test_split_by_day(100, seed=5)
        b = train_test_split_by_day(100, seed=5)
        np.testing.assert_array_equal(a[0], b[0])

    @given(st.integers(min_value=24, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_property_partition(self, n):
        tr, te = train_test_split_by_day(n)
        assert np.union1d(tr, te).size == n
        assert np.intersect1d(tr, te).size == 0


class TestNormalizer:
    def test_roundtrip(self, rng):
        x = rng.normal(3.0, 5.0, size=(50, 4))
        nz = Normalizer().fit(x)
        np.testing.assert_allclose(nz.inverse(nz.transform(x)), x, atol=1e-10)

    def test_standardises(self, rng):
        x = rng.normal(3.0, 5.0, size=(500, 4))
        z = Normalizer().fit(x).transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-6)
