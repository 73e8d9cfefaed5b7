"""Neural-network layers with manual forward/backward passes.

Conventions: every layer caches what it needs during ``forward`` and
returns input gradients from ``backward``; parameter gradients accumulate
in ``.grads`` (cleared by the optimiser).  Dense layers take
``(batch, features)``; Conv1D takes ``(batch, channels, length)`` where
``length`` is the vertical dimension — the 1-D convolutions "capture the
vertical characteristics of temperature, humidity, and other atmospheric
variables" (section 3.2.3).

Inference contract: ``forward(..., train=False)`` allocates no
activation caches *and* drops any cache left over from a previous
training pass (every layer's cache attribute is ``None`` afterwards), so
repeated inference holds no references to past batches and its memory
footprint stays flat.  ``backward`` after an inference-mode forward
raises.

``forward`` is the training path and the layer-by-layer oracle.  Both
physics nets infer through ``repro.ml.inference.shifted_forward``
instead: the whole chain as GEMMs on SciPy's BLAS, no im2col matrix.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Layer:
    """Base layer: parameterless identity."""

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for g in self.grads().values():
            g.fill(0.0)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / n_in)                # He init for ReLU nets
        self.W = rng.normal(0.0, scale, size=(n_in, n_out))
        self.b = np.zeros(n_out)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def params(self):
        return {"W": self.W, "b": self.b}

    def grads(self):
        return {"W": self.dW, "b": self.db}

    def forward(self, x, train=True):
        self._x = x if train else None
        return x @ self.W + self.b

    def backward(self, dy):
        if self._x is None:
            raise RuntimeError("backward before forward")
        self.dW += self._x.T @ dy
        self.db += dy.sum(axis=0)
        return dy @ self.W.T


class Conv1D(Layer):
    """1-D convolution, 'same' zero padding, stride 1.

    Input ``(batch, c_in, L)``, kernel ``(c_out, c_in, k)``.  The
    training path is im2col + one GEMM: the ``k`` taps of every output
    level are laid side by side as one row of a ``(batch * L, k * c_in)``
    matrix, so the whole layer is a single BLAS call in either dtype; the
    backward pass is the two transposed GEMMs and a ``k``-term col2im.
    Inference through ``TendencyCNN.predict`` builds no im2col matrix: it
    runs ``k`` shifted GEMMs per layer (``tendency_net.shifted_forward``).
    """

    def __init__(self, c_in: int, c_out: int, k: int = 3, rng: np.random.Generator | None = None):
        if k % 2 != 1:
            raise ValueError("odd kernel sizes only (same padding)")
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / (c_in * k))
        self.W = rng.normal(0.0, scale, size=(c_out, c_in, k))
        self.b = np.zeros(c_out)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.k = k
        self._cols: np.ndarray | None = None

    def params(self):
        return {"W": self.W, "b": self.b}

    def grads(self):
        return {"W": self.dW, "b": self.db}

    @property
    def n_params(self) -> int:
        return self.W.size + self.b.size

    def _wm(self) -> np.ndarray:
        """``W`` as the ``(k * c_in, c_out)`` GEMM operand (tap-major rows)."""
        return self.W.transpose(2, 1, 0).reshape(-1, self.W.shape[0])

    def forward(self, x, train=True):
        c_out, c_in, k = self.W.shape
        if x.ndim != 3 or x.shape[1] != c_in:
            raise ValueError(f"expected input (batch, {c_in}, L), got {x.shape}")
        b, _, L = x.shape
        pad = k // 2
        # Channels-last and padded once, in the operand result dtype so a
        # float32-cast net stays float32 end to end.
        xp = np.zeros((b, L + 2 * pad, c_in), dtype=np.result_type(x.dtype, self.W.dtype))
        xp[:, pad: pad + L] = x.transpose(0, 2, 1)
        # cols[b, l, dk * c_in + i] = xp[b, l + dk, i]
        cols = sliding_window_view(xp, k, axis=1).transpose(0, 1, 3, 2).reshape(b, L, k * c_in)
        self._cols = cols if train else None
        y = cols.reshape(b * L, -1) @ self._wm()
        y += self.b
        return y.reshape(b, L, c_out).transpose(0, 2, 1)

    def backward(self, dy):
        if self._cols is None:
            raise RuntimeError("backward before forward")
        c_out, c_in, k = self.W.shape
        b, L, _ = self._cols.shape
        if dy.shape != (b, c_out, L):
            raise ValueError(f"expected gradient {(b, c_out, L)}, got {dy.shape}")
        pad = k // 2
        dym = dy.transpose(0, 2, 1).reshape(b * L, c_out)
        dwm = self._cols.reshape(b * L, -1).T @ dym          # (k * c_in, c_out)
        self.dW += dwm.reshape(k, c_in, c_out).transpose(2, 1, 0)
        self.db += dym.sum(axis=0)
        dcols = (dym @ self._wm().T).reshape(b, L, k, c_in)
        dxp = np.zeros((b, L + 2 * pad, c_in), dtype=dcols.dtype)
        for dk in range(k):                          # col2im
            dxp[:, dk: dk + L] += dcols[:, :, dk]
        return dxp[:, pad: pad + L].transpose(0, 2, 1)


class ReLU(Layer):
    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x, train=True):
        # The mask is itself an activation-sized allocation — skip it
        # entirely in inference mode rather than computing and dropping.
        self._mask = (x > 0.0) if train else None
        return np.maximum(x, 0.0)

    def backward(self, dy):
        if self._mask is None:
            raise RuntimeError("backward before forward")
        return dy * self._mask
