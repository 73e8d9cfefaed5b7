"""The ML physical tendency module (paper section 3.2.3, Fig. 3).

    "employs one-dimensional convolutional layers to capture the vertical
    characteristics of temperature, humidity, and other atmospheric
    variables ...  the module incorporates five ResUnits, culminating in
    an 11-layer deep Convolutional Neural Network (CNN) with a parameter
    count close to half a million."

Inputs are per-column profiles of (U, V, T, Q, P) — the variables the
physics–dynamics coupling interface passes (section 3.2.4) — stacked as
channels over the vertical dimension; outputs are the Q1 and Q2 profiles
that replace the summed tendencies of all physical processes.
"""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Conv1D, ReLU
from repro.ml.network import ResUnit, Sequential, cast_network, leaf_layers
from repro.ml.training import Normalizer

#: Channel order of the input profiles.
INPUT_CHANNELS = ("u", "v", "t", "q", "p")
#: Output channels.
OUTPUT_CHANNELS = ("q1", "q2")


class TendencyCNN:
    """11-conv-layer residual CNN: (batch, 5, nlev) -> (batch, 2, nlev)."""

    def __init__(self, nlev: int, width: int = 128, n_resunits: int = 5, seed: int = 0):
        rng = np.random.default_rng(seed)
        layers = [Conv1D(len(INPUT_CHANNELS), width, 3, rng), ReLU()]
        for _ in range(n_resunits):
            layers.append(
                ResUnit(
                    Conv1D(width, width, 3, rng), ReLU(),
                    Conv1D(width, width, 3, rng), ReLU(),
                )
            )
        # 1x1 projection head to the two output channels.
        layers.append(Conv1D(width, len(OUTPUT_CHANNELS), 1, rng))
        self.net = Sequential(*layers)
        self.nlev = nlev
        self.in_norm = Normalizer()
        self.out_norm = Normalizer()
        self.conv_layers = 1 + 2 * n_resunits   # the "11-layer deep CNN"
        self._infer_net = None
        self._infer_dtype: np.dtype | None = None

    def n_params(self) -> int:
        return self.net.n_params()

    def compile_inference(self, dtype=np.float32) -> None:
        """Run inference in a reduced precision (``ns``-style).

        Weights are cast *once* into an inference-only clone;
        :meth:`predict` then runs the clone in ``dtype`` and upcasts at
        the normalizer boundary (the inverse transform's float64
        statistics promote the output).
        Training continues on the float64 master weights — re-call after
        further training to refresh the clone.  ``dtype=None`` returns
        to float64 inference on the master weights.
        """
        if dtype is None:
            self._infer_net = None
            self._infer_dtype = None
            return
        self._infer_dtype = np.dtype(dtype)
        self._infer_net = cast_network(self.net, self._infer_dtype)

    # -- data plumbing -----------------------------------------------------
    @staticmethod
    def pack_inputs(
        u: np.ndarray, v: np.ndarray, t: np.ndarray, q: np.ndarray, p: np.ndarray
    ) -> np.ndarray:
        """Stack (ncol, nlev) profile fields into (ncol, 5, nlev)."""
        return np.stack([u, v, t, q, p], axis=1)

    @staticmethod
    def pack_targets(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
        return np.stack([q1, q2], axis=1)

    def fit_normalizers(self, x: np.ndarray, y: np.ndarray) -> None:
        """Fit per-channel-per-level statistics on the training set."""
        self.in_norm.fit(x, axis=(0,))
        self.out_norm.fit(y, axis=(0,))

    # -- inference ------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Physical-unit prediction: (ncol, 5, nlev) -> (ncol, 2, nlev)."""
        if self.in_norm.mean is None:
            raise RuntimeError("normalizers not fitted; call fit_normalizers")
        z = self.in_norm.transform(x)
        if self._infer_net is not None:
            out = shifted_forward(self._infer_net, z, self._infer_dtype)
        else:
            out = shifted_forward(self.net, z, np.float64)
        return self.out_norm.inverse(out)

    def predict_q1q2(
        self, u, v, t, q, p
    ) -> tuple[np.ndarray, np.ndarray]:
        out = self.predict(self.pack_inputs(u, v, t, q, p))
        return out[:, 0, :], out[:, 1, :]


def shifted_forward(net: Sequential, x: np.ndarray, dtype) -> np.ndarray:
    """Inference through a Conv1D/ReLU/ResUnit chain without im2col.

    Activations live channels-last in zero-padded ``(batch, L + 2P, c)``
    buffers (``P`` the widest kernel's half-width), read as one flat
    ``(batch * (L + 2P), c)`` matrix.  A ``k``-tap conv is ``k`` GEMMs of
    that matrix at row offsets ``0 .. k-1`` against the per-tap weights
    ``W[:, :, dk].T``, accumulated by BLAS (``beta = 1``) straight into
    the bias-filled interior rows of the next buffer; rows that straddle
    two columns land in pad rows, which are re-zeroed after the layer.
    ReLU and the residual add run in place.  The per-tap weights and
    every buffer are local to the call.  Returns ``(batch, c_out, L)``
    in ``dtype``, a view of a call-local buffer.
    """
    # Imported here: loading scipy's BLAS starts its thread pool, which a
    # process that never runs the CNN should not carry.
    from scipy.linalg import blas

    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise TypeError(f"shifted-GEMM inference runs float32 or float64, not {dtype}")
    gemm = blas.get_blas_funcs("gemm", dtype=dtype)
    b, c, L = x.shape
    convs = [layer for layer in leaf_layers(net) if isinstance(layer, Conv1D)]
    P = max(layer.k // 2 for layer in convs)
    rows = b * (L + 2 * P)
    size = rows * max([c] + [layer.W.shape[0] for layer in convs])
    free: list[np.ndarray] = []

    def take(ch: int) -> np.ndarray:
        flat = free.pop() if free else np.empty(size, dtype)
        return flat[: rows * ch].reshape(rows, ch)

    def give(a: np.ndarray) -> None:
        free.append(a.base)

    def conv(layer: Conv1D, src: np.ndarray) -> np.ndarray:
        c_out, _, k = layer.W.shape
        p = k // 2
        taps = np.ascontiguousarray(layer.W.transpose(2, 1, 0), dtype)  # (k, c_in, c_out)
        dst = take(c_out)
        n = rows - 2 * p
        y = dst[p: p + n]
        y[...] = layer.b
        # Row-major y = x @ w is column-major y.T = w.T @ x.T: every
        # operand is a Fortran-ordered view, so BLAS writes y in place.
        for dk in range(k):
            gemm(1.0, taps[dk].T, src[dk: dk + n].T, beta=1.0, c=y.T, overwrite_c=True)
        pads = dst.reshape(b, L + 2 * P, c_out)
        pads[:, :P] = 0.0
        pads[:, P + L:] = 0.0
        return dst

    def run(layers, cur: np.ndarray, skip: np.ndarray | None) -> np.ndarray:
        # ``skip`` is the enclosing ResUnit's input: read, never written.
        for layer in layers:
            if isinstance(layer, Conv1D):
                nxt = conv(layer, cur)
                if cur is not skip:
                    give(cur)
                cur = nxt
            elif isinstance(layer, ReLU):
                if cur is skip:
                    own = take(cur.shape[1])
                    own[...] = cur
                    cur = own
                np.maximum(cur, 0.0, out=cur)
            elif isinstance(layer, ResUnit):
                fx = run(layer.inner.layers, cur, cur)
                if fx is cur:
                    raise ValueError("empty residual branch")
                fx += cur
                if cur is not skip:
                    give(cur)
                cur = fx
            else:
                raise TypeError(f"no shifted-GEMM inference for {type(layer).__name__}")
        return cur

    x0 = take(c)
    xp = x0.reshape(b, L + 2 * P, c)
    xp[:, :P] = 0.0
    xp[:, P + L:] = 0.0
    xp[:, P: P + L] = x.transpose(0, 2, 1)
    out = run(net.layers, x0, None)
    return out.reshape(b, L + 2 * P, -1)[:, P: P + L].transpose(0, 2, 1)
