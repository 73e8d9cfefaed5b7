"""Inference for both physics nets: every layer a GEMM on SciPy's BLAS.

NumPy and SciPy each bundle their own OpenBLAS, each with a worker pool
sized to the host and workers that spin for a while after a call.  Were
the CNN's convolutions on SciPy's pool and the radiation MLP's
``x @ W + b`` on NumPy's, every physics call would put both pools and
the caller on the same cores, and each net would stall waiting for
cores the other pool's idle workers hold.  So inference runs every
Conv1D and Dense layer through :func:`shifted_forward` on SciPy's
``gemm``; ``Sequential.forward`` stays the training path and the test
oracle, and NumPy's BLAS keeps only the dycore's small single-thread
column GEMMs (``dycore.vertical.apply_column``).
"""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Conv1D, Dense, ReLU
from repro.ml.network import ResUnit, Sequential, cast_network, leaf_layers
from repro.ml.training import Normalizer


def shifted_forward(net: Sequential, x: np.ndarray, dtype) -> np.ndarray:
    """Inference through a Conv1D or Dense chain (with ReLU and ResUnit).

    A 3-D ``(batch, c, L)`` input runs a Conv1D chain, a 2-D
    ``(batch, c)`` input a Dense chain, read as ``batch`` columns of one
    level.  Activations live channels-last in one flat ``(rows, c)``
    matrix per layer: ``P`` zero pad rows (the widest kernel's
    half-width, 0 for Dense), then each column's ``L`` levels followed by
    the ``P`` pad rows it shares with the next column, so
    ``rows = batch * (L + P) + P``.  A ``k``-tap layer is ``k`` GEMMs of
    that matrix at row offsets ``0 .. k-1`` against the per-tap weights,
    accumulated by BLAS (``beta = 1``) straight into the bias-filled rows
    of the next buffer; rows that straddle two columns land in pad rows,
    which are re-zeroed after the layer.  ReLU and the residual add run
    in place.  The per-tap weights and every buffer are local to the
    call.  Returns ``(batch, c_out, L)`` or ``(batch, c_out)`` in
    ``dtype``, a view of a call-local buffer.
    """
    # Imported here: loading scipy's BLAS starts its thread pool, which a
    # process that never runs a net should not carry.
    from scipy.linalg import blas

    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise TypeError(f"shifted-GEMM inference runs float32 or float64, not {dtype}")
    gemm = blas.get_blas_funcs("gemm", dtype=dtype)
    if x.ndim == 3:
        kind, (b, c, L) = Conv1D, x.shape
        xl = x.transpose(0, 2, 1)
    elif x.ndim == 2:
        kind, (b, c), L = Dense, x.shape, 1
        xl = x[:, None, :]
    else:
        raise ValueError(f"expected (batch, c, L) or (batch, c) input, got {x.shape}")
    linear = [layer for layer in leaf_layers(net) if isinstance(layer, (Conv1D, Dense))]
    for layer in linear:
        if not isinstance(layer, kind):
            raise TypeError(f"no {x.ndim}-D shifted-GEMM inference for {type(layer).__name__}")
    P = max((layer.k // 2 for layer in linear), default=0) if kind is Conv1D else 0
    rows = b * (L + P) + P
    size = rows * max([c] + [layer.b.size for layer in linear])
    free: list[np.ndarray] = []

    def take(ch: int) -> np.ndarray:
        flat = free.pop() if free else np.empty(size, dtype)
        return flat[: rows * ch].reshape(rows, ch)

    def give(a: np.ndarray) -> None:
        free.append(a.base)

    def levels(a: np.ndarray) -> np.ndarray:
        """The ``(batch, L, ch)`` non-pad rows of buffer ``a``."""
        return a[: b * (L + P)].reshape(b, L + P, -1)[:, P:]

    def zero_pads(a: np.ndarray) -> None:
        if P:
            a[: b * (L + P)].reshape(b, L + P, -1)[:, :P] = 0.0
            a[b * (L + P):] = 0.0

    def linear_layer(layer, src: np.ndarray) -> np.ndarray:
        w = layer.W[None] if kind is Dense else layer.W.transpose(2, 1, 0)
        taps = np.ascontiguousarray(w, dtype)                   # (k, c_in, c_out)
        k, _, c_out = taps.shape
        p = k // 2
        dst = take(c_out)
        n = rows - 2 * p
        y = dst[p: p + n]
        y[...] = layer.b
        # Row-major y = x @ w is column-major y.T = w.T @ x.T: every
        # operand is a Fortran-ordered view, so BLAS writes y in place.
        for dk in range(k):
            gemm(1.0, taps[dk].T, src[dk: dk + n].T, beta=1.0, c=y.T, overwrite_c=True)
        zero_pads(dst)
        return dst

    def run(layers, cur: np.ndarray, skip: np.ndarray | None) -> np.ndarray:
        # ``skip`` is the enclosing ResUnit's input: read, never written.
        for layer in layers:
            if isinstance(layer, kind):
                nxt = linear_layer(layer, cur)
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
    zero_pads(x0)
    levels(x0)[...] = xl
    out = levels(run(net.layers, x0, None))
    return out.transpose(0, 2, 1) if kind is Conv1D else out[:, 0]


class InferenceNet:
    """What both physics nets share: a float64 master ``net`` trained by
    ``Sequential.forward``, per-feature normalisers, and an optional
    reduced-precision inference clone; :meth:`predict` runs whichever is
    current through :func:`shifted_forward`."""

    net: Sequential

    def __init__(self):
        self.in_norm = Normalizer()
        self.out_norm = Normalizer()
        self._infer_net = None
        self._infer_dtype: np.dtype | None = None

    def n_params(self) -> int:
        return self.net.n_params()

    def fit_normalizers(self, x: np.ndarray, y: np.ndarray) -> None:
        """Fit per-feature statistics on the training set."""
        self.in_norm.fit(x, axis=(0,))
        self.out_norm.fit(y, axis=(0,))

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

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Physical-unit prediction, float64."""
        if self.in_norm.mean is None:
            raise RuntimeError("normalizers not fitted; call fit_normalizers")
        z = self.in_norm.transform(x)
        if self._infer_net is not None:
            out = shifted_forward(self._infer_net, z, self._infer_dtype)
        else:
            out = shifted_forward(self.net, z, np.float64)
        return self.out_norm.inverse(out)
