"""Network composition: Sequential containers and residual units."""

from __future__ import annotations

import copy

import numpy as np

from repro.ml.layers import Layer


class Sequential(Layer):
    """A chain of layers applied in order."""

    def __init__(self, *layers: Layer):
        self.layers = list(layers)

    def params(self):
        out = {}
        for i, layer in enumerate(self.layers):
            for k, v in layer.params().items():
                out[f"{i}.{k}"] = v
        return out

    def grads(self):
        out = {}
        for i, layer in enumerate(self.layers):
            for k, v in layer.grads().items():
                out[f"{i}.{k}"] = v
        return out

    def forward(self, x, train=True):
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, dy):
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def n_params(self) -> int:
        return sum(int(np.prod(v.shape)) for v in self.params().values())


class ResUnit(Layer):
    """Residual block: ``y = x + F(x)`` with ``F`` a layer chain.

    "With the incorporation of residual connections, this structure is
    proven to be stable and accurate" (section 3.2.3, citing Han et al.).
    The inner chain must preserve the input shape.
    """

    def __init__(self, *inner: Layer):
        self.inner = Sequential(*inner)

    def params(self):
        return {f"res.{k}": v for k, v in self.inner.params().items()}

    def grads(self):
        return {f"res.{k}": v for k, v in self.inner.grads().items()}

    def forward(self, x, train=True):
        fx = self.inner.forward(x, train=train)
        if fx.shape != x.shape:
            raise ValueError(
                f"residual branch changed shape: {x.shape} -> {fx.shape}"
            )
        return x + fx

    def backward(self, dy):
        return dy + self.inner.backward(dy)


#: The float32 inference contract, the ML counterpart of
#: ``stencil.FLOAT32_TOLERANCE``: a ``cast_network(net, float32)`` clone
#: stays within this of the float64 net, ``max|a - b| / max|b|`` over an
#: output field (observed 7.5e-7 through the paper-size 11-layer CNN,
#: 3.5e-6 on the coupled suite's clipped ``dqv``, <= 2.7e-7 through the
#: small nets).
FLOAT32_TOLERANCE = 1e-5


def cast_network(net: Layer, dtype) -> Layer:
    """Deep-copy ``net`` with every parameter cast to ``dtype``.

    The one-time weight cast behind the float32 inference fast path:
    the returned clone shares no arrays with the original (training can
    continue on the float64 master weights) and carries zeroed gradient
    buffers in the target dtype.  Layer forward code is dtype-generic,
    so running the clone on a ``dtype`` input stays in ``dtype`` end to
    end.
    """
    dtype = np.dtype(dtype)

    def _cast(layer: Layer) -> None:
        if isinstance(layer, Sequential):
            for sub in layer.layers:
                _cast(sub)
        elif isinstance(layer, ResUnit):
            _cast(layer.inner)
        else:
            for attr in ("W", "b"):
                if hasattr(layer, attr):
                    setattr(layer, attr, getattr(layer, attr).astype(dtype))
            for attr in ("dW", "db"):
                if hasattr(layer, attr):
                    setattr(
                        layer, attr,
                        np.zeros_like(getattr(layer, attr), dtype=dtype),
                    )

    clone = copy.deepcopy(net)
    _cast(clone)
    return clone


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
