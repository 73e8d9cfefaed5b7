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


def leaf_layers(net: Layer):
    """Yield the layers of a chain in order, through nested containers."""
    if isinstance(net, Sequential):
        for sub in net.layers:
            yield from leaf_layers(sub)
    elif isinstance(net, ResUnit):
        yield from leaf_layers(net.inner)
    else:
        yield net


def cast_network(net: Layer, dtype) -> Layer:
    """Deep-copy ``net`` with every parameter cast to ``dtype``.

    The one-time weight cast behind the float32 inference fast path:
    the returned clone shares no arrays with the original (training can
    continue on the float64 master weights) and carries zeroed gradient
    buffers in the target dtype.  Layer forward code is dtype-generic,
    so running the clone on a ``dtype`` input stays in ``dtype`` end to
    end.  A float32 clone agrees with the float64 net under the
    ``net_f32`` row of the test suite's contract table.
    """
    dtype = np.dtype(dtype)
    clone = copy.deepcopy(net)
    for layer in leaf_layers(clone):
        for attr in ("W", "b"):
            if hasattr(layer, attr):
                setattr(layer, attr, getattr(layer, attr).astype(dtype))
        for attr in ("dW", "db"):
            if hasattr(layer, attr):
                setattr(layer, attr, np.zeros_like(getattr(layer, attr), dtype=dtype))
    return clone
