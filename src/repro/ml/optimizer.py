"""Optimisers: Adam over the framework's parameter/gradient dicts."""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Layer


class Optimizer:
    def __init__(self, net: Layer, lr: float):
        self.net = net
        self.lr = lr

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for g in self.net.grads().values():
            g.fill(0.0)


class Adam(Optimizer):
    def __init__(
        self,
        net: Layer,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(net, lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m = {k: np.zeros_like(v) for k, v in net.params().items()}
        self._v = {k: np.zeros_like(v) for k, v in net.params().items()}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        params = self.net.params()
        grads = self.net.grads()
        b1c = 1.0 - self.beta1**self._t
        b2c = 1.0 - self.beta2**self._t
        for k in params:
            g = grads[k]
            m = self._m[k]
            v = self._v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            params[k] -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
