"""The ML radiation diagnostic module (paper section 3.2.3).

    "we additionally train a deep neural network to compute surface
    downward shortwave radiation (gsw) and longwave radiation (glw),
    which are provided to the land surface model and surface layer
    scheme.  In order to mimic the radiation process, we add skin
    temperature (tskin) and cosine of solar zenith angle (coszr) as
    inputs ...  we introduce a 7-layer Multilayer Perceptron (MLP) with
    residual connections to process one-dimensional vector computation.
    It can significantly improve computational efficiency by replacing
    conventional radiative transfer calculations with continuous matrix
    multiplication."
"""

from __future__ import annotations

import numpy as np

from repro.ml.inference import InferenceNet
from repro.ml.layers import Dense, ReLU
from repro.ml.network import ResUnit, Sequential

OUTPUTS = ("gsw", "glw")


class RadiationMLP(InferenceNet):
    """7-layer residual MLP: column state + (tskin, coszr) -> (gsw, glw)."""

    def __init__(self, nlev: int, width: int = 128, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        # Inputs: T and Q profiles plus tskin and coszr scalars.
        n_in = 2 * nlev + 2
        self.nlev = nlev
        # 7 Dense layers: in -> w, 2 residual pairs (4 layers), w -> w, w -> 2.
        self.net = Sequential(
            Dense(n_in, width, rng), ReLU(),
            ResUnit(Dense(width, width, rng), ReLU(), Dense(width, width, rng), ReLU()),
            ResUnit(Dense(width, width, rng), ReLU(), Dense(width, width, rng), ReLU()),
            Dense(width, width, rng), ReLU(),
            Dense(width, len(OUTPUTS), rng),
        )
        self.dense_layers = 7

    @staticmethod
    def pack_inputs(
        t: np.ndarray, q: np.ndarray, tskin: np.ndarray, coszr: np.ndarray
    ) -> np.ndarray:
        """Stack (ncol, nlev) profiles + (ncol,) scalars into (ncol, 2*nlev+2)."""
        return np.concatenate(
            [t, q, tskin[:, None], coszr[:, None]], axis=1
        )

    def predict(self, x: np.ndarray) -> np.ndarray:
        # Radiative fluxes are non-negative by construction.
        return np.maximum(super().predict(x), 0.0)

    def predict_gsw_glw(
        self, t, q, tskin, coszr
    ) -> tuple[np.ndarray, np.ndarray]:
        out = self.predict(self.pack_inputs(t, q, tskin, coszr))
        return out[:, 0], out[:, 1]

    def flops_per_column(self) -> int:
        """Dense matmul FLOPs per column — the Fig. 10 efficiency claim.

        Roughly twice RRTMG's FLOP count but executed as contiguous
        matrix multiplication at 74-84 % of peak.
        """
        total = 0
        for p in self.net.params().values():
            if p.ndim == 2:
                total += 2 * p.shape[0] * p.shape[1]
        return total
