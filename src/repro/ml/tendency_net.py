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

from repro.ml.inference import InferenceNet
from repro.ml.layers import Conv1D, ReLU
from repro.ml.network import ResUnit, Sequential

#: Channel order of the input profiles.
INPUT_CHANNELS = ("u", "v", "t", "q", "p")
#: Output channels.
OUTPUT_CHANNELS = ("q1", "q2")


class TendencyCNN(InferenceNet):
    """11-conv-layer residual CNN: (batch, 5, nlev) -> (batch, 2, nlev)."""

    def __init__(self, nlev: int, width: int = 128, n_resunits: int = 5, seed: int = 0):
        super().__init__()
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
        self.conv_layers = 1 + 2 * n_resunits   # the "11-layer deep CNN"

    # -- data plumbing -----------------------------------------------------
    @staticmethod
    def pack_inputs(
        u: np.ndarray, v: np.ndarray, t: np.ndarray, q: np.ndarray, p: np.ndarray
    ) -> np.ndarray:
        """Stack (ncol, nlev) profile fields into (ncol, 5, nlev)."""
        return np.stack([u, v, t, q, p], axis=1)

    # -- inference ------------------------------------------------------------
    def predict_q1q2(
        self, u, v, t, q, p
    ) -> tuple[np.ndarray, np.ndarray]:
        out = self.predict(self.pack_inputs(u, v, t, q, p))
        return out[:, 0, :], out[:, 1, :]
