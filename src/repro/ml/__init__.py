"""The resolution-adaptive ML physics suite (paper section 3.2).

Everything is built from scratch on NumPy:

* :mod:`repro.ml.layers` / :mod:`repro.ml.network` — a small neural
  network framework (Dense, Conv1D, ReLU, residual units) with manual,
  gradient-checked backprop;
* :mod:`repro.ml.optimizer` — Adam and SGD;
* :mod:`repro.ml.training` — MSE training loop with the paper's
  train/test protocol (3 random test steps per day, 7:1 split);
* :mod:`repro.ml.inference` — the one inference engine both networks
  run, every Conv1D or Dense layer as GEMMs on SciPy's BLAS;
* :mod:`repro.ml.tendency_net` — the ML physical tendency module: an
  11-conv-layer 1-D CNN with 5 ResUnits (~0.5 M parameters) mapping
  (U, V, T, Q, P) profiles to Q1/Q2 profiles;
* :mod:`repro.ml.radiation_net` — the ML radiation diagnostic module: a
  7-layer residual MLP producing surface downward shortwave (gsw) and
  longwave (glw) radiation from profiles plus tskin and coszr;
* :mod:`repro.ml.coarse_grain` — coarse graining between grid levels and
  the residual Q1/Q2 diagnosis of section 3.2.2;
* :mod:`repro.ml.data` — the Table-1 training periods over a synthetic
  GSRM archive produced by this repo's own model;
* :mod:`repro.ml.suite` — the coupled ML physics suite exposing the same
  interface as the conventional suite.
"""

from repro.ml.ensemble import TendencyEnsemble
from repro.ml.layers import Conv1D, Dense, ReLU
from repro.ml.network import ResUnit, Sequential
from repro.ml.optimizer import SGD, Adam
from repro.ml.radiation_net import RadiationMLP
from repro.ml.suite import MLPhysicsSuite
from repro.ml.tendency_net import TendencyCNN
from repro.ml.training import Trainer, train_test_split_by_day

__all__ = [
    "Sequential",
    "ResUnit",
    "Dense",
    "Conv1D",
    "ReLU",
    "Adam",
    "SGD",
    "TendencyCNN",
    "RadiationMLP",
    "MLPhysicsSuite",
    "Trainer",
    "train_test_split_by_day",
    "TendencyEnsemble",
]
