"""Ensemble & scenario engine (see :mod:`repro.ensemble.runner`).

``scenarios``/``products`` are imported eagerly (the serving
layer reads the scenario registry at import time); the runner — which
reaches back into :mod:`repro.serve` — is loaded lazily to keep the
package cycle-free.
"""

from repro.ensemble.products import (
    ensemble_mean,
    ensemble_percentiles,
    ensemble_products,
    ensemble_spread,
    exceedance_probability,
    spread_to_signal,
)
from repro.ensemble.scenarios import (
    Scenario,
    all_scenarios,
    assemble_scenario_model,
    build_scenario_model,
    get_scenario,
    perturbation_noise,
    physics_perturbation_factors,
    register_scenario,
    scenario_names,
)

__all__ = [
    "Scenario", "register_scenario", "get_scenario", "scenario_names",
    "all_scenarios", "assemble_scenario_model", "build_scenario_model",
    "perturbation_noise", "physics_perturbation_factors",
    "ensemble_mean", "ensemble_spread", "ensemble_percentiles",
    "exceedance_probability", "spread_to_signal", "ensemble_products",
    "EnsembleRunner", "EnsembleResult",
]

_LAZY = ("EnsembleRunner", "EnsembleResult")


def __getattr__(name):
    if name in _LAZY:
        from repro.ensemble import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
