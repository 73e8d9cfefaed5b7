"""Science experiments of the evaluation section.

* :mod:`repro.experiments.doksuri` — the "23.7" extreme-rainfall
  experiment (Fig. 7): an idealised landfalling typhoon run at two
  horizontal resolutions against a higher-resolution reference standing
  in for the CMPA observations, scored by rain-band spatial correlation;
* :mod:`repro.experiments.climate` — conventional-vs-ML physics
  comparisons (Fig. 8): short high-resolution integrations and longer
  climate runs at two grid levels, scored on the precipitation field;
* :mod:`repro.experiments.workflow` — the end-to-end ML training
  workflow (archive -> datasets -> trained suite).

The Fig. 7 and Fig. 8 runs name a registered scenario (``doksuri``,
``aquaplanet``); their models are assembled in one place,
:func:`repro.ensemble.scenarios.assemble_scenario_model`.
"""

from repro.experiments.climate import north_america_box_mean
from repro.experiments.doksuri import (
    run_doksuri_case,
    spatial_correlation,
    tropical_cyclone_state,
)
from repro.experiments.workflow import train_ml_suite

__all__ = [
    "tropical_cyclone_state",
    "run_doksuri_case",
    "spatial_correlation",
    "north_america_box_mean",
    "train_ml_suite",
]
