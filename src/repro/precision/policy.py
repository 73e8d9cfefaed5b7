"""The ``ns`` precision switch and the sensitivity classification.

Paper, section 3.4.3:

    "We employ a custom Fortran type, designated as ns, to efficiently
    manage precision switching for insensitive variables.  When ns is
    configured to lower precision, the code seamlessly conducts
    mixed-precision computations; otherwise, it executes the original
    code unchanged in double precision."

Section 3.4.2 classifies the terms: pressure-gradient and gravity terms
are precision-*sensitive*; most advective terms in high-order operators
are *insensitive*; the passive-tracer transport equation is almost
entirely insensitive except the accumulated dry-air mass flux.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class TermSensitivity(Enum):
    """Sensitivity class of a dycore term, from the paper's hierarchy of tests."""

    SENSITIVE = "sensitive"       # must stay double precision
    INSENSITIVE = "insensitive"   # may be demoted to single precision


#: The paper's classification of the six prognostic equations' terms.
GRIST_SENSITIVITY: dict[str, TermSensitivity] = {
    # dry-mass continuity: the accumulated mass flux feeds tracer
    # transport and "requires double precision information".
    "mass_flux_accumulation": TermSensitivity.SENSITIVE,
    "mass_divergence": TermSensitivity.INSENSITIVE,
    # horizontal momentum
    "pressure_gradient": TermSensitivity.SENSITIVE,
    "gravity_term": TermSensitivity.SENSITIVE,
    "kinetic_energy_gradient": TermSensitivity.INSENSITIVE,
    "coriolis_term": TermSensitivity.INSENSITIVE,
    "momentum_advection": TermSensitivity.INSENSITIVE,
    # vertical momentum / geopotential (HEVI implicit part)
    "vertical_implicit_solve": TermSensitivity.SENSITIVE,
    "vertical_advection": TermSensitivity.INSENSITIVE,
    # potential temperature
    "theta_advection": TermSensitivity.INSENSITIVE,
    "theta_divergence": TermSensitivity.INSENSITIVE,
    # passive tracer transport: "can be computed almost entirely using
    # lower precision"
    "tracer_advection": TermSensitivity.INSENSITIVE,
    "tracer_flux_limiter": TermSensitivity.INSENSITIVE,
    "diffusion": TermSensitivity.INSENSITIVE,
}


@dataclass
class PrecisionPolicy:
    """Runtime precision configuration — the NumPy analogue of ``ns``.

    ``policy.ns`` is the dtype of insensitive terms: ``float64`` in the
    DP configuration, ``float32`` in the MIXED configuration.  Sensitive
    terms always use float64.  Solver code asks the policy for the dtype
    of each named term; unknown terms default to sensitive (safe).
    """

    mixed: bool = False
    sensitivity: dict[str, TermSensitivity] = field(
        default_factory=lambda: dict(GRIST_SENSITIVITY)
    )

    @property
    def ns(self) -> np.dtype:
        """The ``ns`` kind: dtype of precision-insensitive variables."""
        return np.dtype(np.float32 if self.mixed else np.float64)

    @property
    def dp(self) -> np.dtype:
        """Sensitive terms are always double precision."""
        return np.dtype(np.float64)

    def dtype_of(self, term: str) -> np.dtype:
        sens = self.sensitivity.get(term, TermSensitivity.SENSITIVE)
        return self.dp if sens is TermSensitivity.SENSITIVE else self.ns

    def cast(self, term: str, array: np.ndarray) -> np.ndarray:
        """On-the-fly precision conversion of a term (section 3.4.3)."""
        return array.astype(self.dtype_of(term), copy=False)

    def demoted_terms(self) -> list[str]:
        """Terms that actually run in FP32 under the current config."""
        if not self.mixed:
            return []
        return [
            t for t, s in self.sensitivity.items()
            if s is TermSensitivity.INSENSITIVE
        ]


def is_sensitive(term: str, sensitivity: dict | None = None) -> bool:
    """Whether ``term`` must stay double precision.

    Unknown terms default to sensitive — the same safe fallback as
    :meth:`PrecisionPolicy.dtype_of`.  The static analyzer's SW006 rule
    uses this to cross-check declared kernel access dtypes.
    """
    table = GRIST_SENSITIVITY if sensitivity is None else sensitivity
    return table.get(term, TermSensitivity.SENSITIVE) is TermSensitivity.SENSITIVE


#: Module-level default instance, mirroring the single global ``ns`` kind.
NS = PrecisionPolicy()
