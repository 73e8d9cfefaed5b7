"""Tests of the ns-type precision policy and deviation analysis."""

import numpy as np
import pytest

from repro.precision.analysis import (
    ACCURACY_THRESHOLD,
    DeviationTracker,
    relative_l2,
)
from repro.precision.policy import (
    GRIST_SENSITIVITY,
    PrecisionPolicy,
    TermSensitivity,
)


class TestPolicy:
    def test_dp_mode_everything_double(self):
        p = PrecisionPolicy(mixed=False)
        assert p.ns == np.float64
        for term in GRIST_SENSITIVITY:
            assert p.dtype_of(term) == np.float64
        assert p.demoted_terms() == []

    def test_mixed_mode_demotes_insensitive_only(self):
        p = PrecisionPolicy(mixed=True)
        assert p.ns == np.float32
        assert p.dtype_of("pressure_gradient") == np.float64
        assert p.dtype_of("gravity_term") == np.float64
        assert p.dtype_of("mass_flux_accumulation") == np.float64
        assert p.dtype_of("vertical_implicit_solve") == np.float64
        assert p.dtype_of("kinetic_energy_gradient") == np.float32
        assert p.dtype_of("tracer_advection") == np.float32
        assert p.dtype_of("coriolis_term") == np.float32

    def test_unknown_terms_default_sensitive(self):
        p = PrecisionPolicy(mixed=True)
        assert p.dtype_of("some_new_term") == np.float64

    def test_paper_classification_structure(self):
        """Section 3.4.2: PGF/gravity sensitive, advection insensitive,
        tracer transport almost entirely insensitive except mass flux."""
        s = GRIST_SENSITIVITY
        assert s["pressure_gradient"] is TermSensitivity.SENSITIVE
        assert s["gravity_term"] is TermSensitivity.SENSITIVE
        assert s["mass_flux_accumulation"] is TermSensitivity.SENSITIVE
        assert s["momentum_advection"] is TermSensitivity.INSENSITIVE
        assert s["tracer_advection"] is TermSensitivity.INSENSITIVE
        assert s["tracer_flux_limiter"] is TermSensitivity.INSENSITIVE

    def test_cast(self):
        p = PrecisionPolicy(mixed=True)
        x = np.ones(4, dtype=np.float64)
        y = p.cast("tracer_advection", x)
        assert y.dtype == np.float32
        z = p.cast("pressure_gradient", x)
        assert z is x                      # no copy when dtype matches


class TestRelativeL2:
    def test_identical_is_zero(self):
        x = np.arange(10.0)
        assert relative_l2(x, x) == 0.0

    def test_known_value(self):
        gold = np.array([3.0, 4.0])      # norm 5
        test = np.array([3.0, 4.5])      # diff norm 0.5
        assert relative_l2(test, gold) == pytest.approx(0.1)

    def test_zero_gold(self):
        assert relative_l2(np.zeros(3), np.zeros(3)) == 0.0
        assert relative_l2(np.ones(3), np.zeros(3)) == np.inf

    def test_fp32_roundtrip_is_small(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=1000)
        assert relative_l2(x.astype(np.float32), x) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_l2(np.zeros(3), np.zeros(4))


class TestDeviationTracker:
    def test_threshold_is_five_percent(self):
        assert ACCURACY_THRESHOLD == 0.05

    def test_passes_under_threshold(self):
        t = DeviationTracker()
        gold = np.array([1.0, 2.0, 3.0])
        t.record(gold * 1.01, gold, gold * 0.99, gold)
        assert t.passes()
        assert t.max_ps < 0.05

    def test_fails_over_threshold(self):
        t = DeviationTracker()
        gold = np.array([1.0, 2.0, 3.0])
        t.record(gold * 1.2, gold, gold, gold)
        assert not t.passes()

    def test_history_and_summary(self):
        t = DeviationTracker()
        gold = np.ones(5)
        for f in (1.0, 1.01, 1.02):
            t.record(gold * f, gold, gold, gold)
        s = t.summary()
        assert s["steps"] == 3
        assert s["passes"] is True
        assert s["max_ps_deviation"] == pytest.approx(0.02)
