"""Tests of the performance model and the scaling experiments: the
shapes the paper reports must emerge from the model."""

import numpy as np
import pytest

from repro.model.config import TABLE2_GRIDS, TABLE3_SCHEMES
from repro.perf.metrics import sdpd_from_step_time
from repro.perf.model import PerformanceModel, PerfParams
from repro.perf.scaling import (
    STRONG_SCALING_PROCS,
    WEAK_SCALING_LADDER,
    headline_numbers,
    strong_scaling_experiment,
    weak_scaling_experiment,
)


@pytest.fixture(scope="module")
def model():
    return PerformanceModel()


@pytest.fixture(scope="module")
def weak():
    return weak_scaling_experiment()


@pytest.fixture(scope="module")
def strong():
    return strong_scaling_experiment()


class TestMetrics:
    def test_sdpd_definition(self):
        # one dynamics step of 4 s taking 4 s of wall time = 1 SDPD.
        assert sdpd_from_step_time(4.0, 4.0) == pytest.approx(1.0)
        assert sdpd_from_step_time(0.4, 4.0) == pytest.approx(10.0)

    def test_invalid_step_time(self):
        with pytest.raises(ValueError):
            sdpd_from_step_time(0.0, 4.0)


class TestStepCost:
    def test_breakdown_sums(self, model):
        cost = model.step_cost(TABLE2_GRIDS["G12"], TABLE3_SCHEMES["MIX-ML"], 524288)
        assert cost.total > 0
        assert cost.kernels > 0 and cost.launch > 0 and cost.comm > 0
        assert 0.0 < cost.comm_fraction < 1.0

    def test_more_cells_cost_more(self, model):
        scheme = TABLE3_SCHEMES["MIX-ML"]
        c1 = model.step_cost(TABLE2_GRIDS["G12"], scheme, 524288)
        c2 = model.step_cost(TABLE2_GRIDS["G12"], scheme, 32768)
        assert c2.kernels > c1.kernels

    def test_dp_memory_cost_exceeds_mix(self, model):
        g = TABLE2_GRIDS["G12"]
        dp = model.step_cost(g, TABLE3_SCHEMES["DP-PHY"], 131072)
        mx = model.step_cost(g, TABLE3_SCHEMES["MIX-PHY"], 131072)
        assert dp.kernels > mx.kernels

    def test_ml_physics_cheaper_despite_more_flops(self, model):
        """Section 4.7: ML radiation needs ~2x RRTMG's FLOPs but runs at
        74-84% of peak vs 6% — so it is faster end to end."""
        p = model.params
        assert p.phys_ml_flops > p.phys_conv_flops
        g = TABLE2_GRIDS["G12"]
        conv = model.step_cost(g, TABLE3_SCHEMES["MIX-PHY"], 131072)
        ml = model.step_cost(g, TABLE3_SCHEMES["MIX-ML"], 131072)
        assert ml.physics < conv.physics

    def test_oversupplied_procs_rejected(self, model):
        with pytest.raises(ValueError):
            model.step_cost(TABLE2_GRIDS["G6"], TABLE3_SCHEMES["MIX-ML"], 524288)


class TestHeadlineNumbers:
    def test_abstract_claims(self):
        """'simulation speeds at 491 SDPD (3km) and 181 SDPD (1km)' and
        '0.5 simulated-year-per-day for 1km' — reproduced within ~25%."""
        h = headline_numbers()
        assert h["G11S_sdpd"] == pytest.approx(491.0, rel=0.25)
        assert h["G12_sdpd"] == pytest.approx(181.0, rel=0.25)
        assert h["G12_sypd"] == pytest.approx(0.5, rel=0.3)
        assert h["G11S_sypd"] == pytest.approx(1.35, rel=0.3)


class TestWeakScaling:
    def test_ladder_matches_fig10(self):
        assert WEAK_SCALING_LADDER[0] == ("G6", 128)
        assert WEAK_SCALING_LADDER[-1] == ("G12", 524288)

    def test_constant_per_cg_load(self):
        for grid_label, nprocs in WEAK_SCALING_LADDER:
            cells = TABLE2_GRIDS[grid_label].cells / nprocs
            assert cells == pytest.approx(320.0, rel=0.02)

    def test_efficiency_declines_monotonically(self, weak):
        for pts in weak.values():
            effs = [p.efficiency for p in pts]
            assert effs[0] == 1.0
            assert all(b <= a + 1e-9 for a, b in zip(effs, effs[1:]))
            assert 0.5 < effs[-1] < 0.9

    def test_comm_share_rises_19_to_37_percent(self, weak):
        """Section 4.7: 'The proportion of communication time rises from
        19% to 37%' — reproduce the band and the direction."""
        pts = weak["MIX-PHY"]
        assert pts[0].comm_fraction == pytest.approx(0.19, abs=0.05)
        assert pts[-1].comm_fraction == pytest.approx(0.37, abs=0.08)
        assert pts[-1].comm_fraction > pts[0].comm_fraction

    def test_drop_at_32768_cgs(self, weak):
        """'a clear drop of scalability at the scale of 32,768 CGs'."""
        pts = weak["MIX-PHY"]
        effs = {p.nprocs: p.efficiency for p in pts}
        drop_here = effs[8192] - effs[32768]
        drop_before = effs[2048] - effs[8192]
        assert drop_here > drop_before

    def test_ml_outperforms_conventional(self, weak):
        """Section 4.7: 'the AI-enhanced model (MIX-ML) outperforms the
        one with conventional parameterizations (MIX-PHY)'."""
        for ml, phy in zip(weak["MIX-ML"], weak["MIX-PHY"]):
            assert ml.sdpd > phy.sdpd


class TestStrongScaling:
    def test_proc_range_matches_fig11(self):
        assert STRONG_SCALING_PROCS[0] == 32768
        assert STRONG_SCALING_PROCS[-1] == 524288

    def test_sdpd_increases_with_procs(self, strong):
        for pts in strong.values():
            sdpds = [p.sdpd for p in pts]
            assert all(b > a for a, b in zip(sdpds, sdpds[1:]))

    def test_efficiency_decreases(self, strong):
        """G12: 'a continuous decrease in scaling efficiency'."""
        pts = strong[("G12", "MIX-ML")]
        effs = [p.efficiency for p in pts]
        assert all(b < a for a, b in zip(effs, effs[1:]))

    def test_scheme_ordering_at_scale(self, strong):
        """MIX > DP and ML > PHY at every G12 point."""
        for i in range(len(STRONG_SCALING_PROCS)):
            dp_phy = strong[("G12", "DP-PHY")][i].sdpd
            dp_ml = strong[("G12", "DP-ML")][i].sdpd
            mix_phy = strong[("G12", "MIX-PHY")][i].sdpd
            mix_ml = strong[("G12", "MIX-ML")][i].sdpd
            assert mix_ml > mix_phy > dp_phy
            assert dp_ml > dp_phy

    def test_g11s_diminishing_increments(self, strong):
        """G11S saturates: increments shrink toward the right of Fig. 11."""
        pts = strong[("G11S", "MIX-ML")]
        gains = [b.sdpd / a.sdpd for a, b in zip(pts, pts[1:])]
        assert gains[0] > gains[-1]
        assert gains[-1] > 1.0               # still improving at 524288

    def test_g11s_faster_than_g12(self, strong):
        for i in range(len(STRONG_SCALING_PROCS)):
            assert strong[("G11S", "MIX-ML")][i].sdpd > strong[("G12", "MIX-ML")][i].sdpd


class TestReuseModel:
    def test_reuse_steps_monotone(self):
        p = PerfParams()
        thresholds = [t for t, _ in p.reuse_steps]
        factors = [f for _, f in p.reuse_steps]
        assert thresholds == sorted(thresholds)
        assert factors == sorted(factors)
        assert all(0 < f <= 1 for f in factors)

    def test_reuse_factor_improves_at_small_slices(self, model):
        small = model._reuse_factor(80, 30, 4.5)
        large = model._reuse_factor(5120, 30, 4.5)
        assert small < large
