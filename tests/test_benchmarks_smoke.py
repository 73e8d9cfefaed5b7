"""Smoke tests for every ``benchmarks/bench_*.py`` entry point.

The benchmark suite is not collected by the default test run (pyproject
``testpaths = ["tests"]``), so a refactor can silently break it.  These
tests import each bench module and execute its entry points with a stub
``benchmark`` fixture (one plain call, no timing) — full-size for the
fast modules, tiny-size drivers for the two long-running figure modules
(fig7/fig8) — asserting only that the outputs are well-formed.  The
scientific assertions inside the full-size tests still run where the
full sizes are used.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.dycore.vertical import VerticalCoordinate
from repro.ml.data import TABLE1_PERIODS


class StubBenchmark:
    """pytest-benchmark stand-in: runs the callable exactly once."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))


@pytest.fixture()
def stub():
    return StubBenchmark()


@pytest.fixture(scope="module")
def vcoord8():
    return VerticalCoordinate.stretched(8)


@pytest.fixture(scope="module")
def tiny_trained():
    """The smallest ML suite that trains: G2, one period, one epoch."""
    from benchmarks.bench_fig8_ml_physics import train_setup

    return train_setup(level=2, nlev=8, periods=TABLE1_PERIODS[:1],
                       hours_per_period=2, epochs=1, width=8, n_resunits=1)


class TestFastModulesFullSize:
    """Cheap modules run their real entry points end to end."""

    def test_bench_table2(self, stub):
        from benchmarks import bench_table2_grids as m

        m.test_table2_rows(stub)
        m.test_generated_meshes_match_formulas()

    def test_bench_table1(self, stub, mesh_g2, vcoord8):
        from benchmarks import bench_table1_training_data as m

        m.test_table1_periods(stub, mesh_g2, vcoord8)
        m.test_split_protocol_ratio(stub)

    def test_bench_fig9(self, stub, mesh_g3):
        from benchmarks import bench_fig9_kernels as m

        m.test_fig9_speedups(stub)
        m.test_fig9_cache_mechanism_measured(stub)
        m.test_fig9_real_kernel_execution(stub, mesh_g3)

    def test_bench_fig10(self, stub):
        from benchmarks import bench_fig10_weak_scaling as m

        m.test_fig10_weak_scaling(stub)

    def test_bench_fig11(self, stub):
        from benchmarks import bench_fig11_strong_scaling as m

        m.test_fig11_strong_scaling(stub)
        m.test_headline_sypd(stub)

    def test_bench_ablations(self, stub, mesh_g3):
        from benchmarks import bench_ablations as m

        m.test_ablation_halo_aggregation(stub, mesh_g3)
        m.test_ablation_bfs_reorder(stub, mesh_g3)
        m.test_ablation_insensitive_terms_tolerate_fp32(
            stub, "kinetic_energy_gradient"
        )
        m.test_ablation_full_mixed_within_threshold(stub)
        m.test_ablation_address_distribution_end_to_end(stub)

    def test_bench_table3(self, stub, mesh_g2, vcoord8):
        from benchmarks import bench_table3_schemes as m
        from repro.experiments.workflow import train_ml_suite

        trained = train_ml_suite(
            mesh_g2, vcoord8, periods=TABLE1_PERIODS[:1],
            hours_per_period=4, epochs=2, width=12, n_resunits=1,
        )
        m.test_table3_all_schemes(stub, mesh_g2, vcoord8, trained)


def test_every_bench_module_is_imported_here():
    """The opening claim of this file, checked: a ``bench_*.py`` added
    under ``benchmarks/`` without a smoke test here fails tier 1."""
    here = Path(__file__)
    imported = set(re.findall(
        r"from benchmarks(?: import |\.)(bench_\w+)", here.read_text()
    ))
    on_disk = {p.stem for p in (here.parent.parent / "benchmarks").glob("bench_*.py")}
    assert on_disk and on_disk == imported


class TestFigureDriversTinySize:
    """fig7/fig8 take minutes full-size; smoke their drivers tiny."""

    def test_fig7_comparison_driver(self):
        from benchmarks.bench_fig7_doksuri import run_comparison

        # hours must cover one physics interval at the coarsest level
        # (G2 needs ~3.5 h for a single physics step).
        res = run_comparison(low_level=2, high_level=3, ref_level=3,
                             nlev=4, hours=4.0)
        assert {"corr_low", "corr_high", "box_mean_low", "box_mean_high",
                "box_mean_ref", "min_ps_low", "min_ps_high"} <= set(res)
        for key, v in res.items():
            assert np.isfinite(v), key
        assert -1.0 <= res["corr_low"] <= 1.0
        assert -1.0 <= res["corr_high"] <= 1.0
        assert res["min_ps_low"] > 0.0 and res["min_ps_high"] > 0.0

    def test_fig7b_driver(self):
        from benchmarks.bench_fig7_doksuri import run_horizontal_vs_vertical

        corr_low, corr_high = run_horizontal_vs_vertical(
            low_level=2, low_nlev=8, high_level=3, high_nlev=4,
            ref_level=3, ref_nlev=4, hours=4.0,
        )
        assert np.isfinite(corr_low) and np.isfinite(corr_high)
        assert -1.0 <= corr_low <= 1.0
        # ref and high runs are identical at tiny size, so the correlation
        # is exactly 1.0 — unless the box rain is still constant (usually
        # all-zero this early), where spatial_correlation falls back to 0.0.
        assert corr_high == pytest.approx(1.0) or corr_high == 0.0

    def test_fig8ab_driver(self, tiny_trained):
        from benchmarks.bench_fig8_ml_physics import run_short_integration

        mesh, vc, trained = tiny_trained
        # run_hours must cover one G2 physics interval (~3.5 h) so each
        # suite records at least one precipitation snapshot.
        res = run_short_integration(mesh, vc, trained.suite,
                                    spinup_hours=2.0, run_hours=4.0, seed=1)
        assert {"conv_mean_mm_day", "ml_mean_mm_day", "pattern_correlation",
                "zonal_band_correlation"} <= set(res)
        assert res["conv_mean_mm_day"] >= 0.0
        assert res["ml_mean_mm_day"] >= 0.0
        assert np.isfinite(res["pattern_correlation"])

    def test_fig8cf_driver(self, tiny_trained):
        from benchmarks.bench_fig8_ml_physics import run_resolution_adaptive

        mesh, vc, trained = tiny_trained
        mesh3, res = run_resolution_adaptive(vc, trained.suite, level=3,
                                             hours=2.0, seed=2)
        assert mesh3.nc == 642
        assert np.isfinite(res.mean_precip).all()
        assert res.mean_precip.shape == (mesh3.nc,)
        assert res.mean_precip.min() >= 0.0

    def test_fig8_training_metadata(self, tiny_trained):
        _, _, trained = tiny_trained
        assert trained.n_train > 0 and trained.n_test > 0
        assert np.isfinite(trained.tendency_test_mse)
        assert np.isfinite(trained.radiation_test_mse)
