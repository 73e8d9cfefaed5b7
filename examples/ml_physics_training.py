"""Train and couple the ML physics suite (paper section 3.2), end to end.

1. Generate the synthetic GSRM archive over the four Table-1 periods
   (ENSO/MJO-modulated SSTs) with the conventional-physics model;
2. apply the paper's train/test protocol (3 random test steps per day,
   7:1 split);
3. train the Q1/Q2 tendency CNN (1-D conv + ResUnits) and the gsw/glw
   radiation MLP;
4. couple the trained suite through the physics-dynamics interface and
   compare short integrations against the conventional suite.

Run:  python examples/ml_physics_training.py     (~1 minute)
"""

from repro.dycore.vertical import VerticalCoordinate
from repro.experiments.climate import short_integration_comparison
from repro.experiments.workflow import train_ml_suite
from repro.grid import build_mesh
from repro.ml.data import TABLE1_PERIODS
from repro.ml.tendency_net import TendencyCNN


def main() -> None:
    mesh = build_mesh(level=2)          # 162 cells — fast demo scale
    vcoord = VerticalCoordinate.stretched(nlev=8)

    print("Table 1 training periods:")
    for p in TABLE1_PERIODS:
        print(f"  {p.time_period:22s} ONI {p.oni:+.1f} ({p.enso_phase}), "
              f"RMM {p.rmm_range[0]:.2f}..{p.rmm_range[1]:.2f}")

    print("\ngenerating archive + training (this runs the real model)...")
    trained = train_ml_suite(
        mesh, vcoord,
        periods=TABLE1_PERIODS,
        hours_per_period=12,
        epochs=6,
        width=24,                        # paper-size nets: width=128, 5 ResUnits
        n_resunits=2,
    )
    print(f"  samples: {trained.n_train} train / {trained.n_test} test "
          f"({trained.n_train / max(trained.n_test, 1):.1f}:1 split)")
    print(f"  tendency CNN:  {trained.tendency_net.n_params():,} params, "
          f"{trained.tendency_net.conv_layers} conv layers, "
          f"test MSE {trained.tendency_test_mse:.3f} (normalised)")
    print(f"  radiation MLP: {trained.radiation_net.n_params():,} params, "
          f"{trained.radiation_net.dense_layers} dense layers, "
          f"test MSE {trained.radiation_test_mse:.3f}")

    print("\ncoupling both suites from the same spun-up state (Fig. 8a,b)...")
    res = short_integration_comparison(mesh, vcoord, trained.suite,
                                       spinup_hours=24.0, run_hours=8.0)
    print(f"  mean rain: conventional {res['conv_mean_mm_day']:.2f} mm/day, "
          f"ML {res['ml_mean_mm_day']:.2f} mm/day")
    print(f"  rain pattern correlation: r = {res['pattern_correlation']:.3f}")
    print(f"  zonal band correlation:   r = {res['zonal_band_correlation']:.3f}")

    print("\nPaper-sized configuration (for reference): "
          "TendencyCNN(nlev=30) has "
          f"{TendencyCNN(30).n_params():,} "
          "parameters — 'close to half a million' (section 3.2.3).")


if __name__ == "__main__":
    main()
