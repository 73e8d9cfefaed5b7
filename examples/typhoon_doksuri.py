"""The "23.7" extreme-rainfall experiment (paper Fig. 7), start to finish.

Runs the idealised landfalling-typhoon case at two horizontal
resolutions plus a finer reference run standing in for the CMPA
observations, and reports the paper's skill metric: the rain band's
spatial correlation against the reference, which must improve with
horizontal resolution.

Run:  python examples/typhoon_doksuri.py        (~1 minute)
"""

from repro.experiments.doksuri import (
    resolution_comparison,
    run_doksuri_case,
)


def main() -> None:
    print("Idealised super-typhoon rainfall experiment (Fig. 7 analogue)")
    print("=" * 62)

    # Individual case at the lower resolution, with rain-band stats.
    low = run_doksuri_case(level=3, nlev=8, hours=6.0)
    print(f"\nG3 run ({low.mesh.nc} cells): "
          f"min ps {low.min_ps:.0f} Pa, "
          f"rain-box mean {low.box_mean_mm_day:.2f} mm/day "
          f"(max {low.box_max_mm_day:.1f})")
    print(f"cloud-top temperature range: {low.cloud_top_temp.min():.0f}.."
          f"{low.cloud_top_temp.max():.0f} K")

    # The resolution comparison: G3 vs G4 against the G5 'CMPA' reference.
    print("\nresolution comparison (this is the Fig. 7 logic):")
    res = resolution_comparison(low_level=3, high_level=4, ref_level=5,
                                nlev=8, hours=6.0)
    print("  spatial correlation vs reference:")
    print(f"    low-res  (G11 analogue): r = {res['corr_low']:.3f}")
    print(f"    high-res (G12 analogue): r = {res['corr_high']:.3f}")
    print(f"  rain-box mean (mm/day): low {res['box_mean_low']:.2f} / "
          f"high {res['box_mean_high']:.2f} / ref {res['box_mean_ref']:.2f}")
    print(f"  cyclone depth (min ps): low {res['min_ps_low']:.0f} Pa / "
          f"high {res['min_ps_high']:.0f} Pa")

    verdict = "reproduced" if res["corr_high"] > res["corr_low"] else "NOT reproduced"
    print(f"\npaper's conclusion (higher horizontal resolution -> better "
          f"rain band): {verdict}")


if __name__ == "__main__":
    main()
