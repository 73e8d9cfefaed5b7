"""Climate-style run with history output and global budget monitoring.

Runs the coupled model on a warm aquaplanet-plus-continents setup for two
simulated days, writing history files (npz) and a restart file into a
temporary directory (removed when the run ends), and tracking the
conservation budgets the hierarchy of tests watches (dry mass exact;
energy drift bounded by the explicit diffusion).

Run:  python examples/aquaplanet_climate.py     (~30 s)
"""

import os
import tempfile

import numpy as np

from repro.dycore.diagnostics import BudgetMonitor
from repro.dycore.state import tropical_profile_state
from repro.dycore.vertical import VerticalCoordinate
from repro.experiments.climate import zonal_mean_precip
from repro.grid import build_mesh
from repro.model import TABLE3_SCHEMES, GristModel, scaled_grid_config
from repro.model.io import HistoryWriter, save_state
from repro.physics.surface import SurfaceModel, idealized_land_mask, idealized_sst


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro_climate_") as out_dir:
        run(out_dir)


def run(out_dir: str) -> None:
    mesh = build_mesh(3)
    vcoord = VerticalCoordinate.stretched(8)
    grid_cfg = scaled_grid_config(3, 8)
    surface = SurfaceModel(
        land_mask=idealized_land_mask(mesh.cell_lat, mesh.cell_lon),
        sst=idealized_sst(mesh.cell_lat) + 4.0,
    )
    model = GristModel(mesh, vcoord, grid_cfg, TABLE3_SCHEMES["DP-PHY"],
                       surface=surface)
    state = tropical_profile_state(mesh, vcoord, 297.0, rh_surface=0.85)
    rng = np.random.default_rng(0)
    state.theta = state.theta + 0.3 * rng.normal(size=state.theta.shape)

    writer = HistoryWriter(out_dir)
    monitor = BudgetMonitor()
    monitor.record(state)

    hours_total, window = 48.0, 6.0
    print(f"running {hours_total:.0f} h on G3 ({mesh.nc} cells), "
          f"history every {window:.0f} h -> {out_dir}")
    paths = []
    for _ in range(int(hours_total / window)):
        state = model.run_hours(state, window)
        b = monitor.record(state)
        precip = model.history.mean_precip().mean() * 86400.0
        writer.record(
            state.time,
            precip_mm_day=precip,
            tskin=model.history.tskin_mean[-1],
            total_energy=b.total_energy,
        )
        print(f"  t={state.time / 3600.0:5.1f} h  precip {precip:5.2f} mm/day  "
              f"tskin {model.history.tskin_mean[-1]:6.1f} K  "
              f"KE {b.kinetic_energy:.2e} J")
    paths.append(writer.flush())
    restart = os.path.join(out_dir, "restart.npz")
    save_state(restart, state)

    print("\nconservation over the run:")
    drift = monitor.summary()
    print(f"  dry mass:        {drift['dry_mass']:.2e}  (exact by construction)")
    print(f"  total energy:    {drift['total_energy']:.2e}")
    print(f"  axial ang. mom.: {drift['axial_angular_momentum']:.2e}")

    lats, prof = zonal_mean_precip(mesh, model.history.mean_precip(), nbins=9)
    print("\nzonal-mean precipitation (mm/day):")
    for lat, v in zip(lats, prof):
        bar = "#" * int(v * 86400.0 * 20)
        print(f"  {np.rad2deg(lat):6.1f}N  {v * 86400.0:5.2f} {bar}")
    print(f"\nhistory: {paths[0]}\nrestart: {restart}\n(both removed when the run ends)")


if __name__ == "__main__":
    main()
