"""Quickstart: build a grid, assemble the model, simulate a day.

This walks the public API end to end in under a minute:

1. build the icosahedral hexagonal C-grid mesh;
2. set up the vertical coordinate and a moist tropical initial state;
3. assemble the coupled GRIST-style model (dycore + conventional
   physics, Table-3 scheme DP-PHY);
4. integrate 24 hours and print diagnostics.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.dycore.state import tropical_profile_state
from repro.dycore.vertical import VerticalCoordinate
from repro.grid import build_mesh
from repro.model import TABLE3_SCHEMES, GristModel, scaled_grid_config


def main() -> None:
    # 1. The horizontal mesh: icosahedral level 3 = 642 cells (~890 km).
    #    (The paper's G12 is the same construction at level 12: 167M cells.)
    mesh = build_mesh(level=3)
    print(f"mesh: {mesh.nc} cells, {mesh.ne} edges, {mesh.nv} vertices, "
          f"mean spacing {mesh.mean_spacing() / 1e3:.0f} km")

    # 2. Vertical coordinate (8 terrain-free sigma layers, 2.25 hPa top)
    #    and a conditionally unstable moist tropical state.
    vcoord = VerticalCoordinate.stretched(nlev=8)
    state = tropical_profile_state(mesh, vcoord, t_surface=297.0,
                                   rh_surface=0.85)
    # A little noise so convection has something to organise.
    rng = np.random.default_rng(0)
    state.theta = state.theta + 0.3 * rng.normal(size=state.theta.shape)

    # 3. The coupled model: grid/timestep config scaled to this level,
    #    double-precision dycore + conventional physics (Table 3 DP-PHY).
    grid_config = scaled_grid_config(level=3, nlev=8)
    model = GristModel(mesh, vcoord, grid_config, TABLE3_SCHEMES["DP-PHY"])
    print(f"timesteps: dyn {grid_config.dt_dyn:.0f} s, "
          f"tracer x{grid_config.tracer_ratio}, "
          f"physics x{grid_config.physics_ratio}, "
          f"radiation x{grid_config.radiation_ratio}")

    # 4. Simulate one day.
    mass0 = state.total_dry_mass()
    state = model.run_hours(state, 24.0)

    precip = model.history.mean_precip()
    print("\nafter 24 simulated hours:")
    print(f"  dry-mass conservation error: "
          f"{abs(state.total_dry_mass() - mass0) / mass0:.2e}")
    print(f"  max wind: {np.abs(state.u).max():.1f} m/s")
    print(f"  global-mean precipitation: {precip.mean() * 86400:.2f} mm/day "
          f"(max {precip.max() * 86400:.1f})")
    print(f"  mean skin temperature: {model.history.tskin_mean[-1]:.1f} K")
    d = model.dycore.diagnostics(state)
    print(f"  surface pressure range: {d['ps'].min():.0f}..{d['ps'].max():.0f} Pa")


if __name__ == "__main__":
    main()
