"""Tour of the extension features beyond the paper's headline systems:

1. the hybrid sigma-pressure vertical coordinate (upper levels flatten
   onto pressure surfaces);
2. orographic flow over a bell mountain (terrain via the surface
   geopotential);
3. an ensemble of tendency networks with spread-based trust damping
   (the stabilisation idea of the paper's reference [13]).

Run:  python examples/advanced_features.py    (~40 s)
"""

import numpy as np

from repro.dycore.solver import DycoreConfig, DynamicalCore
from repro.dycore.state import mountain_flow_state
from repro.dycore.vertical import HybridVerticalCoordinate
from repro.grid import build_mesh
from repro.ml.ensemble import TendencyEnsemble


def main() -> None:
    mesh = build_mesh(3)

    # 1-2. Hybrid coordinate + mountain flow.
    hv = HybridVerticalCoordinate.standard(8)
    print("hybrid coordinate: B at interfaces =",
          np.round(hv.b_interfaces, 3))
    state = mountain_flow_state(mesh, hv, h0=1500.0)
    core = DynamicalCore(mesh, hv, DycoreConfig(dt=450.0))
    m0 = state.total_dry_mass()
    state = core.run(state, 48)
    print(f"mountain flow, 6 h on the hybrid coordinate: "
          f"max wind {np.abs(state.u).max():.1f} m/s, "
          f"mass error {abs(state.total_dry_mass() - m0) / m0:.1e}")

    # 3. Tendency-net ensemble with spread damping.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(400, 5, 8))
    y = np.stack([0.6 * x[:, 2] + 0.3 * x[:, 3], -0.5 * x[:, 3]], axis=1)
    ens = TendencyEnsemble(nlev=8, n_members=3, width=16, n_resunits=1)
    losses = ens.fit(x, y, epochs=10, lr=3e-3)
    print(f"\nensemble of {ens.n_members} tendency nets "
          f"({ens.n_params():,} params total), member losses "
          + ", ".join(f"{loss:.2f}" for loss in losses))
    _, spread_in = ens.predict_with_spread(x[:100])
    _, spread_out = ens.predict_with_spread(rng.normal(size=(100, 5, 8)) * 8.0)
    print(f"member spread: in-distribution {spread_in.mean():.3f}, "
          f"out-of-distribution {spread_out.mean():.3f} "
          "(spread flags extrapolation; predictions are damped there)")


if __name__ == "__main__":
    main()
