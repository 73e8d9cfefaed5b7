"""Model state persistence and history output.

Restart files (full prognostic state, bit-exact roundtrip) and history
files (time series of diagnostics) in NumPy's npz container — the
self-describing stand-in for GRIST's NetCDF output.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.dycore.state import ModelState
from repro.dycore.vertical import HybridVerticalCoordinate, VerticalCoordinate
from repro.grid.mesh import Mesh

RESTART_FORMAT_VERSION = 1


def save_state(path: str, state: ModelState) -> None:
    """Write a restart file; the mesh is referenced by level, not stored.

    A hybrid coordinate also stores its A and B interfaces, so it comes
    back as the same class with the same layer masses.
    """
    arrays = {f"tracer_{k}": v for k, v in state.tracers.items()}
    if isinstance(state.vcoord, HybridVerticalCoordinate):
        arrays.update(a_interfaces=state.vcoord.a_interfaces,
                      b_interfaces=state.vcoord.b_interfaces)
    np.savez_compressed(
        path,
        format_version=RESTART_FORMAT_VERSION,
        level=state.mesh.level,
        radius=state.mesh.radius,
        nlev=state.vcoord.nlev,
        sigma_interfaces=state.vcoord.sigma_interfaces,
        ptop=state.vcoord.ptop,
        time=state.time,
        ps=state.ps,
        u=state.u,
        theta=state.theta,
        w=state.w,
        phi=state.phi,
        phi_surface=state.phi_surface,
        tracer_names=json.dumps(sorted(state.tracers)),
        **arrays,
    )


def load_state(path: str, mesh: Mesh | None = None) -> ModelState:
    """Read a restart file; rebuilds (or validates) the mesh."""
    with np.load(path, allow_pickle=False) as f:
        version = int(f["format_version"])
        if version != RESTART_FORMAT_VERSION:
            raise ValueError(f"unsupported restart format {version}")
        level = int(f["level"])
        radius = float(f["radius"])
        if mesh is None:
            from repro.grid import build_mesh

            mesh = build_mesh(level, radius)
        elif mesh.level != level:
            raise ValueError(
                f"mesh level {mesh.level} does not match restart level {level}"
            )
        if "a_interfaces" in f.files:
            vcoord = HybridVerticalCoordinate(
                f["a_interfaces"].copy(), f["b_interfaces"].copy(),
                ptop=float(f["ptop"]),
            )
        else:
            vcoord = VerticalCoordinate(
                sigma_interfaces=f["sigma_interfaces"].copy(), ptop=float(f["ptop"])
            )
        names = json.loads(str(f["tracer_names"]))
        tracers = {k: f[f"tracer_{k}"].copy() for k in names}
        state = ModelState(
            mesh=mesh,
            vcoord=vcoord,
            ps=f["ps"].copy(),
            u=f["u"].copy(),
            theta=f["theta"].copy(),
            w=f["w"].copy(),
            phi=f["phi"].copy(),
            phi_surface=f["phi_surface"].copy(),
            tracers=tracers,
            time=float(f["time"]),
        )
    if state.ps.shape != (mesh.nc,):
        raise ValueError("restart fields do not match the mesh size")
    return state


class HistoryWriter:
    """Append-style history output: named time series plus 2-D snapshots.

    Accumulates in memory and flushes to one npz per call to
    :meth:`flush` (GRIST writes one history file per output interval).
    """

    def __init__(self, out_dir: str, prefix: str = "history"):
        self.out_dir = out_dir
        self.prefix = prefix
        os.makedirs(out_dir, exist_ok=True)
        self._series: dict[str, list] = {}
        self._times: list[float] = []
        self._flushes = 0

    def record(self, time: float, **fields) -> None:
        """Record one output step's scalars/arrays; every step after the
        first must name the same fields.  A rejected call stores nothing."""
        if self._times and set(fields) != set(self._series):
            raise ValueError("all fields must be recorded at every step")
        self._times.append(time)
        for k, v in fields.items():
            self._series.setdefault(k, []).append(np.asarray(v))

    @property
    def n_records(self) -> int:
        return len(self._times)

    def flush(self) -> str:
        """Write the accumulated window and reset; returns the path."""
        path = os.path.join(
            self.out_dir, f"{self.prefix}.{self._flushes:04d}.npz"
        )
        payload = {"time": np.asarray(self._times)}
        for k, vals in self._series.items():
            payload[k] = np.stack(vals)
        np.savez_compressed(path, **payload)
        self._series.clear()
        self._times.clear()
        self._flushes += 1
        return path

    @staticmethod
    def read_series(paths: list[str], name: str) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate one variable's series across history files."""
        times, vals = [], []
        for p in paths:
            with np.load(p) as f:
                times.append(f["time"])
                vals.append(f[name])
        return np.concatenate(times), np.concatenate(vals)
