"""Weak and strong scaling experiment drivers (Figs. 10 and 11).

Weak scaling (Fig. 10): from 128 CGs on G6 to 524,288 CGs on G12 with the
G12 timestep everywhere, so every point carries ~320 cells per CG;
efficiency is ``P_N / P_128`` in SDPD (equation 1).

Strong scaling (Fig. 11): fixed global grids (G12 in all four schemes,
G11S in MIX-ML), 32,768 to 524,288 CGs; efficiency is
``(P_N / N) / (P_32768 / 32768)`` (equation 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.model.config import TABLE2_GRIDS, TABLE3_SCHEMES, GridConfig, SchemeConfig
from repro.perf.model import PerformanceModel


@dataclass
class ScalingPoint:
    nprocs: int
    cores: int
    grid_label: str
    scheme_label: str
    sdpd: float
    efficiency: float
    comm_fraction: float


#: Fig. 10's ladder: grid level -> CG count with constant per-CG load.
WEAK_SCALING_LADDER: tuple[tuple[str, int], ...] = (
    ("G6", 128),
    ("G8", 2048),
    ("G9", 8192),
    ("G10", 32768),
    ("G11W", 131072),
    ("G12", 524288),
)

#: Fig. 11's process counts.
STRONG_SCALING_PROCS: tuple[int, ...] = (32768, 65536, 131072, 262144, 524288)

CORES_PER_CG = 65


def _g12_timestep(grid: GridConfig) -> GridConfig:
    """Weak scaling keeps the G12 timestep on every grid (section 4.7)."""
    g12 = TABLE2_GRIDS["G12"]
    return replace(
        grid,
        dt_dyn=g12.dt_dyn,
        dt_tracer=g12.dt_tracer,
        dt_physics=g12.dt_physics,
        dt_radiation=g12.dt_radiation,
    )


def weak_scaling_experiment(
    schemes: tuple[str, ...] = ("MIX-PHY", "MIX-ML"),
    model: PerformanceModel | None = None,
) -> dict[str, list[ScalingPoint]]:
    """SDPD and efficiency along the Fig. 10 ladder, per scheme."""
    model = model or PerformanceModel()
    out: dict[str, list[ScalingPoint]] = {}
    for scheme_label in schemes:
        scheme = TABLE3_SCHEMES[scheme_label]
        points: list[ScalingPoint] = []
        base_sdpd = None
        for grid_label, nprocs in WEAK_SCALING_LADDER:
            grid = _g12_timestep(TABLE2_GRIDS[grid_label])
            cost = model.step_cost(grid, scheme, nprocs)
            sdpd = model.sdpd(grid, scheme, nprocs)
            if base_sdpd is None:
                base_sdpd = sdpd
            points.append(
                ScalingPoint(
                    nprocs=nprocs,
                    cores=nprocs * CORES_PER_CG,
                    grid_label=grid_label,
                    scheme_label=scheme_label,
                    sdpd=sdpd,
                    efficiency=sdpd / base_sdpd,
                    comm_fraction=cost.comm_fraction,
                )
            )
        out[scheme_label] = points
    return out


def strong_scaling_experiment(
    cases: tuple[tuple[str, str], ...] = (
        ("G12", "DP-PHY"),
        ("G12", "DP-ML"),
        ("G12", "MIX-PHY"),
        ("G12", "MIX-ML"),
        ("G11S", "MIX-ML"),
    ),
    procs: tuple[int, ...] = STRONG_SCALING_PROCS,
    model: PerformanceModel | None = None,
) -> dict[tuple[str, str], list[ScalingPoint]]:
    """SDPD and strong-scaling efficiency for the Fig. 11 cases."""
    model = model or PerformanceModel()
    out: dict[tuple[str, str], list[ScalingPoint]] = {}
    for grid_label, scheme_label in cases:
        grid = TABLE2_GRIDS[grid_label]
        scheme = TABLE3_SCHEMES[scheme_label]
        points: list[ScalingPoint] = []
        base = None
        for nprocs in procs:
            cost = model.step_cost(grid, scheme, nprocs)
            sdpd = model.sdpd(grid, scheme, nprocs)
            per_proc = sdpd / nprocs
            if base is None:
                base = per_proc
            points.append(
                ScalingPoint(
                    nprocs=nprocs,
                    cores=nprocs * CORES_PER_CG,
                    grid_label=grid_label,
                    scheme_label=scheme_label,
                    sdpd=sdpd,
                    efficiency=per_proc / base,
                    comm_fraction=cost.comm_fraction,
                )
            )
        out[(grid_label, scheme_label)] = points
    return out


def headline_numbers(
    model: PerformanceModel | None = None,
) -> dict[str, float]:
    """The abstract's headline speeds at 524,288 CGs (34M cores)."""
    model = model or PerformanceModel()
    mix_ml = TABLE3_SCHEMES["MIX-ML"]
    return {
        "G11S_sdpd": model.sdpd(TABLE2_GRIDS["G11S"], mix_ml, 524288),
        "G12_sdpd": model.sdpd(TABLE2_GRIDS["G12"], mix_ml, 524288),
        "G11S_sypd": model.sdpd(TABLE2_GRIDS["G11S"], mix_ml, 524288) / 365.0,
        "G12_sypd": model.sdpd(TABLE2_GRIDS["G12"], mix_ml, 524288) / 365.0,
    }
