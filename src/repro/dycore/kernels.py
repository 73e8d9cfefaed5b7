"""Named kernel registry: Fig. 9's major kernels with Sunway cost specs.

Each entry pairs a *real* callable from the dycore with a
:class:`~repro.sunway.kernel.KernelSpec` describing its per-element work,
so the Fig. 9 benchmark can (a) execute the kernel on a real mesh and
(b) evaluate its simulated MPE/CPE timing under the four optimisation
variants (DP / DP+DST / MIX / MIX+DST).

Array counts were taken by reading each kernel's implementation (the
same way the paper's authors counted arrays per loop to diagnose
LDCache thrashing); flop counts are per (cell|edge, level) element.

Each spec also carries an :class:`~repro.analysis.access.AccessSpec` —
the declared read/write pattern per array (index expression, element
width under the MIX configuration, precision-classified term) consumed
by the static offload-plan analyzer (``repro lint``).  All writes are
chunk-local (``"i"``), all gathers stay within one halo ring, and every
demoted array's term is classified insensitive; the analyzer verifying
exactly that is the repo's clean-kernel regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.access import AccessSpec, ArrayAccess
from repro.dycore import tendencies as tnd
from repro.dycore.stencil import compiled_kernels
from repro.dycore.tracer import tracer_transport_hori_flux_limiter
from repro.grid.mesh import Mesh
from repro.sunway.kernel import KernelSpec


def _r(name, index="i", nbytes=8, term=None):
    return ArrayAccess(name, mode="r", index=index, bytes_per_elem=nbytes, term=term)


def _w(name, index="i", nbytes=8, term=None):
    return ArrayAccess(name, mode="w", index=index, bytes_per_elem=nbytes, term=term)


@dataclass(frozen=True)
class RegisteredKernel:
    """A dycore kernel with its Sunway cost description."""

    spec: KernelSpec
    #: element kind the work scales with ("edge" or "cell")
    element: str
    #: run(mesh, fields, kernels=None) -> ndarray; exercises the real
    #: implementation on the given compiled plan (None: mesh's default)
    run: Callable


def _run_flux_limiter(mesh: Mesh, f, kernels=None):
    return tracer_transport_hori_flux_limiter(
        mesh, f["q"], f["flux"], f["dpi"], f["dpi"], f["dt"], kernels=kernels
    )


def _run_compute_rrr(mesh: Mesh, f, kernels=None):
    return tnd.compute_rrr(mesh, f["dpi"], f["phi"])       # element-wise: no plan


def _run_primal_flux(mesh: Mesh, f, kernels=None):
    return tnd.primal_normal_flux_edge(mesh, f["dpi"], f["u"], kernels=kernels)


def _run_coriolis(mesh: Mesh, f, kernels=None):
    return tnd.calc_coriolis_term(mesh, f["u"], kernels=kernels)


def _run_grad_ke(mesh: Mesh, f, kernels=None):
    return tnd.tend_grad_ke_at_edge(mesh, f["u"], kernels=kernels)


def _run_divergence(mesh: Mesh, f, kernels=None):
    return (kernels or compiled_kernels(mesh)).divergence(f["flux"])


#: Fig. 9's kernel set (plus the two workhorse operators the figure's
#: bars implicitly cover through the dycore total).
MAJOR_KERNELS: dict[str, RegisteredKernel] = {
    "tracer_transport_hori_flux_limiter": RegisteredKernel(
        spec=KernelSpec(
            name="tracer_transport_hori_flux_limiter",
            flops_per_elem=34,
            arrays_streamed=9,          # q, flux, dpi x2, bounds x2, P/R sums
            divisions_per_elem=1.0,     # the R+/R- ratios
            vector_efficiency=0.28,
            mixed_data_fraction=0.90,   # limiter runs in ns precision
            mixed_flop_fraction=0.90,
            access=AccessSpec.of(
                _r("q", "nbr(i)", 4, "tracer_advection"),
                _r("flux", "i", 4, "tracer_advection"),
                _r("dpi_now", "nbr(i)"),
                _r("dpi_next", "nbr(i)"),
                _r("q_min", "nbr(i)", 4, "tracer_flux_limiter"),
                _r("q_max", "nbr(i)", 4, "tracer_flux_limiter"),
                _r("p_sum", "nbr(i)", 4, "tracer_flux_limiter"),
                _r("r_ratio", "nbr(i)", 4, "tracer_flux_limiter"),
                _w("flux_limited", "i", 4, "tracer_flux_limiter"),
            ),
        ),
        element="edge",
        run=_run_flux_limiter,
    ),
    "compute_rrr": RegisteredKernel(
        spec=KernelSpec(
            name="compute_rrr",
            flops_per_elem=22,
            arrays_streamed=8,          # dpi, phi(2 interfaces), rrr + temps
            divisions_per_elem=0.5,
            vector_efficiency=0.30,
            mixed_data_fraction=0.85,
            mixed_flop_fraction=0.85,
            access=AccessSpec.of(
                _r("dpi", "i"),
                _r("phi_below", "i"),
                _r("phi_above", "i"),
                _r("theta_m", "i", 4, "theta_divergence"),
                _r("exner", "i", 4, "theta_divergence"),
                _r("rk_weight", "i"),
                _r("column_scale", "i"),
                _w("rrr", "i", 4, "theta_divergence"),
            ),
        ),
        element="cell",
        run=_run_compute_rrr,
    ),
    "primal_normal_flux_edge": RegisteredKernel(
        spec=KernelSpec(
            name="primal_normal_flux_edge",
            flops_per_elem=24,
            arrays_streamed=6,          # dpi(c1), dpi(c2), u, de, flux, wgt
            divisions_per_elem=1.2,     # distance-weighted interpolation
            specials_per_elem=0.4,
            vector_efficiency=0.25,
            mixed_data_fraction=0.80,
            mixed_flop_fraction=0.90,
            access=AccessSpec.of(
                _r("dpi_c1", "nbr(i)"),
                _r("dpi_c2", "nbr(i)"),
                _r("u", "i", 4, "momentum_advection"),
                _r("edge_length", "i"),
                _r("interp_weight", "i"),
                # The accumulated dry-air mass flux stays double precision
                # ("requires double precision information", section 3.4.2).
                _w("mass_flux", "i", 8, "mass_flux_accumulation"),
            ),
        ),
        element="edge",
        run=_run_primal_flux,
    ),
    "calc_coriolis_term": RegisteredKernel(
        spec=KernelSpec(
            name="calc_coriolis_term",
            flops_per_elem=12,
            arrays_streamed=3,          # u, vt, f — few arrays, no thrash
            divisions_per_elem=0.0,
            vector_efficiency=0.35,
            mixed_data_fraction=0.0,    # "lacking mixed precision optimization"
            mixed_flop_fraction=0.0,
            access=AccessSpec.of(
                _r("u", "nbr(i)", 8, "coriolis_term"),
                _r("coriolis_f", "i"),
                _w("tend_u", "i", 8, "coriolis_term"),
            ),
        ),
        element="edge",
        run=_run_coriolis,
    ),
    "tend_grad_ke_at_edge": RegisteredKernel(
        spec=KernelSpec(
            name="tend_grad_ke_at_edge",
            flops_per_elem=10,
            arrays_streamed=5,          # ke(c1), ke(c2), de, edt_v, tend
            divisions_per_elem=1.0,     # the /(rearth*edt_leng) of Fig. 4
            vector_efficiency=0.32,
            mixed_data_fraction=0.85,
            mixed_flop_fraction=0.85,
            access=AccessSpec.of(
                _r("ke_c1", "nbr(i)", 4, "kinetic_energy_gradient"),
                _r("ke_c2", "nbr(i)", 4, "kinetic_energy_gradient"),
                _r("edt_v", "i"),
                _r("edt_leng", "i"),
                _w("tend_grad_ke", "i", 4, "kinetic_energy_gradient"),
            ),
        ),
        element="edge",
        run=_run_grad_ke,
    ),
    "divergence_operator": RegisteredKernel(
        spec=KernelSpec(
            name="divergence_operator",
            flops_per_elem=14,
            arrays_streamed=5,          # flux gather, sign, le, area, out
            divisions_per_elem=1.0,
            vector_efficiency=0.30,
            mixed_data_fraction=0.85,
            mixed_flop_fraction=0.85,
            access=AccessSpec.of(
                _r("flux", "nbr(i)", 4, "mass_divergence"),
                _r("edge_sign", "i"),
                _r("edge_leng", "i"),
                _r("cell_area", "i"),
                _w("div", "i", 4, "mass_divergence"),
            ),
        ),
        element="cell",
        run=_run_divergence,
    ),
}


def sample_fields(mesh: Mesh, nlev: int, seed: int = 0) -> dict:
    """Random-but-physical fields for exercising the kernels."""
    rng = np.random.default_rng(seed)
    dpi = np.full((mesh.nc, nlev), 1.0e4) * (1.0 + 0.01 * rng.normal(size=(mesh.nc, nlev)))
    u = 10.0 * rng.normal(size=(mesh.ne, nlev))
    phi = np.cumsum(np.full((mesh.nc, nlev + 1), 800.0 * 9.8), axis=1)[:, ::-1].copy()
    q = np.abs(rng.normal(size=(mesh.nc, nlev))) * 1e-3
    flux = dpi.mean() * 0.1 * rng.normal(size=(mesh.ne, nlev))
    return {"dpi": dpi, "u": u, "phi": phi, "q": q, "flux": flux, "dt": 60.0}


def n_elements(mesh: Mesh, kernel: RegisteredKernel, nlev: int) -> int:
    base = mesh.ne if kernel.element == "edge" else mesh.nc
    return base * nlev
