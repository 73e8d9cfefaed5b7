"""Compiled stencil layer: declarative kernel specs + pluggable backends.

The dycore's horizontal operators are all instances of one pattern —
gather fields through a padded index table, combine with precomputed
per-mesh weights, reduce — so instead of eager per-call NumPy they are
described once as :class:`StencilSpec`\\ s and *compiled* per mesh into
kernel plans, mirroring the GT4Py/Pace stencil-spec + backend split
("Productive Performance Engineering for Weather and Climate Modeling
with Python", PAPERS.md).  Two backends exist:

``reference``
    The eager NumPy expression of each operator, pinned bitwise by
    goldens; the oracle every other backend is judged against, selected
    by name where a test or probe needs it.

``fused``
    What runs (:data:`DEFAULT_BACKEND`).  Every operator is linear with a
    fixed per-mesh table — a sparse matrix — so the plan precomposes each
    stencil, and each linear *chain* of stencils (``grad∘div −
    curlᵀ∘curl``, ``v2e∘curl``, ``tangent·avg·recon``), into one CSR
    matrix per policy dtype at compile time.  A call is one
    ``csr @ field``: one read of the field's neighbourhood, one write, no
    gather transient (Ben-Nun et al.'s cross-stencil fusion against the
    memory traffic Hoefler et al. identify as the bound; PAPERS.md).
    Two rules keep it exact where the model needs it:

    * **lane order** — a row's entries are stored in the padded table's
      lane order (a composite's duplicates merged into the lane of first
      occurrence) and both dtypes share one unsorted ``indices`` array, so
      a row sums in the same order on a rank-local mesh as on the global
      one: every rank-independence test stays bitwise;
    * **difference before scale** — operators that annihilate constants
      (``gradient``, ``laplacian_cell``) apply a ±1 difference matrix and
      scale after; a ``Σ w_k ψ_k`` row whose weights cancel only to
      round-off breaks the exactly-steady rest states.

Selection: :data:`DEFAULT_BACKEND` is the one decision, and a backend is
only ever chosen by an argument: :func:`compiled_kernels` ``(mesh,
backend)`` returns the plan, ``None`` meaning the default.  A
``DynamicalCore`` compiles the plan its ``DycoreConfig.stencil_backend``
names, keeps it as ``core.kernels`` and hands that object to everything
it calls; nothing is selected through the mesh or any other shared
state, so cores of different backends can share one mesh.  Callers
outside a core hold the plan the same way
(``compiled_kernels(mesh, backend).curl(u)``).

Backend contract: fused agrees with ``reference`` per kernel and dtype
under the ``operator`` row of the test suite's contract table — bitwise
where the fused form performs the identical operations in the identical
order, a scaled-infinity-norm bound where a normalisation is folded into
the weights or a summation reordered.  A float32 field (MIX's ``ns``
terms) runs the same kernels through float32 tables and returns float32
(``reference`` promotes through its float64 weights).  Any other dtype,
or ``ndim > 2``, raises ``TypeError``.

Thread-safety: compilation is guarded by a module lock and plans are
**immutable after publish** — every table, the fused plan's per-dtype
matrices included, is built before the plan is attached to the mesh;
calls allocate their result and mutate nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.sparse import csr_matrix

from repro.grid.mesh import Mesh, PAD
from repro.obs import get_metrics

#: The dtypes the precision policies use; every per-dtype table is built
#: for exactly these at compile time.
POLICY_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

#: The one backend decision: what ``backend=None`` means, and so what a
#: core compiles to unless its ``DycoreConfig.stencil_backend`` names the
#: ``reference`` oracle.
DEFAULT_BACKEND = "fused"


@dataclass(frozen=True)
class StencilSpec:
    """Declarative description of one horizontal operator.

    ``gathers``/``weights`` name the per-mesh index and weight tables the
    compiled plan materialises; ``arithmetic`` is the combine/reduce
    expression in index notation.  ``ref_passes``/``fused_passes`` count full memory passes over
    output-sized arrays per call — the per-kernel hook the performance
    model uses to credit the fused backend.  A CSR SpMM is 2 (one read
    of the field's neighbourhood, one write, no gather transient); each
    further output-sized pass adds 1.  A composite's ``ref_passes`` is its
    reference composition's charge in units of the composite's own output.
    """

    name: str
    gathers: tuple[str, ...]
    weights: tuple[str, ...]
    arithmetic: str
    ref_passes: int = 2
    fused_passes: int = 2


_E4 = ("cell_edges", "vertex_edges", "edge_cells", "edge_vertices")
_W6 = ("div_w", "curl_w", "cell_area", "vertex_area", "de", "le")

#: The compiled stencil registry: every horizontal operator a plan
#: offers.  Fields in declaration order; the last two are
#: ``ref_passes, fused_passes``.
STENCILS: dict[str, StencilSpec] = {
    s.name: s
    for s in (
        StencilSpec("divergence", ("cell_edges",), ("div_w", "cell_area"),
                    "div_i = (1/A_i) sum_k F[ce(i,k)] * sign(i,k) * le(i,k)",
                    5, 2),
        StencilSpec("gradient", ("edge_cells",), ("de",),
                    "g_e = (psi[c2(e)] - psi[c1(e)]) / de_e", 3, 3),
        StencilSpec("curl", ("vertex_edges",), ("curl_w", "vertex_area"),
                    "zeta_v = (1/A_v) sum_k u[ve(v,k)] * sign(v,k) * de(v,k)",
                    4, 2),
        StencilSpec("cell_to_edge", ("edge_cells",), (),
                    "f_e = 0.5 (psi[c1(e)] + psi[c2(e)])", 3, 2),
        StencilSpec("cell_to_edge_upwind", ("edge_cells",), (),
                    "f_e = psi[c1] if u_e >= 0 else psi[c2]", 3, 3),
        StencilSpec("vertex_to_edge", ("edge_vertices",), (),
                    "f_e = 0.5 (psi[v1(e)] + psi[v2(e)])", 3, 2),
        StencilSpec("vertex_to_cell", ("cell_vertices",), ("v2c_mask", "v2c_count"),
                    "f_i = sum_k psi[cv(i,k)] m(i,k) / n_i", 5, 2),
        StencilSpec("reconstruct_cell_vectors", ("cell_edges",), ("cell_recon",),
                    "U_i = sum_k R(i,:,k) u[ce(i,k)]", 4, 2),
        StencilSpec("tangential_velocity", ("cell_edges", "edge_cells"),
                    ("cell_recon", "edge_tangent"),
                    "vt_e = 0.5 (U[c1] + U[c2]) . t_e", 5, 2),
        StencilSpec("kinetic_energy", ("cell_edges",), ("cell_recon",),
                    "K_i = 0.5 |U_i|^2", 4, 3),
        StencilSpec("laplacian_cell", ("edge_cells", "cell_edges"),
                    ("de", "div_w", "cell_area"),
                    "lap = (div . 1/de)(diff psi)", 8, 4),
        StencilSpec("laplacian_edge", _E4, _W6,
                    "lap = grad(div(u)) - curl(curl(u))", 15, 2),
        StencilSpec("vorticity_edge", ("vertex_edges", "edge_vertices"),
                    ("curl_w", "vertex_area"),
                    "zeta_e = 0.5 (curl(u)[v1(e)] + curl(u)[v2(e)])", 6, 2),
        StencilSpec("momentum_diffusion", _E4, _W6,
                    "d = nu lap_e(u) + nu_div grad(div(u))", 20, 2),
    )
}

#: Composite dycore kernels (MAJOR_KERNELS names) -> constituent stencils,
#: for the performance model's per-kernel traffic hook.  Kernels absent
#: here (pure element-wise ones) see no stencil-layer traffic change.
KERNEL_STENCILS: dict[str, tuple[str, ...]] = {
    "divergence": ("divergence",),
    "calc_coriolis_term": ("vorticity_edge", "tangential_velocity"),
    "tend_grad_ke_at_edge": ("kinetic_energy", "gradient"),
    "tracer_transport_hori_flux_limiter": (
        "cell_to_edge_upwind", "divergence", "cell_to_edge", "divergence",
    ),
}


def traffic_factor(kernel_name: str, backend: str) -> float:
    """Memory-traffic multiplier of ``kernel_name`` under ``backend``.

    The ratio of declared memory passes (fused vs reference) averaged
    over the kernel's constituent stencils; 1.0 for the reference
    backend and for kernels with no stencil constituents.
    """
    names = KERNEL_STENCILS.get(kernel_name)
    if backend != "fused" or not names:
        return 1.0
    ratios = [STENCILS[n].fused_passes / STENCILS[n].ref_passes for n in names]
    return float(sum(ratios) / len(ratios))


# -- the shared per-mesh index/weight cache --------------------------------

_COMPILE_LOCK = threading.RLock()


class OperatorCache:
    """Precomputed index/weight structure for one mesh.

    Built **once under the compile lock** and immutable after publish:
    every array — including the per-dtype ``vertex_to_cell`` weights for
    the two dtypes the precision policies use — exists before the cache
    is attached to the mesh, so concurrent readers (``repro.serve``
    threads sharing a warm model's mesh) never observe a partial build.
    """

    __slots__ = (
        "cell_edges_idx", "cell_edges_pad", "cell_edges_valid", "div_w",
        "edge_gather_w",
        "vertex_edges_idx", "curl_w",
        "cell_vertices_idx", "cell_vertices_valid",
        "cell_neighbor_lanes",
        "edge_c1", "edge_c2", "edge_v1", "edge_v2",
        "_v2c_weights",
    )

    def __init__(self, mesh: Mesh):
        ce = mesh.cell_edges
        self.cell_edges_idx = np.clip(ce, 0, None)
        self.cell_edges_pad = ce == PAD
        self.cell_edges_valid = ce >= 0
        le = np.where(ce >= 0, mesh.le[self.cell_edges_idx], 0.0)
        self.div_w = mesh.cell_edge_sign * le                 # (nc, D)
        # Pad-annihilating gather weight: 1.0 at live lanes, 0.0 at pads
        # (one multiply instead of a boolean-mask scatter ``out[pad] = 0``;
        # identical up to the sign of zero in pad lanes, which carry zero
        # operator weight downstream).
        self.edge_gather_w = self.cell_edges_valid.astype(np.float64)

        ve = mesh.vertex_edges
        self.vertex_edges_idx = np.clip(ve, 0, None)
        de = np.where(ve >= 0, mesh.de[self.vertex_edges_idx], 0.0)
        self.curl_w = mesh.vertex_edge_sign * de              # (nv, 3)

        cv = mesh.cell_vertices
        self.cell_vertices_idx = np.clip(cv, 0, None)
        self.cell_vertices_valid = cv >= 0

        # The tracer limiter's neighbourhood, lane-major (one contiguous
        # row per lane); a pad lane names the cell itself, which any
        # idempotent reduction over "cell and neighbours" folds in anyway.
        nbrs = mesh.cell_neighbors
        self.cell_neighbor_lanes = np.ascontiguousarray(
            np.where(nbrs == PAD, np.arange(mesh.nc)[:, None], nbrs).T
        )

        # Contiguous copies of the hot endpoint columns (the sliced
        # views have stride 2, which slows fancy indexing).
        self.edge_c1 = np.ascontiguousarray(mesh.edge_cells[:, 0])
        self.edge_c2 = np.ascontiguousarray(mesh.edge_cells[:, 1])
        self.edge_v1 = np.ascontiguousarray(mesh.edge_vertices[:, 0])
        self.edge_v2 = np.ascontiguousarray(mesh.edge_vertices[:, 1])

        # dtype -> (mask, clamped count) for vertex_to_cell, built eagerly
        # for the policy dtypes: never mutated after __init__ returns.
        self._v2c_weights: dict = {dt: self._build_v2c(dt) for dt in POLICY_DTYPES}

    def _build_v2c(self, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
        mask = self.cell_vertices_valid.astype(dtype)
        cnt = np.maximum(mask.sum(axis=1), 1.0)
        return (mask, cnt)

    def v2c_weights(self, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
        got = self._v2c_weights.get(np.dtype(dtype))
        if got is None:
            # Exotic dtype: compute fresh without mutating published
            # state (the cache must stay immutable after publish).
            return self._build_v2c(np.dtype(dtype))
        return got


# -- backend selection -----------------------------------------------------

def resolve_backend_name(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown stencil backend {name!r}; known: {sorted(BACKENDS)}"
        )
    return name


def mesh_cache(mesh: Mesh) -> OperatorCache:
    """The mesh's shared index/weight cache, compiled on first use
    under the module compile lock (double-checked publish)."""
    cache = getattr(mesh, "_op_cache", None)
    if cache is None:
        with _COMPILE_LOCK:
            cache = getattr(mesh, "_op_cache", None)
            if cache is None:
                cache = OperatorCache(mesh)
                mesh._op_cache = cache  # publish only when fully built
    return cache


#: Process-lifetime count of kernel-plan compilations (one per
#: (mesh, backend) pair ever compiled).  Monotone — callers measure
#: deltas rather than resetting, so concurrent measurements can only
#: over-count, never hide a compilation.
_plan_compiles = 0


def plan_compile_count() -> int:
    """Total stencil kernel-plan compilations in this process.

    The ensemble layer's sharing gate: a per-member loop on one warm
    model must cost exactly one plan compilation (delta == 1), never
    one per member.
    """
    return _plan_compiles


def compiled_kernels(mesh: Mesh, backend: str | None = None):
    """The compiled kernel plan of ``mesh`` for ``backend``.

    ``None`` is :data:`DEFAULT_BACKEND`.  Plans are compiled once per
    (mesh, backend) under the compile lock and memoised on the mesh;
    repeated calls — and every operator call — return the same published
    plan object.
    """
    global _plan_compiles
    name = DEFAULT_BACKEND if backend is None else resolve_backend_name(backend)
    plan = getattr(mesh, "_stencil_plans", {}).get(name)
    if plan is not None:
        return plan
    with _COMPILE_LOCK:
        plans = vars(mesh).setdefault("_stencil_plans", {})
        plan = plans.get(name)
        if plan is None:
            # A degenerate (zero-length) edge compiles to the inf weights
            # the eager forms would produce per call; not a compile error.
            with np.errstate(divide="ignore", invalid="ignore"):
                plan = BACKENDS[name](mesh, mesh_cache(mesh))
            plans[name] = plan  # publish only when fully built
            _plan_compiles += 1
            get_metrics().inc("stencil.plan_compilations")
    return plan


# -- reference backend -----------------------------------------------------

class ReferenceKernels:
    """The eager NumPy operators, verbatim — the bitwise oracle."""

    backend = "reference"

    def __init__(self, mesh: Mesh, cache: OperatorCache):
        self.mesh = mesh
        self.cache = cache

    # gather helper (pad lanes must read as zero)
    def gather_edges(self, edge_field: np.ndarray) -> np.ndarray:
        c = self.cache
        out = edge_field[c.cell_edges_idx]
        w = c.edge_gather_w
        out *= w.reshape(w.shape + (1,) * (out.ndim - 2))
        return out

    def divergence(self, flux_edge: np.ndarray) -> np.ndarray:
        gathered = self.gather_edges(flux_edge)          # (nc, D, ...)
        w = self.cache.div_w                             # (nc, D)
        extra = gathered.ndim - 2
        w = w.reshape(w.shape + (1,) * extra)
        acc = (gathered * w).sum(axis=1)
        area = self.mesh.cell_area.reshape((-1,) + (1,) * extra)
        return acc / area

    def gradient(self, cell_field: np.ndarray) -> np.ndarray:
        c = self.cache
        de = self.mesh.de.reshape((-1,) + (1,) * (cell_field.ndim - 1))
        return (cell_field[c.edge_c2] - cell_field[c.edge_c1]) / de

    def curl(self, u_edge: np.ndarray) -> np.ndarray:
        c = self.cache
        ue = u_edge[c.vertex_edges_idx]                  # (nv, 3, ...)
        w = c.curl_w
        extra = ue.ndim - 2
        w = w.reshape(w.shape + (1,) * extra)
        acc = (ue * w).sum(axis=1)
        area = self.mesh.vertex_area.reshape((-1,) + (1,) * extra)
        return acc / area

    def cell_to_edge(self, cell_field: np.ndarray) -> np.ndarray:
        c = self.cache
        return 0.5 * (cell_field[c.edge_c1] + cell_field[c.edge_c2])

    def cell_to_edge_upwind(
        self, cell_field: np.ndarray, u_edge: np.ndarray
    ) -> np.ndarray:
        c = self.cache
        return np.where(
            u_edge >= 0.0, cell_field[c.edge_c1], cell_field[c.edge_c2]
        )

    def vertex_to_edge(self, vertex_field: np.ndarray) -> np.ndarray:
        c = self.cache
        return 0.5 * (vertex_field[c.edge_v1] + vertex_field[c.edge_v2])

    def vertex_to_cell(self, vertex_field: np.ndarray) -> np.ndarray:
        c = self.cache
        vals = vertex_field[c.cell_vertices_idx]
        mask, cnt = c.v2c_weights(vals.dtype)
        extra = vals.ndim - 2
        mask = mask.reshape(mask.shape + (1,) * extra)
        s = (vals * mask).sum(axis=1)
        return s / cnt.reshape(cnt.shape + (1,) * extra)

    def reconstruct_cell_vectors(self, u_edge: np.ndarray) -> np.ndarray:
        c = self.cache
        ug = u_edge[c.cell_edges_idx]                    # (nc, D, ...)
        valid = c.cell_edges_valid
        ug = np.where(valid.reshape(valid.shape + (1,) * (ug.ndim - 2)), ug, 0.0)
        if ug.ndim == 2:
            return np.einsum("nik,nk->ni", self.mesh.cell_recon, ug)
        return np.einsum("nik,nkl->nil", self.mesh.cell_recon, ug)

    def tangential_velocity(self, u_edge: np.ndarray) -> np.ndarray:
        c = self.cache
        vec = self.reconstruct_cell_vectors(u_edge)      # (nc, 3[, nlev])
        ve = 0.5 * (vec[c.edge_c1] + vec[c.edge_c2])     # (ne, 3[, nlev])
        if ve.ndim == 2:
            return np.einsum("ej,ej->e", ve, self.mesh.edge_tangent)
        return np.einsum("ejl,ej->el", ve, self.mesh.edge_tangent)

    def kinetic_energy(self, u_edge: np.ndarray) -> np.ndarray:
        vec = self.reconstruct_cell_vectors(u_edge)
        if vec.ndim == 2:
            return 0.5 * np.einsum("ni,ni->n", vec, vec)
        return 0.5 * np.einsum("nil,nil->nl", vec, vec)

    def laplacian_cell(self, cell_field: np.ndarray) -> np.ndarray:
        return self.divergence(self.gradient(cell_field))

    def laplacian_edge(self, u_edge: np.ndarray) -> np.ndarray:
        c = self.cache
        div = self.divergence(u_edge)
        zeta = self.curl(u_edge)
        grad_div = self.gradient(div)
        le = self.mesh.le.reshape((-1,) + (1,) * (u_edge.ndim - 1))
        curl_zeta = (zeta[c.edge_v2] - zeta[c.edge_v1]) / le
        return grad_div - curl_zeta

    def vorticity_edge(self, u_edge: np.ndarray) -> np.ndarray:
        return self.vertex_to_edge(self.curl(u_edge))

    def diffusion_operator(self, nu: float, nu_div: float):
        """What :meth:`momentum_diffusion` applies, compiled per core."""
        return nu, nu_div

    def momentum_diffusion(self, u_edge: np.ndarray, operator) -> np.ndarray:
        nu, nu_div = operator
        grad_div = self.gradient(self.divergence(u_edge))
        return nu * self.laplacian_edge(u_edge) + nu_div * grad_div

    def signed_flux_sums(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell incoming (P+) and outgoing (P-) antidiffusive flux in
        the divergence operator's metric, so the tracer limiter is
        consistent with the update it limits."""
        c = self.cache         # div_w: sign * le, pads zeroed, outward positive
        signed = A[c.cell_edges_idx] * c.div_w[..., None]    # (nc, D, nlev)
        incoming = np.where(signed < 0.0, -signed, 0.0).sum(axis=1)
        outgoing = np.where(signed > 0.0, signed, 0.0).sum(axis=1)
        area = self.mesh.cell_area[:, None]
        return incoming / area, outgoing / area


# -- fused backend ---------------------------------------------------------

def _lanes(n_cols: int, idx: np.ndarray, w: np.ndarray) -> dict:
    """Per-dtype CSR matrices of a padded ``(n, L)`` index/weight table,
    row entries **in lane order**, ``PAD`` lanes dropped.  ``indptr`` and
    ``indices`` are shared by both dtypes; only ``data`` is cast."""
    valid = idx >= 0
    indptr = np.zeros(idx.shape[0] + 1, dtype=np.int32)
    np.cumsum(valid.sum(axis=1), out=indptr[1:])
    indices = idx[valid].astype(np.int32)
    data, shape = np.broadcast_to(w, idx.shape)[valid], (idx.shape[0], n_cols)
    return {
        dt: csr_matrix((data.astype(dt, copy=False), indices, indptr), shape=shape)
        for dt in POLICY_DTYPES
    }


def _through(idx_a, w_a, idx_b, w_b) -> tuple[np.ndarray, np.ndarray]:
    """Padded table of ``A @ B``: lane ``(k, l)`` of row ``i`` is lane
    ``l`` of B's row ``idx_a[i, k]``, weighted ``w_a[i, k] * w_b[.., l]``."""
    rows = np.clip(idx_a, 0, None)
    idx = np.where((idx_a >= 0)[:, :, None], idx_b[rows], PAD)
    w = np.broadcast_to(w_a, idx_a.shape)[:, :, None] * w_b[rows]
    return idx.reshape(len(idx), -1), w.reshape(len(idx), -1)


def _merge_lanes(idx: np.ndarray, *weights: np.ndarray) -> list[np.ndarray]:
    """Sum a padded table's duplicate columns, lane by lane, into the lane
    where the column first occurs and ``PAD`` the others — a function of
    each row's lane order only, never of how the columns are numbered."""
    # Lane-major copies: a lane is contiguous.
    idx, weights = idx.T.copy(), [w.T.copy() for w in weights]
    for lane in range(1, len(idx)):
        seen = idx[:lane] == idx[lane]
        rows = np.flatnonzero(seen.any(axis=0) & (idx[lane] >= 0))
        first = seen[:, rows].argmax(axis=0)
        for w in weights:
            w[first, rows] += w[lane, rows]
        idx[lane, rows] = PAD
    return [idx.T] + [w.T for w in weights]


class FusedKernels(ReferenceKernels):
    """Precomposed sparse operators: each stencil, and each linear chain
    of stencils, is one CSR matrix per policy dtype built at plan compile,
    and a call is one ``csr @ field`` for 1-D and 2-D fields alike, in the
    field's dtype; any other dtype, or ``ndim > 2``, is a ``TypeError``.
    The plan holds no mutable state."""

    backend = "fused"

    def __init__(self, mesh: Mesh, cache: OperatorCache):
        super().__init__(mesh, cache)
        ce, ve = mesh.cell_edges, mesh.vertex_edges
        # (c2, c1) / (v2, v1): the order the +-1 differences are taken in.
        ec, ev = mesh.edge_cells[:, ::-1], mesh.edge_vertices[:, ::-1]
        pm, half = np.array([1.0, -1.0]), np.array([0.5, 0.5])
        div_w = cache.div_w / mesh.cell_area[:, None]
        curl_w = cache.curl_w / mesh.vertex_area[:, None]
        mask, cnt = cache.v2c_weights(POLICY_DTYPES[0])
        # t . 0.5 (U[c1] + U[c2]) with U = R u, contracted over the three
        # components at compile time; explicit products, so a weight is
        # the same bits on a rank-local mesh as on the global one.
        recon, tang = mesh.cell_recon[ec], mesh.edge_tangent[:, None, :, None]
        tang_w = 0.5 * (
            tang[:, :, 0] * recon[:, :, 0] + tang[:, :, 1] * recon[:, :, 1]
            + tang[:, :, 2] * recon[:, :, 2]
        )
        # grad(div) and curl^T(curl) merged on their joint pattern once:
        # laplacian_edge and every momentum_diffusion operator are
        # weighted differences of the two weight tables.
        (gi, gw), (ci, cw) = (_through(ec, pm / mesh.de[:, None], ce, div_w),
                              _through(ev, pm / mesh.le[:, None], ve, curl_w))
        self._edge_lap = _merge_lanes(
            np.hstack([gi, ci]),
            np.hstack([gw, np.zeros_like(cw)]), np.hstack([np.zeros_like(gw), cw]),
        )
        tables = {
            "diff": _lanes(mesh.nc, ec, pm),
            "cell_to_edge": _lanes(mesh.nc, ec, half),
            "vertex_to_edge": _lanes(mesh.nv, ev, half),
            "divergence": _lanes(mesh.ne, ce, div_w),
            "curl": _lanes(mesh.ne, ve, curl_w),
            "vertex_to_cell": _lanes(mesh.nv, mesh.cell_vertices, mask / cnt[:, None]),
            "recon": _lanes(mesh.ne, np.repeat(ce, 3, axis=0),
                            mesh.cell_recon.reshape(-1, ce.shape[1])),
            "div_over_de": _lanes(mesh.ne, ce, div_w / mesh.de[cache.cell_edges_idx]),
            "laplacian_edge": self._edge_laplacian(1.0, 1.0),
            "tangential_velocity": _lanes(mesh.ne, *_merge_lanes(
                ce[ec].reshape(mesh.ne, -1), tang_w.reshape(mesh.ne, -1))),
            "vorticity_edge": _lanes(
                mesh.ne, *_merge_lanes(*_through(ev, half, ve, curl_w))),
            # Sign-split divergence weights for the tracer limiter.
            "flux_out": _lanes(mesh.ne, np.where(div_w > 0.0, ce, PAD), div_w),
            "flux_in": _lanes(mesh.ne, np.where(div_w < 0.0, ce, PAD), -div_w),
            "de": {dt: mesh.de.astype(dt, copy=False) for dt in POLICY_DTYPES},
        }
        self._tables = {
            dt: SimpleNamespace(**{k: v[dt] for k, v in tables.items()})
            for dt in POLICY_DTYPES
        }

    def _edge_laplacian(self, grad_div: float, curl_curl: float) -> dict:
        """``grad_div * grad(div) - curl_curl * curl^T(curl)`` as one matrix."""
        idx, gd, cc = self._edge_lap
        return _lanes(self.mesh.ne, idx, grad_div * gd - curl_curl * cc)

    def _tables_for(self, op: str, field: np.ndarray) -> SimpleNamespace:
        t = self._tables.get(field.dtype)
        if t is None or field.ndim > 2:
            raise TypeError(
                f"fused {op}: expected a 1-D or 2-D float64/float32 field, "
                f"got {field.dtype} with ndim={field.ndim}"
            )
        return t

    # -- kernels -----------------------------------------------------------
    def divergence(self, flux_edge: np.ndarray) -> np.ndarray:
        return self._tables_for("divergence", flux_edge).divergence @ flux_edge

    def gradient(self, cell_field: np.ndarray) -> np.ndarray:
        # Difference before scale: a constant field differences to exact
        # zeros, which a row of +-1/de weights only does to round-off.
        t = self._tables_for("gradient", cell_field)
        out = t.diff @ cell_field
        out /= t.de if out.ndim == 1 else t.de[:, None]
        return out

    def curl(self, u_edge: np.ndarray) -> np.ndarray:
        return self._tables_for("curl", u_edge).curl @ u_edge

    def cell_to_edge(self, cell_field: np.ndarray) -> np.ndarray:
        return self._tables_for("cell_to_edge", cell_field).cell_to_edge @ cell_field

    def cell_to_edge_upwind(self, cell_field: np.ndarray, u_edge: np.ndarray) -> np.ndarray:
        # A selection, not a sum: the reference form, keyed on the advected
        # field alone (``u_edge`` is a sign mask: MIX tracer transport
        # passes float32 q with the float64 mean flux).
        self._tables_for("cell_to_edge_upwind", cell_field)
        return super().cell_to_edge_upwind(cell_field, u_edge)

    def vertex_to_edge(self, vertex_field: np.ndarray) -> np.ndarray:
        return self._tables_for("vertex_to_edge", vertex_field).vertex_to_edge @ vertex_field

    def vertex_to_cell(self, vertex_field: np.ndarray) -> np.ndarray:
        return self._tables_for("vertex_to_cell", vertex_field).vertex_to_cell @ vertex_field

    def reconstruct_cell_vectors(self, u_edge: np.ndarray) -> np.ndarray:
        t = self._tables_for("reconstruct_cell_vectors", u_edge)
        return (t.recon @ u_edge).reshape((self.mesh.nc, 3) + u_edge.shape[1:])

    def tangential_velocity(self, u_edge: np.ndarray) -> np.ndarray:
        return self._tables_for("tangential_velocity", u_edge).tangential_velocity @ u_edge

    def vorticity_edge(self, u_edge: np.ndarray) -> np.ndarray:
        return self._tables_for("vorticity_edge", u_edge).vorticity_edge @ u_edge

    def laplacian_cell(self, cell_field: np.ndarray) -> np.ndarray:
        t = self._tables_for("laplacian_cell", cell_field)
        return t.div_over_de @ (t.diff @ cell_field)

    def laplacian_edge(self, u_edge: np.ndarray) -> np.ndarray:
        return self._tables_for("laplacian_edge", u_edge).laplacian_edge @ u_edge

    def diffusion_operator(self, nu: float, nu_div: float) -> dict:
        return self._edge_laplacian(nu + nu_div, nu)

    def momentum_diffusion(self, u_edge: np.ndarray, operator: dict) -> np.ndarray:
        self._tables_for("momentum_diffusion", u_edge)
        return operator[u_edge.dtype] @ u_edge

    def signed_flux_sums(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = self._tables_for("signed_flux_sums", A)
        pos, neg = np.maximum(A, 0.0), np.maximum(-A, 0.0)
        return (t.flux_out @ neg + t.flux_in @ pos,
                t.flux_out @ pos + t.flux_in @ neg)


#: Registered backends (name -> plan class).
BACKENDS: dict[str, type] = {
    "reference": ReferenceKernels,
    "fused": FusedKernels,
}
