"""Compiled stencil layer: declarative kernel specs + pluggable backends.

The dycore's horizontal operators are all instances of one pattern —
gather fields through a padded index table, combine with precomputed
per-mesh weights, reduce — so instead of eager per-call NumPy they are
described once as :class:`StencilSpec`\\ s and *compiled* per mesh into
kernel plans, mirroring the GT4Py/Pace stencil-spec + backend split
("Productive Performance Engineering for Weather and Climate Modeling
with Python", PAPERS.md).  Two backends exist:

``reference``
    Today's eager NumPy expressions, verbatim.  Bitwise identical to the
    pre-refactor operators; the oracle every other backend is judged
    against, selected by name where a test or probe needs it.

``fused``
    What runs (:data:`DEFAULT_BACKEND`).  Eliminates the per-call temporaries that make the reference path
    memory-bandwidth bound (Hoefler et al., "Towards Specialized
    Supercomputers for Climate Sciences"): gathers land in preallocated
    per-plan scratch via ``np.take(..., out=...)``, pad-zeroing is folded
    into the precomputed weights (pad lanes carry weight 0 instead of a
    scatter-mask pass), the area/count normalisations are folded into the
    gather weights, weighted reductions run as a single ``einsum``, and
    the 1-D flux divergence is rewritten from a padded gather into a
    ``np.bincount`` scatter-accumulate over precompiled flat index
    tables.

Selection
---------
:data:`DEFAULT_BACKEND` is the one decision.  A caller can override it
per core (``DycoreConfig.stencil_backend``; the core binds its mesh, so
bare ``ops.*(mesh, …)`` calls follow it) or per operator call
(``backend=``, for oracle comparisons); an unbound mesh gets the default.

Backend contract
----------------
Each spec declares its fused-vs-reference contract: ``tolerance == 0.0``
means bitwise (``np.array_equal``; linear gather/arithmetic kernels whose
fused form performs the identical operations in the identical order), a
positive ``tolerance`` is a scaled-infinity-norm bound
``max|fused - ref| <= tolerance * max|ref|`` (kernels whose fused form
folds a normalisation into the weights or reorders a summation).  That
is the float64 contract.  A float32 field (MIX's ``ns`` terms) runs the
same fused kernels through float32 weight tables and returns float32,
within :data:`FLOAT32_TOLERANCE` of ``reference`` — which multiplies the
float32 gather by float64 weights, so it answers the weighted operators
in float64.  Any other dtype, or ``ndim > 2``, raises ``TypeError``.

Thread-safety: compilation is guarded by a module lock and plans are
**immutable after publish** — every index/weight array, the fused
plan's per-dtype tables included, is built before the plan is attached
to the mesh, and lookups never mutate published state.  Fused *scratch*
buffers are single-consumer like the solver that owns the mesh: one
mesh = one solver stepping sequentially (the warm serve pool hands each
model to exactly one request at a time).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.grid.mesh import Mesh, PAD
from repro.obs import get_metrics

#: Contract value meaning "fused must equal reference bitwise".
BITWISE = 0.0

#: The float32 contract of every operator: scaled-inf-norm bound of
#: fused against ``reference`` on the same float32 field.
FLOAT32_TOLERANCE = 1e-6

#: The one backend decision: what a core compiles to unless its
#: ``DycoreConfig.stencil_backend`` (or a per-call ``backend=``) names
#: the ``reference`` oracle.
DEFAULT_BACKEND = "fused"


@dataclass(frozen=True)
class StencilSpec:
    """Declarative description of one horizontal operator.

    ``gathers``/``weights`` name the per-mesh index and weight tables the
    compiled plan materialises; ``arithmetic`` is the combine/reduce
    expression in index notation.  ``tolerance`` is the fused-backend
    float64 contract (:data:`BITWISE` or a scaled-inf-norm bound).
    ``ref_passes``/``fused_passes`` count full memory passes over
    output-sized arrays per call — the per-kernel hook the performance
    model uses to credit the fused backend's temporary elimination.
    """

    name: str
    gathers: tuple[str, ...]
    weights: tuple[str, ...]
    arithmetic: str
    tolerance: float = BITWISE
    ref_passes: int = 2
    fused_passes: int = 2


#: The compiled stencil registry: every public operator in
#: :mod:`repro.dycore.operators`.
STENCILS: dict[str, StencilSpec] = {
    s.name: s
    for s in (
        StencilSpec(
            "divergence", ("cell_edges",), ("div_w", "cell_area"),
            "div_i = (1/A_i) sum_k F[ce(i,k)] * sign(i,k) * le(i,k)",
            tolerance=1e-12, ref_passes=5, fused_passes=2,
        ),
        StencilSpec(
            "gradient", ("edge_cells",), ("de",),
            "g_e = (psi[c2(e)] - psi[c1(e)]) / de_e",
            tolerance=BITWISE, ref_passes=3, fused_passes=2,
        ),
        StencilSpec(
            "curl", ("vertex_edges",), ("curl_w", "vertex_area"),
            "zeta_v = (1/A_v) sum_k u[ve(v,k)] * sign(v,k) * de(v,k)",
            tolerance=1e-12, ref_passes=4, fused_passes=2,
        ),
        StencilSpec(
            "cell_to_edge", ("edge_cells",), (),
            "f_e = 0.5 (psi[c1(e)] + psi[c2(e)])",
            tolerance=BITWISE, ref_passes=3, fused_passes=2,
        ),
        StencilSpec(
            "cell_to_edge_upwind", ("edge_cells",), (),
            "f_e = psi[c1] if u_e >= 0 else psi[c2]",
            tolerance=BITWISE, ref_passes=3, fused_passes=2,
        ),
        StencilSpec(
            "vertex_to_edge", ("edge_vertices",), (),
            "f_e = 0.5 (psi[v1(e)] + psi[v2(e)])",
            tolerance=BITWISE, ref_passes=3, fused_passes=2,
        ),
        StencilSpec(
            "vertex_to_cell", ("cell_vertices",), ("v2c_mask", "v2c_count"),
            "f_i = sum_k psi[cv(i,k)] m(i,k) / n_i",
            tolerance=1e-12, ref_passes=5, fused_passes=2,
        ),
        StencilSpec(
            "reconstruct_cell_vectors", ("cell_edges",), ("cell_recon",),
            "U_i = sum_k R(i,:,k) u[ce(i,k)]",
            tolerance=BITWISE, ref_passes=4, fused_passes=2,
        ),
        StencilSpec(
            "tangential_velocity", ("cell_edges", "edge_cells"),
            ("cell_recon", "edge_tangent"),
            "vt_e = 0.5 (U[c1] + U[c2]) . t_e",
            tolerance=BITWISE, ref_passes=5, fused_passes=3,
        ),
        StencilSpec(
            "kinetic_energy", ("cell_edges",), ("cell_recon",),
            "K_i = 0.5 |U_i|^2",
            tolerance=BITWISE, ref_passes=4, fused_passes=2,
        ),
        StencilSpec(
            "laplacian_cell", ("edge_cells", "cell_edges"),
            ("de", "div_w", "cell_area"),
            "lap = div(grad(psi))",
            tolerance=1e-11, ref_passes=8, fused_passes=4,
        ),
        StencilSpec(
            "laplacian_edge", ("cell_edges", "vertex_edges", "edge_cells",
                               "edge_vertices"),
            ("div_w", "curl_w", "cell_area", "vertex_area", "de", "le"),
            "lap = grad(div(u)) - curl(curl(u))",
            tolerance=1e-11, ref_passes=15, fused_passes=8,
        ),
    )
}

#: Composite dycore kernels (MAJOR_KERNELS names) -> constituent stencils,
#: for the performance model's per-kernel traffic hook.  Kernels absent
#: here (pure element-wise ones) see no stencil-layer traffic change.
KERNEL_STENCILS: dict[str, tuple[str, ...]] = {
    "divergence": ("divergence",),
    "calc_coriolis_term": ("curl", "vertex_to_edge", "tangential_velocity"),
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
    if backend != "fused":
        return 1.0
    names = KERNEL_STENCILS.get(kernel_name)
    if not names:
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
        # Pad-annihilating gather weight: 1.0 at live lanes, 0.0 at pads.
        # Multiplying the clamped gather by this replaces the old per-call
        # boolean-mask scatter (``out[pad] = 0``) with one vectorised
        # multiply; identical up to the sign of zero in pad lanes, which
        # no consumer observes (pad lanes also carry zero operator
        # weight downstream).
        self.edge_gather_w = self.cell_edges_valid.astype(np.float64)

        ve = mesh.vertex_edges
        self.vertex_edges_idx = np.clip(ve, 0, None)
        de = np.where(ve >= 0, mesh.de[self.vertex_edges_idx], 0.0)
        self.curl_w = mesh.vertex_edge_sign * de              # (nv, 3)

        cv = mesh.cell_vertices
        self.cell_vertices_idx = np.clip(cv, 0, None)
        self.cell_vertices_valid = cv >= 0

        # Contiguous copies of the hot endpoint columns (the sliced
        # views have stride 2, which slows fancy indexing).
        self.edge_c1 = np.ascontiguousarray(mesh.edge_cells[:, 0])
        self.edge_c2 = np.ascontiguousarray(mesh.edge_cells[:, 1])
        self.edge_v1 = np.ascontiguousarray(mesh.edge_vertices[:, 0])
        self.edge_v2 = np.ascontiguousarray(mesh.edge_vertices[:, 1])

        # dtype -> (mask, clamped count) for vertex_to_cell.  Built
        # EAGERLY for the dtypes the precision policies use, so the dict
        # is never mutated after __init__ returns (immutable-after-
        # publish; the old lazy per-call fill raced under repro.serve).
        self._v2c_weights: dict = {
            np.dtype(np.float64): self._build_v2c(np.dtype(np.float64)),
            np.dtype(np.float32): self._build_v2c(np.dtype(np.float32)),
        }

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


def bind_stencil_backend(mesh: Mesh, backend: str) -> None:
    """Pin the backend bare operator calls on ``mesh`` dispatch to — how
    a core's ``DycoreConfig.stencil_backend`` reaches ``ops.*(mesh, …)``."""
    mesh._stencil_backend = resolve_backend_name(backend)


def bound_backend(mesh: Mesh) -> str:
    """The backend a bare operator call on ``mesh`` dispatches to."""
    return getattr(mesh, "_stencil_backend", DEFAULT_BACKEND)


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

    Plans are compiled once per (mesh, backend) under the compile lock
    and memoised on the mesh; repeated calls — and every operator call —
    return the same published plan object.
    """
    global _plan_compiles
    name = resolve_backend_name(backend) if backend else bound_backend(mesh)
    plans = getattr(mesh, "_stencil_plans", None)
    if plans is not None:
        plan = plans.get(name)
        if plan is not None:
            return plan
    with _COMPILE_LOCK:
        plans = getattr(mesh, "_stencil_plans", None)
        if plans is None:
            plans = {}
            mesh._stencil_plans = plans
        plan = plans.get(name)
        if plan is None:
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


# -- fused backend ---------------------------------------------------------

class FusedKernels(ReferenceKernels):
    """Temporary-eliminating backend: folded weights, ``out=`` scratch,
    single-``einsum`` reductions, ``bincount`` scatter-accumulate.

    One path for both policy dtypes: a kernel gathers, reduces and
    returns in its field's dtype through that dtype's weight tables;
    any other dtype, or ``ndim > 2``, is a ``TypeError``.  Scratch
    buffers are compiled per (name, shape, dtype) and are
    single-consumer (one mesh = one sequential solver).
    """

    backend = "fused"

    def __init__(self, mesh: Mesh, cache: OperatorCache):
        super().__init__(mesh, cache)
        # Folded weights: normalisation baked into the gather weight (one
        # einsum, no divide pass) in float64, then rounded once per policy
        # dtype — for float64 the cast is the identity, no copy.
        mask, cnt = cache.v2c_weights(np.dtype(np.float64))
        folded = {
            "div_w_fold": cache.div_w / mesh.cell_area[:, None],
            "curl_w_fold": cache.curl_w / mesh.vertex_area[:, None],
            "v2c_w_fold": mask / cnt[:, None],
            "inv_cell_area": 1.0 / mesh.cell_area,
            "de": mesh.de, "de_col": mesh.de[:, None],
            "le": mesh.le, "le_col": mesh.le[:, None],
            "cell_recon": mesh.cell_recon,
            "edge_tangent": mesh.edge_tangent,
        }
        self._tables = {
            np.dtype(dt): SimpleNamespace(
                **{k: v.astype(dt, copy=False) for k, v in folded.items()}
            )
            for dt in (np.float64, np.float32)
        }
        self._scratch: dict[tuple, np.ndarray] = {}
        self._lock = threading.Lock()

    # -- compiled resources ------------------------------------------------
    def _buf(self, name: str, shape: tuple, dtype: np.dtype) -> np.ndarray:
        key = (name, shape, dtype)
        buf = self._scratch.get(key)
        if buf is None:
            with self._lock:
                buf = self._scratch.get(key)
                if buf is None:
                    buf = np.empty(shape, dtype=dtype)
                    self._scratch[key] = buf
        return buf

    def _tables_for(self, op: str, field: np.ndarray) -> SimpleNamespace:
        t = self._tables.get(field.dtype)
        if t is None or field.ndim > 2:
            raise TypeError(
                f"fused {op}: expected a 1-D or 2-D float64/float32 field, "
                f"got {field.dtype} with ndim={field.ndim}"
            )
        return t

    def _take(self, field, idx, name):
        out = self._buf(name, idx.shape + field.shape[1:], field.dtype)
        np.take(field, idx, axis=0, out=out, mode="clip")
        return out

    # -- kernels -----------------------------------------------------------
    def divergence(self, flux_edge: np.ndarray) -> np.ndarray:
        t = self._tables_for("divergence", flux_edge)
        if flux_edge.ndim == 1:
            # Scatter-accumulate form: each edge pushes +-F*le to its two
            # cells; np.bincount replaces the padded gather entirely.  It
            # accumulates in float64 whatever the weights' dtype.
            nc = self.mesh.nc
            ebuf = self._buf("div_ebuf", flux_edge.shape, flux_edge.dtype)
            np.multiply(flux_edge, t.le, out=ebuf)
            acc = np.bincount(self.cache.edge_c1, weights=ebuf, minlength=nc)
            acc -= np.bincount(self.cache.edge_c2, weights=ebuf, minlength=nc)
            acc = acc.astype(flux_edge.dtype, copy=False)
            acc *= t.inv_cell_area
            return acc
        g = self._take(flux_edge, self.cache.cell_edges_idx, "div_gather")
        return np.einsum("ndl,nd->nl", g, t.div_w_fold)

    def gradient(self, cell_field: np.ndarray) -> np.ndarray:
        t = self._tables_for("gradient", cell_field)
        c = self.cache
        a = self._take(cell_field, c.edge_c2, "grad_a")
        b = self._take(cell_field, c.edge_c1, "grad_b")
        out = np.empty_like(a)
        np.subtract(a, b, out=out)
        de = t.de if out.ndim == 1 else t.de_col
        np.divide(out, de, out=out)
        return out

    def curl(self, u_edge: np.ndarray) -> np.ndarray:
        t = self._tables_for("curl", u_edge)
        g = self._take(u_edge, self.cache.vertex_edges_idx, "curl_gather")
        if g.ndim == 2:
            return np.einsum("nd,nd->n", g, t.curl_w_fold)
        return np.einsum("ndl,nd->nl", g, t.curl_w_fold)

    def _endpoint_mean(self, op, field, idx_a, idx_b):
        self._tables_for(op, field)
        a = self._take(field, idx_a, op + "_a")
        b = self._take(field, idx_b, op + "_b")
        out = np.empty_like(a)
        np.add(a, b, out=out)
        out *= 0.5
        return out

    def cell_to_edge(self, cell_field: np.ndarray) -> np.ndarray:
        c = self.cache
        return self._endpoint_mean("cell_to_edge", cell_field, c.edge_c1, c.edge_c2)

    def cell_to_edge_upwind(
        self, cell_field: np.ndarray, u_edge: np.ndarray
    ) -> np.ndarray:
        # Keyed on the advected field alone: ``u_edge`` is a sign mask (MIX
        # tracer transport passes float32 q with the float64 mean flux).
        self._tables_for("cell_to_edge_upwind", cell_field)
        c = self.cache
        a = self._take(cell_field, c.edge_c1, "up_a")
        b = self._take(cell_field, c.edge_c2, "up_b")
        return np.where(u_edge >= 0.0, a, b)

    def vertex_to_edge(self, vertex_field: np.ndarray) -> np.ndarray:
        c = self.cache
        return self._endpoint_mean("vertex_to_edge", vertex_field, c.edge_v1, c.edge_v2)

    def vertex_to_cell(self, vertex_field: np.ndarray) -> np.ndarray:
        t = self._tables_for("vertex_to_cell", vertex_field)
        g = self._take(vertex_field, self.cache.cell_vertices_idx, "v2c")
        if g.ndim == 2:
            return np.einsum("nd,nd->n", g, t.v2c_w_fold)
        return np.einsum("ndl,nd->nl", g, t.v2c_w_fold)

    def reconstruct_cell_vectors(self, u_edge: np.ndarray) -> np.ndarray:
        t = self._tables_for("reconstruct_cell_vectors", u_edge)
        # cell_recon is zero at invalid lanes (checked at compile), so
        # the reference's where-mask pass is redundant: 0-weight lanes
        # annihilate the clamped gather's garbage.
        g = self._take(u_edge, self.cache.cell_edges_idx, "recon")
        if g.ndim == 2:
            return np.einsum("nik,nk->ni", t.cell_recon, g)
        return np.einsum("nik,nkl->nil", t.cell_recon, g)

    def tangential_velocity(self, u_edge: np.ndarray) -> np.ndarray:
        t = self._tables_for("tangential_velocity", u_edge)
        c = self.cache
        vec = self.reconstruct_cell_vectors(u_edge)
        a = self._take(vec, c.edge_c1, "tang_a")
        b = self._take(vec, c.edge_c2, "tang_b")
        ve = self._buf("tang_ve", a.shape, a.dtype)
        np.add(a, b, out=ve)
        ve *= 0.5
        if ve.ndim == 2:
            return np.einsum("ej,ej->e", ve, t.edge_tangent)
        return np.einsum("ejl,ej->el", ve, t.edge_tangent)

    def laplacian_edge(self, u_edge: np.ndarray) -> np.ndarray:
        t = self._tables_for("laplacian_edge", u_edge)
        c = self.cache
        div = self.divergence(u_edge)
        zeta = self.curl(u_edge)
        grad_div = self.gradient(div)
        za = self._take(zeta, c.edge_v2, "lape_a")
        zb = self._take(zeta, c.edge_v1, "lape_b")
        le = t.le if u_edge.ndim == 1 else t.le_col
        cz = np.empty_like(grad_div)
        np.subtract(za, zb, out=cz)
        np.divide(cz, le, out=cz)
        np.subtract(grad_div, cz, out=cz)
        return cz


#: Registered backends (name -> plan class).
BACKENDS: dict[str, type] = {
    "reference": ReferenceKernels,
    "fused": FusedKernels,
}
