"""Compiled stencil layer: backend equivalence, contracts, and the
operator-cache/hot-loop bugfix regressions.

* the ``reference`` backend is pinned **bitwise** against inline copies
  of the pre-refactor eager-NumPy operators (the goldens);
* the ``fused`` backend is pinned against ``reference`` per kernel and
  per dtype: float64 under the spec's declared contract — bitwise for
  the two-point difference/mean kernels, a scaled-inf-norm tolerance
  where the precomposed matrix folds a normalisation into the weights or
  reorders a summation — and float32 under ``FLOAT32_TOLERANCE``;
* the two traps of the precomposed form are pinned: every plan method is
  bitwise rank-independent on owned entities, and the operators that
  annihilate constants return exact zeros;
* the mimetic identities re-run per backend;
* the operator cache compiles exactly once under thread hammering and is
  immutable after publish;
* the three named hot-loop bugfixes each carry a regression test.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dycore import operators as ops
from repro.dycore import stencil as stc
from repro.dycore import tendencies as tend
from repro.grid.mesh import PAD, build_mesh
from repro.precision.policy import NS, PrecisionPolicy

BACKENDS = sorted(stc.BACKENDS)


@pytest.fixture(scope="module")
def mesh3():
    return build_mesh(3)


@pytest.fixture(scope="module")
def mesh4():
    return build_mesh(4)


def _fields(mesh, seed, nlev, dtype=np.float64):
    rng = np.random.default_rng(seed)
    shape = (nlev,) if nlev else ()
    return {
        "edge": rng.normal(size=(mesh.ne,) + shape).astype(dtype),
        "cell": rng.normal(size=(mesh.nc,) + shape).astype(dtype),
        "vertex": rng.normal(size=(mesh.nv,) + shape).astype(dtype),
    }


#: public operator -> (input staggering kinds; a float is passed as is)
OPERATORS = {
    "divergence": ("edge",),
    "gradient": ("cell",),
    "curl": ("edge",),
    "cell_to_edge": ("cell",),
    "cell_to_edge_upwind": ("cell", "edge"),
    "vertex_to_edge": ("vertex",),
    "vertex_to_cell": ("vertex",),
    "reconstruct_cell_vectors": ("edge",),
    "tangential_velocity": ("edge",),
    "kinetic_energy": ("edge",),
    "laplacian_cell": ("cell",),
    "laplacian_edge": ("edge",),
    "vorticity_edge": ("edge",),
    "momentum_diffusion": ("edge", 3.0e5, 1.1e6),
}

#: staggering of each operator's result (the rank-independence test
#: compares on the owned entities of that kind)
OUTPUT_KIND = {
    "divergence": "cell", "gradient": "edge", "curl": "vertex",
    "cell_to_edge": "edge", "cell_to_edge_upwind": "edge",
    "vertex_to_edge": "edge", "vertex_to_cell": "cell",
    "reconstruct_cell_vectors": "cell", "tangential_velocity": "edge",
    "kinetic_energy": "cell", "laplacian_cell": "cell",
    "laplacian_edge": "edge", "vorticity_edge": "edge",
    "momentum_diffusion": "edge",
}


def _call(name, mesh, fields, backend):
    fn = getattr(ops, name)
    args = [fields[k] if isinstance(k, str) else k for k in OPERATORS[name]]
    return fn(mesh, *args, backend=backend)


def _assert_contract(name, mesh, seed, nlev):
    """Fused vs reference on the same fields, once per policy dtype:
    float64 under the spec's own contract, float32 under the one
    ``FLOAT32_TOLERANCE`` — and the fused result keeps its input dtype."""
    for dtype in (np.float64, np.float32):
        f = _fields(mesh, seed, nlev, dtype)
        ref = _call(name, mesh, f, "reference")
        fused = _call(name, mesh, f, "fused")
        assert fused.dtype == dtype, f"{name}: {dtype.__name__} in, {fused.dtype} out"
        tol = stc.STENCILS[name].tolerance if dtype is np.float64 else stc.FLOAT32_TOLERANCE
        if tol == stc.BITWISE:
            assert np.array_equal(ref, fused), f"{name}: fused not bitwise"
        else:
            bound = tol * max(float(np.abs(ref).max()), 1e-300)
            err = float(np.abs(fused - ref).max())
            assert err <= bound, (
                f"{name}[{dtype.__name__}]: |fused-ref|={err:.3e} > {bound:.3e}"
            )


# -- pre-refactor goldens (the old eager implementations, verbatim) --------

def _legacy_gather_edges(mesh, edge_field):
    c = stc.mesh_cache(mesh)
    out = edge_field[c.cell_edges_idx]
    out[c.cell_edges_pad] = 0.0
    return out


def _legacy_divergence(mesh, flux_edge):
    gathered = _legacy_gather_edges(mesh, flux_edge)
    w = stc.mesh_cache(mesh).div_w
    extra = gathered.ndim - 2
    w = w.reshape(w.shape + (1,) * extra)
    acc = (gathered * w).sum(axis=1)
    area = mesh.cell_area.reshape((-1,) + (1,) * extra)
    return acc / area


def _legacy_curl(mesh, u_edge):
    c = stc.mesh_cache(mesh)
    ue = u_edge[c.vertex_edges_idx]
    w = c.curl_w
    extra = ue.ndim - 2
    w = w.reshape(w.shape + (1,) * extra)
    acc = (ue * w).sum(axis=1)
    area = mesh.vertex_area.reshape((-1,) + (1,) * extra)
    return acc / area


def _legacy_vertex_to_cell(mesh, vertex_field):
    c = stc.mesh_cache(mesh)
    vals = vertex_field[c.cell_vertices_idx]
    mask = c.cell_vertices_valid.astype(vals.dtype)
    cnt = np.maximum(mask.sum(axis=1), 1.0)
    extra = vals.ndim - 2
    mask = mask.reshape(mask.shape + (1,) * extra)
    s = (vals * mask).sum(axis=1)
    return s / cnt.reshape(cnt.shape + (1,) * extra)


def _legacy_reconstruct(mesh, u_edge):
    c = stc.mesh_cache(mesh)
    ug = u_edge[c.cell_edges_idx]
    valid = c.cell_edges_valid
    ug = np.where(valid.reshape(valid.shape + (1,) * (ug.ndim - 2)), ug, 0.0)
    if ug.ndim == 2:
        return np.einsum("nik,nk->ni", mesh.cell_recon, ug)
    return np.einsum("nik,nkl->nil", mesh.cell_recon, ug)


class TestReferenceMatchesPreRefactorGoldens:
    """The reference backend is the pre-stencil eager path, bitwise."""

    @pytest.mark.parametrize("nlev", [0, 5])
    def test_gather_reduce_operators(self, mesh3, nlev):
        f = _fields(mesh3, 11, nlev)
        np.testing.assert_array_equal(
            ops.divergence(mesh3, f["edge"], backend="reference"),
            _legacy_divergence(mesh3, f["edge"]),
        )
        np.testing.assert_array_equal(
            ops.curl(mesh3, f["edge"], backend="reference"),
            _legacy_curl(mesh3, f["edge"]),
        )
        np.testing.assert_array_equal(
            ops.vertex_to_cell(mesh3, f["vertex"], backend="reference"),
            _legacy_vertex_to_cell(mesh3, f["vertex"]),
        )
        np.testing.assert_array_equal(
            ops.reconstruct_cell_vectors(mesh3, f["edge"], backend="reference"),
            _legacy_reconstruct(mesh3, f["edge"]),
        )

    @pytest.mark.parametrize("nlev", [0, 5])
    def test_point_operators(self, mesh3, nlev):
        f = _fields(mesh3, 12, nlev)
        c = stc.mesh_cache(mesh3)
        de = mesh3.de.reshape((-1,) + (1,) * (f["cell"].ndim - 1))
        np.testing.assert_array_equal(
            ops.gradient(mesh3, f["cell"], backend="reference"),
            (f["cell"][c.edge_c2] - f["cell"][c.edge_c1]) / de,
        )
        np.testing.assert_array_equal(
            ops.cell_to_edge(mesh3, f["cell"], backend="reference"),
            0.5 * (f["cell"][c.edge_c1] + f["cell"][c.edge_c2]),
        )
        np.testing.assert_array_equal(
            ops.cell_to_edge_upwind(mesh3, f["cell"], f["edge"], backend="reference"),
            np.where(f["edge"] >= 0.0, f["cell"][c.edge_c1], f["cell"][c.edge_c2]),
        )
        np.testing.assert_array_equal(
            ops.vertex_to_edge(mesh3, f["vertex"], backend="reference"),
            0.5 * (f["vertex"][c.edge_v1] + f["vertex"][c.edge_v2]),
        )


class TestBackendEquivalence:
    """Fused vs reference under each kernel's declared contract, for
    both policy dtypes, 1-D and 2-D fields."""

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    @pytest.mark.parametrize("nlev", [0, 6])
    def test_g3(self, mesh3, name, nlev):
        _assert_contract(name, mesh3, 21, nlev)

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_g4(self, mesh4, name):
        _assert_contract(name, mesh4, 22, 8)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_property_randomized(self, seed):
        mesh = build_mesh(2)
        for name in OPERATORS:
            _assert_contract(name, mesh, seed, 4)

    def test_fused_returns_fresh_arrays(self, mesh3):
        """The plan holds no scratch to alias: consecutive calls return
        distinct arrays (the solver keeps stage tendencies)."""
        f = _fields(mesh3, 23, 6)
        a = ops.divergence(mesh3, f["edge"], backend="fused")
        b = ops.divergence(mesh3, 2.0 * f["edge"], backend="fused")
        assert a is not b
        assert not np.shares_memory(a, b)
        np.testing.assert_allclose(2.0 * a, b, rtol=1e-12)

    def test_non_f64_dtypes_delegate_to_reference(self, mesh3):
        """(The id predates the per-dtype tables and is pinned.)  Fused
        float32 ``cell_to_edge`` delegates nowhere, yet still equals the
        reference bitwise: the same operations in the same order."""
        f32 = _fields(mesh3, 24, 5, np.float32)["cell"]
        ref = ops.cell_to_edge(mesh3, f32, backend="reference")
        fused = ops.cell_to_edge(mesh3, f32, backend="fused")
        assert fused.dtype == np.float32
        np.testing.assert_array_equal(ref, fused)

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_unsupported_inputs_raise(self, mesh3, name):
        """float32 in -> float32 out is part of ``_assert_contract``; a
        dtype that is neither policy dtype, or ``ndim == 3``, is a
        ``TypeError`` naming the fused kernel that refused it."""
        f = _fields(mesh3, 26, 5)
        for bad in (
            {k: v.astype(np.float16) for k, v in f.items()},
            {k: v.astype(np.int64) for k, v in f.items()},
            {k: v[..., None] for k, v in f.items()},
        ):
            with pytest.raises(TypeError, match=r"^fused \w+: expected"):
                _call(name, mesh3, bad, "fused")

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_interleaved_dtypes_never_share_scratch(self, mesh3, name):
        """f64, f32, f64 on one plan (the id predates the stateless
        plan): the float32 call in the middle leaves the float64 result
        unchanged."""
        f64 = _fields(mesh3, 27, 5)
        f32 = _fields(mesh3, 28, 5, np.float32)
        first = _call(name, mesh3, f64, "fused")
        middle = _call(name, mesh3, f32, "fused")
        third = _call(name, mesh3, f64, "fused")
        assert middle.dtype == np.float32
        assert first.dtype == third.dtype == np.float64
        np.testing.assert_array_equal(first, third)

    def test_optional_accelerators_degrade_silently(self, mesh3):
        """The fused backend needs nothing beyond NumPy."""
        f = _fields(mesh3, 25, 4)
        out = ops.laplacian_edge(mesh3, f["edge"], backend="fused")
        assert np.isfinite(out).all()


class TestPrecomposedOperatorTraps:
    """The two invariants a precomposed sparse operator can silently
    lose: row order as a function of lane order only, and exact
    annihilation of constants."""

    @pytest.fixture(scope="class")
    def decomposition(self, mesh3):
        from repro.parallel.localmesh import build_local_meshes
        from repro.partition.decomposition import decompose
        from repro.partition.graph import mesh_cell_graph
        from repro.partition.metis import partition_graph

        part = partition_graph(mesh_cell_graph(mesh3), 4, seed=0)
        return build_local_meshes(mesh3, decompose(mesh3, 4, part=part), part)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_rank_independent_on_owned_entities(self, mesh3, decomposition, name, dtype):
        """Each fused plan method on every rank-local mesh equals the
        global result bitwise wherever the rank owns the full stencil."""
        f = _fields(mesh3, 61, 5, dtype)
        want = _call(name, mesh3, f, "fused")
        for lm in decomposition:
            ids = {"cell": lm.cells, "edge": lm.edges, "vertex": lm.vertices}
            got = _call(name, lm.mesh, {k: f[k][ids[k]] for k in f}, "fused")
            cv = lm.mesh.cell_vertices[: lm.n_owned_cells]
            owned = {
                "cell": np.arange(lm.n_owned_cells),
                "edge": np.arange(lm.n_owned_edges),
                "vertex": np.unique(cv[cv != PAD]),
            }[OUTPUT_KIND[name]]
            assert got.dtype == dtype
            np.testing.assert_array_equal(
                got[owned], want[ids[OUTPUT_KIND[name]][owned]],
                err_msg=f"{name}[{dtype.__name__}] differs on rank {lm.rank}",
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("nlev", [0, 5])
    def test_constants_are_annihilated_exactly(self, mesh3, backend, dtype, nlev):
        """``gradient`` and ``laplacian_cell`` of a constant are exact
        zeros — difference before scale — not zeros to round-off."""
        const = np.full((mesh3.nc,) + ((nlev,) if nlev else ()), 300.1, dtype=dtype)
        for name in ("gradient", "laplacian_cell"):
            out = getattr(ops, name)(mesh3, const, backend=backend)
            assert not out.any(), f"{name}[{dtype.__name__}] left round-off"

    def test_both_dtypes_share_one_unsorted_index_array(self, mesh3):
        """``indptr``/``indices`` are shared by the float64 and float32
        tables (only ``data`` is cast), and no row was re-sorted."""
        plan = stc.compiled_kernels(mesh3, "fused")
        t64, t32 = (plan._tables[np.dtype(dt)] for dt in (np.float64, np.float32))
        for name, m64 in vars(t64).items():
            if name == "de":
                continue
            m32 = getattr(t32, name)
            assert np.shares_memory(m32.indices, m64.indices), name
            assert np.shares_memory(m32.indptr, m64.indptr), name
            assert m32.dtype == np.float32 and m64.dtype == np.float64
        lap = t64.laplacian_edge
        assert not lap.has_sorted_indices


class TestMimeticIdentitiesPerBackend:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_area_weighted_divergence_sums_to_zero(self, mesh3, backend):
        rng = np.random.default_rng(31)
        flux = rng.normal(size=(mesh3.ne, 4))
        div = ops.divergence(mesh3, flux, backend=backend)
        total = (div * mesh3.cell_area[:, None]).sum(axis=0)
        np.testing.assert_allclose(
            total, 0.0, atol=1e-6 * mesh3.cell_area.mean()
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_curl_of_gradient_vanishes(self, mesh3, backend):
        rng = np.random.default_rng(32)
        psi = rng.normal(size=mesh3.nc)
        g = ops.gradient(mesh3, psi, backend=backend)
        zeta = ops.curl(mesh3, g, backend=backend)
        scale = np.abs(g).max() / mesh3.de.mean()
        np.testing.assert_allclose(zeta, 0.0, atol=1e-10 * scale)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_constant_fields(self, mesh3, backend):
        np.testing.assert_allclose(
            ops.gradient(mesh3, np.full(mesh3.nc, 7.5), backend=backend),
            0.0, atol=1e-18,
        )
        np.testing.assert_allclose(
            ops.vertex_to_cell(mesh3, np.full(mesh3.nv, 2.0), backend=backend),
            2.0,
        )
        np.testing.assert_allclose(
            ops.cell_to_edge(mesh3, np.full(mesh3.nc, 3.0), backend=backend),
            3.0,
        )


class TestOperatorCacheThreadSafety:
    """Bugfix: lazy unsynchronized compile raced under ``repro.serve``."""

    def test_thread_hammer_single_compilation(self, monkeypatch):
        builds = []
        real_init = stc.OperatorCache.__init__

        def counting_init(self, mesh):
            builds.append(id(self))
            real_init(self, mesh)

        monkeypatch.setattr(stc.OperatorCache, "__init__", counting_init)
        mesh = build_mesh(2)
        n = 16
        barrier = threading.Barrier(n)
        results, errors = [], []

        def hammer(i):
            try:
                barrier.wait()
                cache = stc.mesh_cache(mesh)
                plan = stc.compiled_kernels(
                    mesh, "fused" if i % 2 else "reference"
                )
                w64 = cache.v2c_weights(np.float64)
                w32 = cache.v2c_weights(np.float32)
                results.append((id(cache), plan.backend, id(w64[0]), id(w32[0])))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(builds) == 1, "OperatorCache compiled more than once"
        assert len({cache_id for cache_id, *_ in results}) == 1
        # v2c weights are the same published objects for every thread.
        assert len({w for *_, w, _ in results}) == 1
        assert len({w for *_, w in results}) == 1
        # Exactly one plan per backend was published.
        assert sorted(mesh._stencil_plans) == ["fused", "reference"]

    def test_v2c_cache_immutable_after_publish(self, mesh3):
        cache = stc.mesh_cache(mesh3)
        published = dict(cache._v2c_weights)
        # Exotic dtype: computed fresh, never cached.
        mask16, cnt16 = cache.v2c_weights(np.float16)
        assert mask16.dtype == np.float16
        assert cache._v2c_weights == published
        # The policy dtypes were built eagerly at compile time.
        assert np.dtype(np.float64) in published
        assert np.dtype(np.float32) in published

    def test_plan_reused_across_calls(self, mesh3):
        p1 = stc.compiled_kernels(mesh3, "fused")
        ops.divergence(mesh3, np.zeros(mesh3.ne), backend="fused")
        assert stc.compiled_kernels(mesh3, "fused") is p1


class TestGatherEdgesPadWeight:
    """Bugfix: clamp-gather + boolean-scatter replaced by pad-weight."""

    @pytest.mark.parametrize("nlev", [0, 5])
    def test_matches_legacy_scatter(self, mesh3, nlev):
        f = _fields(mesh3, 41, nlev)
        got = stc.compiled_kernels(mesh3).gather_edges(f["edge"])
        np.testing.assert_array_equal(got, _legacy_gather_edges(mesh3, f["edge"]))

    def test_pad_lanes_read_zero(self, mesh3):
        rng = np.random.default_rng(42)
        # Edge 0 carries a huge value: the old clamp gathered it into
        # pad lanes before zeroing; the weight must annihilate it.
        field = rng.normal(size=mesh3.ne)
        field[0] = 1e300
        got = stc.compiled_kernels(mesh3).gather_edges(field)
        pad = mesh3.cell_edges == PAD
        assert pad.any()
        np.testing.assert_array_equal(got[pad], 0.0)

    def test_cached_pad_weight_matches_validity(self, mesh3):
        c = stc.mesh_cache(mesh3)
        np.testing.assert_array_equal(
            c.edge_gather_w, (mesh3.cell_edges >= 0).astype(np.float64)
        )


class TestPrimalFluxHalfConstant:
    """Bugfix: the runtime ``0.5 * de / de`` division is gone."""

    @pytest.mark.parametrize("mixed", [False, True])
    def test_bitwise_vs_old_expression(self, mesh3, mixed):
        policy = PrecisionPolicy(mixed=mixed)
        rng = np.random.default_rng(51)
        dpi = rng.lognormal(size=(mesh3.nc, 6)) * 1e3
        u = rng.normal(size=(mesh3.ne, 6))
        dt = policy.dtype_of("mass_divergence")
        c1, c2 = mesh3.edge_cells[:, 0], mesh3.edge_cells[:, 1]
        w1 = (0.5 * mesh3.de / mesh3.de)[:, None].astype(dt)  # the old form
        old = (
            w1 * dpi[c1].astype(dt) + (1.0 - w1) * dpi[c2].astype(dt)
        ) * u.astype(dt)
        new = tend.primal_normal_flux_edge(mesh3, dpi, u, policy)
        assert new.dtype == old.dtype
        np.testing.assert_array_equal(new, old)

    def test_degenerate_zero_length_edge_stays_finite(self):
        mesh = build_mesh(1)
        mesh.de[0] = 0.0  # a degenerate edge NaN-poisoned the old form
        rng = np.random.default_rng(52)
        dpi = rng.lognormal(size=(mesh.nc, 4)) * 1e3
        u = rng.normal(size=(mesh.ne, 4))
        F = tend.primal_normal_flux_edge(mesh, dpi, u, NS)
        assert np.isfinite(F).all()


class TestBackendSelection:
    def test_unknown_backend_rejected(self, mesh3):
        with pytest.raises(ValueError, match="unknown stencil backend"):
            ops.divergence(mesh3, np.zeros(mesh3.ne), backend="magic")

    def test_none_is_the_default_backend(self):
        assert stc.DEFAULT_BACKEND == "fused"
        mesh = build_mesh(1)
        ops.curl(mesh, np.zeros(mesh.ne))
        assert sorted(mesh._stencil_plans) == ["fused"]
        assert stc.compiled_kernels(mesh) is mesh._stencil_plans["fused"]

    @pytest.mark.parametrize("order", [BACKENDS, BACKENDS[::-1]],
                             ids=lambda order: f"{order[0]}-first")
    def test_backends_share_one_mesh(self, order):
        """A core computes with the plan it compiled, whatever other
        cores were built on its mesh before or after it: each backend's
        tendencies and 3-step state are bitwise those of the same core
        alone on a private mesh, and the mesh carries nothing but the
        plan memo and the operator cache."""
        from repro.dycore.solver import DycoreConfig, DynamicalCore
        from repro.dycore.state import solid_body_rotation_state
        from repro.dycore.vertical import VerticalCoordinate

        vc = VerticalCoordinate.uniform(6)

        def core_on(mesh, backend):
            return DynamicalCore(
                mesh, vc, DycoreConfig(dt=300.0, tracer_ratio=2, stencil_backend=backend)
            )

        def evolve(core):
            state = solid_body_rotation_state(core.mesh, vc)
            tds = core.compute_tendencies(state)
            for _ in range(3):
                state = core.step(state)
            out = {f"tend.{n}": getattr(tds, n) for n in ("ps", "u", "theta_mass", "flux_edge")}
            out.update({n: getattr(state, n) for n in ("ps", "u", "theta")})
            out.update({f"tracers[{n}]": q for n, q in state.tracers.items()})
            return out

        shared = build_mesh(2)
        bare = set(vars(shared))
        cores = {backend: core_on(shared, backend) for backend in order}
        assert set(vars(shared)) - bare == {"_op_cache", "_stencil_plans"}
        assert sorted(shared._stencil_plans) == BACKENDS
        for backend, core in cores.items():
            assert core.kernels is stc.compiled_kernels(shared, backend)
            got, alone = evolve(core), evolve(core_on(build_mesh(2), backend))
            for name, a in alone.items():
                assert np.array_equal(got[name], a), f"{backend}: {name}"
        assert set(vars(shared)) - bare == {"_op_cache", "_stencil_plans"}


class TestSolverPerBackend:
    def test_fused_step_tracks_reference_step(self):
        from repro.dycore.solver import DycoreConfig, DynamicalCore
        from repro.dycore.state import solid_body_rotation_state
        from repro.dycore.vertical import VerticalCoordinate

        vc = VerticalCoordinate.uniform(6)
        mesh = build_mesh(2)
        states = {}
        for backend in BACKENDS:
            core = DynamicalCore(
                mesh, vc, DycoreConfig(dt=300.0, stencil_backend=backend)
            )
            state = solid_body_rotation_state(mesh, vc)
            for _ in range(3):
                state = core.step(state)
            states[backend] = state
        ref, fus = states["reference"], states["fused"]
        for name in ("ps", "u", "theta"):
            a, b = getattr(ref, name), getattr(fus, name)
            scale = max(float(np.abs(a).max()), 1e-300)
            assert float(np.abs(a - b).max()) <= 1e-9 * scale, name

    @pytest.mark.parametrize("scheme", ["DP-PHY", "MIX-PHY"])
    def test_coupled_default_tracks_reference_oracle(self, scheme):
        """The default (fused) coupled model against the reference
        oracle over four tracer and two physics steps.  DP differs only
        by summation order; MIX runs its ``ns`` terms in float32 on the
        fused path where the oracle promotes them through float64
        weights, so it is held to the float32 bound (measured 2.4e-8 on
        ``u``, <= 1e-11 elsewhere)."""
        from repro.dycore.state import tropical_profile_state
        from repro.dycore.vertical import VerticalCoordinate
        from repro.model.config import TABLE3_SCHEMES, scaled_grid_config
        from repro.model.grist import GristModel

        vc = VerticalCoordinate.stretched(10)
        gc = scaled_grid_config(3, 10)
        assert (gc.tracer_ratio, gc.physics_ratio) == (6, 12)
        mesh = build_mesh(3)
        states = {}
        for kwargs in ({}, {"stencil_backend": "reference"}):
            model = GristModel(
                mesh, vc, gc, TABLE3_SCHEMES[scheme], dycore_kwargs=kwargs
            )
            backend = model.dycore.config.stencil_backend
            assert model.coupler.kernels is model.dycore.kernels
            assert model.dycore.kernels.backend == backend
            states[backend] = model.run(tropical_profile_state(mesh, vc), 24)
        ref, fus = states["reference"], states["fused"]
        tol, mass_tol = {
            "DP-PHY": (1e-10, 1e-14),
            "MIX-PHY": (stc.FLOAT32_TOLERANCE, 1e-12),
        }[scheme]
        fields = {n: (getattr(ref, n), getattr(fus, n))
                  for n in ("ps", "u", "theta", "w", "phi")}
        fields.update({n: (ref.tracers[n], fus.tracers[n]) for n in ref.tracers})
        for name, (a, b) in fields.items():
            scale = max(float(np.abs(a).max()), 1e-300)
            assert float(np.abs(a - b).max()) <= tol * scale, name
        assert fus.total_dry_mass() == pytest.approx(
            ref.total_dry_mass(), rel=mass_tol
        )

    @pytest.mark.parametrize("case", ["baroclinic", "tropical"])
    def test_mix_long_run_stays_finite_and_conserves_mass(self, case):
        """400 coupled G3L10 MIX-PHY steps stay finite with relative
        dry-mass drift <= 1e-9.  The continuity divergence of the float32
        mass flux is now itself float32, so the drift is no longer
        round-off of a float64 sum: it measures 2.0e-11 (baroclinic) /
        1.1e-12 (tropical) where the old float64-promoting delegation
        measured 0 / 2e-16."""
        from repro.dycore import state as states
        from repro.dycore.vertical import VerticalCoordinate
        from repro.model.config import TABLE3_SCHEMES, scaled_grid_config
        from repro.model.grist import GristModel

        mesh = build_mesh(3)
        vc = VerticalCoordinate.stretched(10)
        model = GristModel(
            mesh, vc, scaled_grid_config(3, 10), TABLE3_SCHEMES["MIX-PHY"]
        )
        start = {
            "baroclinic": states.baroclinic_wave_state,
            "tropical": states.tropical_profile_state,
        }[case](mesh, vc)
        m0 = start.total_dry_mass()
        end = model.run(start, 400)
        for name in ("ps", "u", "theta", "w", "phi"):
            assert np.isfinite(getattr(end, name)).all(), name
        for name, q in end.tracers.items():
            assert np.isfinite(q).all(), name
        assert abs(end.total_dry_mass() - m0) <= 1e-9 * m0


class TestKernelAnnotationsPerBackend:
    """The registered kernels' declared access patterns hold on both
    backends (same index tables), and the static lint stays clean."""

    def test_registered_kernels_agree_across_backends(self, mesh3):
        from repro.dycore.kernels import MAJOR_KERNELS, sample_fields

        fields = sample_fields(mesh3, nlev=6)
        for name, reg in MAJOR_KERNELS.items():
            ref = reg.run(mesh3, fields, kernels=stc.compiled_kernels(mesh3, "reference"))
            fused = reg.run(mesh3, fields)
            scale = max(float(np.abs(ref).max()), 1e-300)
            assert float(np.abs(fused - ref).max()) <= 1e-11 * scale, name

    def test_static_lint_clean_for_both_backends(self):
        from repro.analysis.report import lint_kernels

        # The offload-plan annotations are backend-independent (both
        # backends drive the same declared index tables), so the kernel
        # lint must stay clean regardless of the active default.
        errors = [d for d in lint_kernels() if d.severity.name == "ERROR"]
        assert errors == []


class TestPerfModelStencilHook:
    def test_traffic_factors(self):
        assert stc.traffic_factor("divergence", "reference") == 1.0
        assert stc.traffic_factor("divergence", "fused") < 1.0
        assert stc.traffic_factor("calc_coriolis_term", "fused") < 1.0
        assert stc.traffic_factor("compute_rrr", "fused") == 1.0
        for name, spec in stc.STENCILS.items():
            assert spec.fused_passes <= spec.ref_passes, name

    def test_fused_backend_never_predicts_slower(self):
        from repro.model.config import TABLE2_GRIDS, TABLE3_SCHEMES
        from repro.perf.model import PerformanceModel

        grid = next(iter(TABLE2_GRIDS.values()))
        scheme = next(iter(TABLE3_SCHEMES.values()))
        ref = PerformanceModel(stencil_backend="reference")
        fus = PerformanceModel(stencil_backend="fused")
        c_ref = ref.step_cost(grid, scheme, 64)
        c_fus = fus.step_cost(grid, scheme, 64)
        assert c_fus.kernels <= c_ref.kernels
        assert c_fus.total <= c_ref.total

    def test_unknown_backend_rejected(self):
        from repro.perf.model import PerformanceModel

        with pytest.raises(ValueError):
            PerformanceModel(stencil_backend="magic")


class TestServeWarmPlansReuse:
    """Warm pooled models reuse one immutable compiled plan set."""

    def test_pool_reuses_plans_and_stays_bitwise(self):
        from repro.serve.pool import ModelPool, make_member_state
        from repro.serve.request import ForecastRequest

        req = ForecastRequest(level=2, nlev=8, steps=3)
        pool = ModelPool(max_models=1)
        model = pool.acquire(req)
        assert model.dycore.kernels.backend == "fused"
        plans_first = model.mesh._stencil_plans["fused"]
        first = model.run(make_member_state(model, req, 0), req.steps)
        pool.release(req, model)

        again = pool.acquire(req)
        assert again is model, "expected the warm instance back"
        assert again.mesh._stencil_plans["fused"] is plans_first, (
            "compiled plans must survive reset() and be reused warm"
        )
        second = again.run(make_member_state(again, req, 0), req.steps)
        pool.release(req, again)
        assert pool.built == 1 and pool.reused == 1
        for name in ("ps", "u", "theta"):
            assert np.array_equal(
                getattr(first, name), getattr(second, name)
            ), f"warm fused rerun not bitwise for {name}"
