"""Compiled stencil layer: backend equivalence, contracts, and the
operator-cache/hot-loop bugfix regressions.

* the ``reference`` backend is pinned **bitwise** against inline copies
  of the pre-refactor eager-NumPy operators (the goldens);
* the ``fused`` backend against ``reference`` per kernel and dtype is
  the ``operator`` row of ``tests/contracts.py``, whole runs are its
  ``dycore_backend`` and ``coupled_backend`` rows, and the mimetic
  identities and exact annihilation of constants its ``mimetic`` and
  ``annihilation`` rows — collected here under their old test ids;
* every plan method is bitwise rank-independent on owned entities;
* the operator cache compiles exactly once under thread hammering and is
  immutable after publish;
* the three named hot-loop bugfixes each carry a regression test.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dycore import stencil as stc
from repro.dycore import tendencies as tend
from repro.grid.mesh import PAD, build_mesh
from repro.precision.policy import NS, PrecisionPolicy
from tests import contracts
from tests.contracts import OPERATORS, call_operator, operator_fields

BACKENDS = sorted(stc.BACKENDS)

pytestmark = pytest.mark.operator


@pytest.fixture(scope="module")
def mesh3():
    return build_mesh(3)


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
        f = operator_fields(mesh3, 11, nlev)
        ref = stc.compiled_kernels(mesh3, "reference")
        np.testing.assert_array_equal(
            ref.divergence(f["edge"]),
            _legacy_divergence(mesh3, f["edge"]),
        )
        np.testing.assert_array_equal(
            ref.curl(f["edge"]),
            _legacy_curl(mesh3, f["edge"]),
        )
        np.testing.assert_array_equal(
            ref.vertex_to_cell(f["vertex"]),
            _legacy_vertex_to_cell(mesh3, f["vertex"]),
        )
        np.testing.assert_array_equal(
            ref.reconstruct_cell_vectors(f["edge"]),
            _legacy_reconstruct(mesh3, f["edge"]),
        )

    @pytest.mark.parametrize("nlev", [0, 5])
    def test_point_operators(self, mesh3, nlev):
        f = operator_fields(mesh3, 12, nlev)
        ref = stc.compiled_kernels(mesh3, "reference")
        c = stc.mesh_cache(mesh3)
        de = mesh3.de.reshape((-1,) + (1,) * (f["cell"].ndim - 1))
        np.testing.assert_array_equal(
            ref.gradient(f["cell"]),
            (f["cell"][c.edge_c2] - f["cell"][c.edge_c1]) / de,
        )
        np.testing.assert_array_equal(
            ref.cell_to_edge(f["cell"]),
            0.5 * (f["cell"][c.edge_c1] + f["cell"][c.edge_c2]),
        )
        np.testing.assert_array_equal(
            ref.cell_to_edge_upwind(f["cell"], f["edge"]),
            np.where(f["edge"] >= 0.0, f["cell"][c.edge_c1], f["cell"][c.edge_c2]),
        )
        np.testing.assert_array_equal(
            ref.vertex_to_edge(f["vertex"]),
            0.5 * (f["vertex"][c.edge_v1] + f["vertex"][c.edge_v2]),
        )


class TestBackendEquivalence:
    """The ``operator`` row (fused vs reference, both policy dtypes, 1-D
    and 2-D fields) at G3 and G4, and on random G2 fields."""

    test_g3 = contracts.collect("operator", level=3)
    test_g4 = contracts.collect("operator", level=4)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_property_randomized(self, seed):
        for name in OPERATORS:
            contracts.check("operator", dict(level=2, nlev=4, operator=name, seed=seed))

    def test_fused_returns_fresh_arrays(self, mesh3):
        """The plan holds no scratch to alias: consecutive calls return
        distinct arrays (the solver keeps stage tendencies)."""
        f = operator_fields(mesh3, 23, 6)
        plan = stc.compiled_kernels(mesh3, "fused")
        a = plan.divergence(f["edge"])
        b = plan.divergence(2.0 * f["edge"])
        assert a is not b
        assert not np.shares_memory(a, b)
        np.testing.assert_allclose(2.0 * a, b, rtol=1e-12)

    def test_non_f64_dtypes_delegate_to_reference(self, mesh3):
        """(The id predates the per-dtype tables and is pinned.)  Fused
        float32 ``cell_to_edge`` delegates nowhere, yet still equals the
        reference bitwise: the same operations in the same order."""
        f32 = operator_fields(mesh3, 24, 5, np.float32)["cell"]
        ref = stc.compiled_kernels(mesh3, "reference").cell_to_edge(f32)
        fused = stc.compiled_kernels(mesh3, "fused").cell_to_edge(f32)
        assert fused.dtype == np.float32
        np.testing.assert_array_equal(ref, fused)

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_unsupported_inputs_raise(self, mesh3, name):
        """float32 in -> float32 out is part of the ``operator`` row; a
        dtype that is neither policy dtype, or ``ndim == 3``, is a
        ``TypeError`` naming the fused kernel that refused it."""
        f = operator_fields(mesh3, 26, 5)
        for bad in (
            {k: v.astype(np.float16) for k, v in f.items()},
            {k: v.astype(np.int64) for k, v in f.items()},
            {k: v[..., None] for k, v in f.items()},
        ):
            with pytest.raises(TypeError, match=r"^fused \w+: expected"):
                call_operator(name, mesh3, bad, "fused")

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_interleaved_dtypes_never_share_scratch(self, mesh3, name):
        """f64, f32, f64 on one plan (the id predates the stateless
        plan): the float32 call in the middle leaves the float64 result
        unchanged."""
        f64 = operator_fields(mesh3, 27, 5)
        f32 = operator_fields(mesh3, 28, 5, np.float32)
        first = call_operator(name, mesh3, f64, "fused")
        middle = call_operator(name, mesh3, f32, "fused")
        third = call_operator(name, mesh3, f64, "fused")
        assert middle.dtype == np.float32
        contracts.bitwise(third, first)

    def test_optional_accelerators_degrade_silently(self, mesh3):
        """The fused backend needs nothing beyond NumPy."""
        f = operator_fields(mesh3, 25, 4)
        out = stc.compiled_kernels(mesh3, "fused").laplacian_edge(f["edge"])
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
        f = operator_fields(mesh3, 61, 5, dtype)
        want = call_operator(name, mesh3, f, "fused")
        for lm in decomposition:
            ids = {"cell": lm.cells, "edge": lm.edges, "vertex": lm.vertices}
            got = call_operator(name, lm.mesh, {k: f[k][ids[k]] for k in f}, "fused")
            cv = lm.mesh.cell_vertices[: lm.n_owned_cells]
            owned = {
                "cell": np.arange(lm.n_owned_cells),
                "edge": np.arange(lm.n_owned_edges),
                "vertex": np.unique(cv[cv != PAD]),
            }[OPERATORS[name][1]]
            contracts.bitwise({f"rank{lm.rank}": got[owned]},
                              {f"rank{lm.rank}": want[ids[OPERATORS[name][1]][owned]]})

    test_constants_are_annihilated_exactly = contracts.collect("annihilation")

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
    test_area_weighted_divergence_sums_to_zero = contracts.collect("mimetic", identity="div_sum")
    test_curl_of_gradient_vanishes = contracts.collect("mimetic", identity="curl_grad")
    test_constant_fields = contracts.collect("mimetic", identity="constants")


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
        p1.divergence(np.zeros(mesh3.ne))
        assert stc.compiled_kernels(mesh3, "fused") is p1


class TestGatherEdgesPadWeight:
    """Bugfix: clamp-gather + boolean-scatter replaced by pad-weight."""

    @pytest.mark.parametrize("nlev", [0, 5])
    def test_matches_legacy_scatter(self, mesh3, nlev):
        f = operator_fields(mesh3, 41, nlev)
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
        contracts.bitwise(tend.primal_normal_flux_edge(mesh3, dpi, u, policy), old)

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
            stc.compiled_kernels(mesh3, "magic")

    def test_none_is_the_default_backend(self):
        assert stc.DEFAULT_BACKEND == "fused"
        mesh = build_mesh(1)
        plan = stc.compiled_kernels(mesh)
        assert sorted(mesh._stencil_plans) == ["fused"]
        assert plan is mesh._stencil_plans["fused"]

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
            contracts.bitwise(evolve(core), evolve(core_on(build_mesh(2), backend)))
        assert set(vars(shared)) - bare == {"_op_cache", "_stencil_plans"}


class TestSolverPerBackend:
    test_fused_step_tracks_reference_step = contracts.collect(
        "dycore_backend", precision="DP", mode="hydrostatic")
    test_coupled_default_tracks_reference_oracle = contracts.collect("coupled_backend")

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
        contracts.bitwise(second, first)
