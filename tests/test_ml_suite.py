"""Tests of the ML physics suite: the two networks, coarse graining with
residual Q1/Q2, the Table-1 data pipeline, and the coupled suite."""

import numpy as np
import pytest

from repro.dycore.solver import DycoreConfig, DynamicalCore
from repro.dycore.state import tropical_profile_state
from repro.dycore.vertical import VerticalCoordinate
from repro.grid.mesh import build_mesh
from repro.ml.coarse_grain import CoarseGrainer, residual_q1q2
from repro.ml.data import (
    TABLE1_PERIODS,
    build_radiation_dataset,
    build_tendency_dataset,
    generate_archive,
    period_sst,
)
from repro.ml.radiation_net import RadiationMLP
from repro.ml.tendency_net import TendencyCNN
from tests import contracts


@pytest.fixture(scope="module")
def mesh2():
    return build_mesh(2)


@pytest.fixture(scope="module")
def mesh3():
    return build_mesh(3)


@pytest.fixture(scope="module")
def vc():
    return VerticalCoordinate.stretched(8)


class TestTendencyCNN:
    def test_paper_architecture(self):
        """Section 3.2.3: 5 ResUnits, 11-layer CNN, ~0.5M parameters."""
        net = TendencyCNN(nlev=30)
        assert net.conv_layers == 11
        assert 4.0e5 < net.n_params() < 6.0e5

    def test_io_shapes(self, rng):
        net = TendencyCNN(nlev=12, width=16, n_resunits=2)
        x = rng.normal(size=(9, 5, 12))
        y = rng.normal(size=(9, 2, 12))
        net.fit_normalizers(x, y)
        out = net.predict(x)
        assert out.shape == (9, 2, 12)

    def test_pack_order_matches_section_324(self, rng):
        """Inputs are (U, V, T, Q, P) per the coupling interface."""
        profiles = [rng.normal(size=(4, 6)) for _ in range(5)]
        x = TendencyCNN.pack_inputs(*profiles)
        for i, p in enumerate(profiles):
            np.testing.assert_array_equal(x[:, i, :], p)

    def test_unfitted_normalizer_raises(self, rng):
        net = TendencyCNN(nlev=6, width=8, n_resunits=1)
        with pytest.raises(RuntimeError):
            net.predict(rng.normal(size=(2, 5, 6)))

    def test_learns_synthetic_mapping(self, rng):
        net = TendencyCNN(nlev=8, width=16, n_resunits=2)
        x = rng.normal(size=(600, 5, 8))
        y = np.stack([0.7 * x[:, 2] + x[:, 3], -0.5 * x[:, 3]], axis=1)
        net.fit_normalizers(x, y)
        from repro.ml.training import Trainer

        tr = Trainer(net.net, lr=2e-3)
        h = tr.fit(net.in_norm.transform(x), net.out_norm.transform(y),
                   epochs=12, batch_size=64)
        assert h.train_loss[-1] < 0.25 * h.train_loss[0]


class TestRadiationMLP:
    def test_paper_architecture(self):
        """Section 3.2.3: a 7-layer MLP with residual connections."""
        net = RadiationMLP(nlev=30)
        assert net.dense_layers == 7

    def test_inputs_include_tskin_coszr(self, rng):
        t = rng.normal(size=(3, 6))
        q = rng.normal(size=(3, 6))
        tskin = np.array([290.0, 295.0, 300.0])
        coszr = np.array([0.0, 0.5, 1.0])
        x = RadiationMLP.pack_inputs(t, q, tskin, coszr)
        assert x.shape == (3, 14)
        np.testing.assert_array_equal(x[:, -2], tskin)
        np.testing.assert_array_equal(x[:, -1], coszr)

    def test_outputs_nonnegative(self, rng):
        net = RadiationMLP(nlev=6, width=16)
        x = rng.normal(size=(40, 14))
        y = np.abs(rng.normal(size=(40, 2))) * 100.0
        net.fit_normalizers(x, y)
        out = net.predict(x)
        assert np.all(out >= 0.0)

    def test_flops_counts_matmuls(self):
        net = RadiationMLP(nlev=10, width=32)
        assert net.flops_per_column() > 0


class TestInferenceFastPath:
    """The compiled float32 inference path: float64 in/out at the suite
    boundary, tight agreement with the float64 reference, clean removal."""

    def _fitted_cnn(self, rng, nlev=8):
        net = TendencyCNN(nlev=nlev, width=8, n_resunits=1)
        x = rng.normal(size=(40, 5, nlev))
        net.fit_normalizers(x, rng.normal(size=(40, 2, nlev)))
        return net, x

    test_compiled_cnn_outputs_float64_and_close = contracts.collect("net_f32", net="cnn")

    def test_compile_none_restores_reference_path(self, rng):
        net, x = self._fitted_cnn(rng)
        ref = net.predict(x)
        net.compile_inference(np.float32)
        net.compile_inference(None)
        np.testing.assert_array_equal(net.predict(x), ref)

    test_compiled_radiation_mlp_float64_and_nonnegative = contracts.collect("net_f32", net="mlp")

    def test_inference_retains_no_training_caches(self, rng):
        """Repeated prediction must not hold activation-sized arrays —
        the compiled clone runs train=False throughout."""
        net, x = self._fitted_cnn(rng)
        net.compile_inference(np.float32)
        for _ in range(3):
            net.predict(x)
        from repro.ml.layers import Conv1D, Dense, ReLU

        for target in (net.net, net._infer_net):
            for layer in target.layers:
                if isinstance(layer, Conv1D):
                    assert layer._cols is None
                if isinstance(layer, Dense):
                    assert layer._x is None
                if isinstance(layer, ReLU):
                    assert layer._mask is None

    def test_suite_precision_hook_compiles_nets(self, mesh2, vc, rng):
        from repro.ml.suite import MLPhysicsSuite
        from repro.physics.surface import SurfaceModel, idealized_sst
        from repro.precision.policy import PrecisionPolicy

        tn, _ = self._fitted_cnn(rng, nlev=vc.nlev)
        rn = RadiationMLP(nlev=vc.nlev, width=16)
        xr = rng.normal(size=(40, 2 * vc.nlev + 2))
        rn.fit_normalizers(xr, np.abs(rng.normal(size=(40, 2))))
        sfc = SurfaceModel(land_mask=np.zeros(mesh2.nc),
                           sst=idealized_sst(mesh2.cell_lat))

        MLPhysicsSuite(mesh2, vc, sfc, tn, rn,
                       precision=PrecisionPolicy(mixed=True))
        assert tn._infer_net is not None
        assert rn._infer_net is not None
        assert tn._infer_dtype == np.float32

        tn2, _ = self._fitted_cnn(rng, nlev=vc.nlev)
        MLPhysicsSuite(mesh2, vc, sfc, tn2, rn,
                       precision=PrecisionPolicy(mixed=False))
        assert tn2._infer_net is None


class TestShiftedInference:
    """Both nets' shifted-GEMM inference path against the layer-by-layer
    ``Sequential.forward(train=False)`` chain it replaces for inference."""

    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("nlev", [1, 2, 10])
    @pytest.mark.parametrize("width", [8, 128])
    @pytest.mark.parametrize("n_resunits", [0, 1, 5])
    def test_matches_layer_chain(self, batch, nlev, width, n_resunits):
        from repro.ml.inference import shifted_forward
        from repro.ml.network import cast_network

        rng = np.random.default_rng(batch + 10 * nlev + width + n_resunits)
        net = TendencyCNN(nlev=nlev, width=width, n_resunits=n_resunits, seed=nlev)
        for p in net.net.params().values():      # nonzero biases reach the pads
            if p.ndim == 1:
                p[:] = rng.normal(size=p.shape)
        x = rng.normal(size=(batch, 5, nlev))
        for dtype, bound in ((np.float64, 1e-12), (np.float32, contracts.NET_F32)):
            chain = cast_network(net.net, dtype)
            want = chain.forward(x.astype(dtype), train=False)
            got = shifted_forward(chain, x, dtype)
            assert got.dtype == dtype and got.shape == (batch, 2, nlev)
            err = np.abs(got.astype(np.float64) - want).max()
            assert err <= bound * np.abs(want).max(), (dtype, err)

    def test_one_tap_head_alone(self, rng):
        from repro.ml.inference import shifted_forward
        from repro.ml.layers import Conv1D
        from repro.ml.network import Sequential

        net = Sequential(Conv1D(5, 2, 1, rng))
        net.layers[0].b[:] = [0.5, -1.0]
        x = rng.normal(size=(3, 5, 4))
        np.testing.assert_allclose(
            shifted_forward(net, x, np.float64), net.forward(x, train=False),
            rtol=0, atol=1e-12)

    def test_unsupported_layer_and_dtype_rejected(self, rng):
        from repro.ml.inference import shifted_forward
        from repro.ml.layers import Conv1D, Dense
        from repro.ml.network import Sequential

        x = rng.normal(size=(2, 3, 4))
        with pytest.raises(TypeError):
            shifted_forward(Sequential(Conv1D(3, 4, 3, rng), Dense(4, 2)), x, np.float64)
        with pytest.raises(TypeError):
            shifted_forward(Sequential(Conv1D(3, 4, 3, rng)), x, np.float16)

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_predict_float64_and_keeps_no_call_state(self, rng, dtype):
        net = TendencyCNN(nlev=6, width=8, n_resunits=2)
        x = rng.normal(size=(9, 5, 6))
        net.fit_normalizers(x, rng.normal(size=(9, 2, 6)))
        net.compile_inference(dtype)

        before = _net_state(net)
        out = net.predict(x)
        assert out.dtype == np.float64
        assert _net_state(net) == before

    @pytest.mark.net_f32
    @pytest.mark.parametrize("batch", [1, 7, 642])
    @pytest.mark.parametrize("width", [8, 128])
    def test_dense_chain_matches_layer_chain(self, batch, width):
        from repro.ml.inference import shifted_forward
        from repro.ml.network import cast_network

        rng = np.random.default_rng(batch + width)
        net = RadiationMLP(nlev=10, width=width, seed=width)    # two ResUnits
        for p in net.net.params().values():
            if p.ndim == 1:
                p[:] = rng.normal(size=p.shape)
        x = rng.normal(size=(batch, 22))
        for dtype, bound in ((np.float64, 1e-12), (np.float32, contracts.NET_F32)):
            chain = cast_network(net.net, dtype)
            want = chain.forward(x.astype(dtype), train=False)
            got = shifted_forward(chain, x, dtype)
            assert got.dtype == dtype and got.shape == (batch, 2)
            err = np.abs(got.astype(np.float64) - want).max()
            assert err <= bound * np.abs(want).max(), (dtype, err)

    @pytest.mark.net_f32
    def test_dense_chain_rejects_conv_and_float16(self, rng):
        from repro.ml.inference import shifted_forward
        from repro.ml.layers import Conv1D, Dense, ReLU
        from repro.ml.network import Sequential

        x = rng.normal(size=(2, 4))
        with pytest.raises(TypeError):
            shifted_forward(Sequential(Dense(4, 3, rng), ReLU(), Conv1D(3, 2, 1, rng)),
                            x, np.float64)
        with pytest.raises(TypeError):
            shifted_forward(Sequential(Dense(4, 2, rng)), x, np.float16)

    @pytest.mark.net_f32
    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_mlp_predict_float64_nonnegative_and_keeps_no_call_state(self, rng, dtype):
        net = RadiationMLP(nlev=6, width=8)
        x = rng.normal(size=(9, 14))
        net.fit_normalizers(x, rng.normal(size=(9, 2)))
        net.compile_inference(dtype)
        before = _net_state(net)
        out = net.predict(x)
        assert out.dtype == np.float64 and (out >= 0.0).all()
        assert _net_state(net) == before


def _net_state(net):
    """Identity of every object a net's prediction could touch, and of
    each of their attributes."""
    from repro.ml.network import leaf_layers

    objs = [net, net.in_norm, net.out_norm]
    for target in (net.net, net._infer_net):
        if target is not None:
            objs += list(leaf_layers(target))
    return [(id(o), sorted((k, id(v)) for k, v in vars(o).items())) for o in objs]


class TestCoarseGrainer:
    def test_constant_field_exact(self, mesh2, mesh3):
        cg = CoarseGrainer(mesh3, mesh2)
        out = cg.restrict(np.full(mesh3.nc, 2.5))
        np.testing.assert_allclose(out, 2.5)

    def test_global_mean_preserved(self, mesh2, mesh3, rng):
        cg = CoarseGrainer(mesh3, mesh2)
        f = rng.normal(size=mesh3.nc)
        fine_mean = (f * mesh3.cell_area).sum()
        coarse = cg.restrict(f)
        coarse_mean = (coarse * cg.weight_sum).sum()
        assert coarse_mean == pytest.approx(fine_mean, rel=1e-10)

    def test_multilevel_field(self, mesh2, mesh3, rng):
        cg = CoarseGrainer(mesh3, mesh2)
        f = rng.normal(size=(mesh3.nc, 4))
        out = cg.restrict(f)
        assert out.shape == (mesh2.nc, 4)

    def test_ratio(self, mesh2, mesh3):
        cg = CoarseGrainer(mesh3, mesh2)
        assert cg.ratio == pytest.approx(mesh3.nc / mesh2.nc)

    def test_wrong_direction_rejected(self, mesh2, mesh3):
        with pytest.raises(ValueError):
            CoarseGrainer(mesh2, mesh3)

    def test_velocity_restriction_solid_body(self, mesh2, mesh3):
        """A solid-body flow coarse-grains to the same solid-body flow."""
        cg = CoarseGrainer(mesh3, mesh2)
        axis = np.array([0.0, 0.0, 1.0])
        un_f = np.einsum(
            "ej,ej->e", np.cross(axis, mesh3.edge_xyz), mesh3.edge_normal
        )[:, None] * np.ones(3)
        un_c = cg.restrict_edge_velocity(un_f)
        expected = np.einsum(
            "ej,ej->e", np.cross(axis, mesh2.edge_xyz), mesh2.edge_normal
        )[:, None] * np.ones(3)
        err = np.abs(un_c - expected).max() / np.abs(expected).max()
        assert err < 0.15

    def test_restrict_state(self, mesh2, mesh3, vc):
        cg = CoarseGrainer(mesh3, mesh2)
        st = tropical_profile_state(mesh3, vc)
        cst = cg.restrict_state(st)
        assert cst.ps.shape == (mesh2.nc,)
        assert cst.u.shape == (mesh2.ne, vc.nlev)
        assert cst.total_dry_mass() == pytest.approx(st.total_dry_mass(), rel=1e-3)


class TestResidualQ1Q2:
    def test_zero_residual_for_consistent_dynamics(self, mesh2, mesh3, vc):
        """If the 'truth' IS the coarse dynamics forecast, Q1 = Q2 = 0."""
        cg = CoarseGrainer(mesh3, mesh2)
        st = tropical_profile_state(mesh3, vc)
        cg_t = cg.restrict_state(st)
        core = DynamicalCore(mesh2, vc, DycoreConfig(dt=300.0))
        truth = cg_t.copy()
        for _ in range(3):
            truth = core.step(truth)
        core2 = DynamicalCore(mesh2, vc, DycoreConfig(dt=300.0))
        q1, q2 = residual_q1q2(core2, cg_t, truth, 3)
        assert np.abs(q1).max() < 1e-10
        assert np.abs(q2).max() < 1e-10

    def test_heating_shows_up_in_q1(self, mesh2, mesh3, vc):
        """Truth warmed relative to the dyn forecast yields Q1 > 0."""
        cg = CoarseGrainer(mesh3, mesh2)
        st = tropical_profile_state(mesh3, vc)
        cg_t = cg.restrict_state(st)
        core = DynamicalCore(mesh2, vc, DycoreConfig(dt=300.0))
        truth = cg_t.copy()
        for _ in range(2):
            truth = core.step(truth)
        truth.theta = truth.theta + 0.6      # fake physics warming
        core2 = DynamicalCore(mesh2, vc, DycoreConfig(dt=300.0))
        q1, _ = residual_q1q2(core2, cg_t, truth, 2)
        assert q1.mean() > 0.0
        # Magnitude ~ 0.6 K * exner / 600 s.
        assert q1.max() < 0.01


class TestTable1Data:
    def test_periods_match_paper(self):
        assert len(TABLE1_PERIODS) == 4
        onis = [p.oni for p in TABLE1_PERIODS]
        assert onis == [2.2, 0.4, -0.4, -1.5]
        phases = [p.enso_phase for p in TABLE1_PERIODS]
        assert phases == ["El Nino", "neutral", "neutral", "La Nina"]

    def test_elnino_sst_warmer_in_east_pacific(self, mesh2):
        elnino = period_sst(mesh2, TABLE1_PERIODS[0])
        lanina = period_sst(mesh2, TABLE1_PERIODS[3])
        lon = np.mod(mesh2.cell_lon + np.pi, 2 * np.pi) - np.pi
        nino34 = (np.abs(mesh2.cell_lat) < np.deg2rad(5)) & (
            np.abs(lon - np.deg2rad(-120)) < np.deg2rad(25)
        )
        assert elnino[nino34].mean() > lanina[nino34].mean() + 2.0

    def test_mjo_phase_propagates(self, mesh2):
        p = TABLE1_PERIODS[1]
        s0 = period_sst(mesh2, p, time_days=0.0)
        s10 = period_sst(mesh2, p, time_days=10.0)
        assert not np.allclose(s0, s10)

    def test_archive_snapshot_contents(self, mesh2, vc):
        snaps = generate_archive(mesh2, vc, TABLE1_PERIODS[2], n_hours=2,
                                 spinup_hours=0.5)
        assert len(snaps) == 2
        s = snaps[-1]
        nlev = vc.nlev
        for arr, shape in [
            (s.u, (mesh2.nc, nlev)), (s.t, (mesh2.nc, nlev)),
            (s.q1, (mesh2.nc, nlev)), (s.gsw, (mesh2.nc,)),
            (s.coszr, (mesh2.nc,)),
        ]:
            assert arr.shape == shape
            assert np.isfinite(arr).all()

    def test_archive_coszr_is_the_models(self, mesh2, vc):
        """The radiation net's coszr feature is the sun the recorded
        suite ran under (the model's day of year), not another season's."""
        from repro.physics.column import PhysicsConfig
        from repro.physics.radiation import cosine_solar_zenith

        s = generate_archive(mesh2, vc, TABLE1_PERIODS[2], n_hours=1,
                             spinup_hours=0.5)[0]
        expected = cosine_solar_zenith(
            mesh2.cell_lat, mesh2.cell_lon, s.time, PhysicsConfig().day_of_year
        )
        assert np.array_equal(s.coszr, expected)

    def test_recording_leaves_the_run_unperturbed(self, mesh2, vc):
        """Hour 2 of a run recorded at hour 1 equals hour 2 of a run that
        was not (a 1 h spin-up records nothing)."""
        recorded = generate_archive(mesh2, vc, TABLE1_PERIODS[2], n_hours=2,
                                    spinup_hours=0.0)[1]
        unrecorded = generate_archive(mesh2, vc, TABLE1_PERIODS[2], n_hours=1,
                                      spinup_hours=1.0)[0]
        assert recorded.time == unrecorded.time
        contracts.bitwise(recorded, unrecorded)

    def test_dataset_builders(self, mesh2, vc):
        snaps = generate_archive(mesh2, vc, TABLE1_PERIODS[2], n_hours=2,
                                 spinup_hours=0.5)
        x, y = build_tendency_dataset(snaps)
        assert x.shape == (2 * mesh2.nc, 5, vc.nlev)
        assert y.shape == (2 * mesh2.nc, 2, vc.nlev)
        xr, yr = build_radiation_dataset(snaps)
        assert xr.shape == (2 * mesh2.nc, 2 * vc.nlev + 2)
        assert yr.shape == (2 * mesh2.nc, 2)


class TestCoupledMLSuite:
    def test_trained_suite_runs_coupled(self, mesh2, vc):
        """End-to-end: train briefly, couple, integrate, stay finite."""
        from repro.experiments.workflow import train_ml_suite
        from repro.model.config import TABLE3_SCHEMES, scaled_grid_config
        from repro.model.grist import GristModel

        trained = train_ml_suite(
            mesh2, vc, periods=TABLE1_PERIODS[:1], hours_per_period=3,
            epochs=2, width=12, n_resunits=1,
        )
        assert trained.n_train > trained.n_test
        gc = scaled_grid_config(2, vc.nlev)
        trained.suite.config.dt_physics = gc.dt_physics
        model = GristModel(
            mesh2, vc, gc, TABLE3_SCHEMES["DP-ML"],
            surface=trained.suite.surface, physics_suite=trained.suite,
        )
        st = tropical_profile_state(mesh2, vc)
        st = model.run_hours(st, 8.0)
        assert np.isfinite(st.theta).all()
        assert np.isfinite(st.tracers["qv"]).all()
        assert st.tracers["qv"].min() >= 0.0
        assert len(model.history.precip) > 0
        assert np.all(np.asarray(model.history.precip) >= 0.0)

    def test_tendency_cap_enforced(self, mesh2, vc, rng):
        """The stabilisation cap bounds |Q1| regardless of net output."""
        from repro.ml.suite import MLPhysicsSuite, MLSuiteConfig
        from repro.model.coupler import CouplingInterface
        from repro.physics.surface import SurfaceModel, idealized_sst

        tn = TendencyCNN(nlev=vc.nlev, width=8, n_resunits=1)
        rn = RadiationMLP(nlev=vc.nlev, width=16)
        x = rng.normal(size=(50, 5, vc.nlev))
        y = rng.normal(size=(50, 2, vc.nlev)) * 1.0   # huge K/s targets
        tn.fit_normalizers(x, y)
        xr = rng.normal(size=(50, 2 * vc.nlev + 2))
        yr = np.abs(rng.normal(size=(50, 2))) * 300.0
        rn.fit_normalizers(xr, yr)
        sfc = SurfaceModel(land_mask=np.zeros(mesh2.nc),
                           sst=idealized_sst(mesh2.cell_lat))
        suite = MLPhysicsSuite(mesh2, vc, sfc, tn, rn,
                               MLSuiteConfig(dt_physics=600.0))
        st = tropical_profile_state(mesh2, vc)
        coupler = CouplingInterface(mesh2)
        fields = coupler.extract(st, sfc.skin_temperature(), np.zeros(mesh2.nc))
        tend = suite.compute_from_coupler(st, fields)
        cap = suite.config.tendency_cap_k_per_day / 86400.0
        assert np.abs(tend.dtheta * fields.exner_mid).max() <= cap + 1e-12

    @pytest.mark.net_f32
    @pytest.mark.parametrize("mixed", [False, True], ids=["DP", "MIX"])
    def test_suite_infers_without_layer_forward(self, mesh2, vc, monkeypatch, mixed):
        """Both nets infer through the shifted-GEMM engine on SciPy's
        BLAS: a suite call never reaches a layer's ``forward`` (which
        would run NumPy's BLAS next to SciPy's)."""
        from repro.ml.layers import Conv1D, Dense
        from repro.ml.network import Sequential
        from repro.ml.suite import MLPhysicsSuite
        from repro.model.coupler import CouplingInterface
        from repro.physics.surface import SurfaceModel, idealized_sst
        from repro.precision.policy import PrecisionPolicy

        sfc = SurfaceModel(land_mask=np.zeros(mesh2.nc), sst=idealized_sst(mesh2.cell_lat))
        suite = MLPhysicsSuite.seeded(mesh2, vc, sfc, precision=PrecisionPolicy(mixed=mixed))
        st = tropical_profile_state(mesh2, vc)
        fields = CouplingInterface(mesh2).extract(st, sfc.skin_temperature(), np.zeros(mesh2.nc))

        def refuse(layer, x, train=True):
            raise AssertionError(f"{type(layer).__name__}.forward on the inference path")

        for cls in (Dense, Conv1D, Sequential):
            monkeypatch.setattr(cls, "forward", refuse)
        tend = suite.compute_from_coupler(st, fields)
        assert np.isfinite(tend.dtheta).all() and (tend.gsw >= 0.0).all()

    def test_paper_size_net_coupled_mix_ml(self, mesh3):
        """The bench model (G3L10, MIX-ML, the 495,106-parameter CNN in
        float32) over one coupling window: finite, reproducible, and the
        float32 suite within the declared tolerance of the float64 one."""
        from repro.ensemble.scenarios import get_scenario
        from repro.ml.suite import MLPhysicsSuite
        from repro.model.config import TABLE3_SCHEMES, scaled_grid_config
        from repro.model.grist import GristModel
        from repro.precision.policy import PrecisionPolicy
        from repro.resilience.recovery import state_is_finite
        from repro.serve.request import state_digest

        vc10 = VerticalCoordinate.stretched(10)
        scenario = get_scenario("tropical")

        def suite(mixed):
            return MLPhysicsSuite.seeded(
                mesh3, vc10, scenario.build_surface(mesh3), width=128, n_resunits=5,
                precision=PrecisionPolicy(mixed=mixed),
            )

        mixed = suite(True)
        assert mixed.tendency_net.n_params() == 495_106
        model = GristModel(
            mesh3, vc10, scaled_grid_config(3, 10), TABLE3_SCHEMES["MIX-ML"],
            surface=mixed.surface, physics_suite=mixed,
        )
        initial = scenario.member_state(mesh3, vc10, member=0, seed=0)
        digests = []
        for _ in range(2):
            model.reset()
            state = model.run(initial.copy(), 12)
            assert state_is_finite(state)
            digests.append(state_digest(state))
        assert digests[0] == digests[1]

        fields = model.coupler.extract(
            state, mixed.surface.skin_temperature(), np.zeros(mesh3.nc)
        )
        t32 = mixed.compute_from_coupler(state, fields)
        t64 = suite(False).compute_from_coupler(state, fields)
        # The tendency net's outputs; the other fields come from each
        # suite's own surface slab, which the coupled run has advanced.
        net_out = ("dtheta", "dqv")
        contracts.agree("net_f32", {n: getattr(t32, n) for n in net_out},
                        {n: getattr(t64, n) for n in net_out})
