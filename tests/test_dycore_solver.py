"""Integration tests of the dynamical core: steady states, balance,
conservation, stability, and the named tendency kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dycore import tendencies as tnd
from repro.dycore.kernels import MAJOR_KERNELS, n_elements, sample_fields
from repro.dycore.solver import DycoreConfig, DynamicalCore, Tendencies, rk_update
from repro.dycore.state import (
    baroclinic_wave_state,
    isothermal_rest_state,
    solid_body_rotation_state,
    tropical_profile_state,
)
from repro.dycore.vertical import VerticalCoordinate
from repro.grid.mesh import build_mesh
from repro.precision.policy import PrecisionPolicy
from tests import contracts


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(3)


@pytest.fixture(scope="module")
def vc():
    return VerticalCoordinate.uniform(8)


class TestRestState:
    def test_exactly_steady_hydrostatic(self, mesh, vc):
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=600.0))
        st = isothermal_rest_state(mesh, vc)
        st2 = core.run(st.copy(), 10)
        assert np.abs(st2.u).max() == 0.0
        np.testing.assert_array_equal(st2.ps, st.ps)

    def test_exactly_steady_nonhydrostatic(self, mesh, vc):
        core = DynamicalCore(
            mesh, vc, DycoreConfig(dt=600.0, nonhydrostatic=True)
        )
        st = isothermal_rest_state(mesh, vc)
        st2 = core.run(st.copy(), 10)
        assert np.abs(st2.w).max() < 1e-10
        assert np.abs(st2.u).max() == 0.0

    def test_mass_conserved_exactly(self, mesh, vc):
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=600.0))
        st = solid_body_rotation_state(mesh, vc)
        m0 = st.total_dry_mass()
        st2 = core.run(st, 20)
        assert st2.total_dry_mass() == pytest.approx(m0, rel=1e-13)


class TestSolidBodyRotation:
    def test_balance_held_for_hours(self, mesh, vc):
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=600.0))
        st = solid_body_rotation_state(mesh, vc)
        wind0 = np.abs(st.u).max()
        st2 = core.run(st.copy(), 36)      # 6 hours
        wind1 = np.abs(st2.u).max()
        assert abs(wind1 - wind0) / wind0 < 0.08
        drift = np.linalg.norm(st2.ps - st.ps) / np.linalg.norm(
            st.ps - st.ps.mean()
        )
        # The divergence damping that stabilises stratified long runs
        # erodes the (numerically slightly divergent) balance a little.
        assert drift < 0.12

    def test_vorticity_diagnostic_reasonable(self, mesh, vc):
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=600.0))
        st = solid_body_rotation_state(mesh, vc, u0=20.0)
        d = core.diagnostics(st)
        # Solid-body relative vorticity = 2 u0 sin(lat) / a.
        from repro.constants import EARTH_RADIUS

        expected_max = 2 * 20.0 / EARTH_RADIUS
        assert d["vor"].max() == pytest.approx(expected_max, rel=0.15)


class TestBaroclinicWave:
    def test_runs_stably_and_develops(self, mesh, vc):
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=450.0))
        st = baroclinic_wave_state(mesh, vc)
        st2 = core.run(st, 48)
        assert np.isfinite(st2.ps).all()
        assert np.abs(st2.u).max() < 150.0     # no blow-up
        # The perturbation must not be diffused to nothing.
        assert np.abs(st2.u).max() > 5.0


class TestTropicalProfile:
    def test_stably_stratified(self, mesh, vc):
        st = tropical_profile_state(mesh, vc)
        dtheta = np.diff(st.theta, axis=1)
        # theta decreases with index (index increases downward).
        assert np.all(dtheta <= 1e-10)

    def test_humidity_below_saturation(self, mesh, vc):
        from repro.dycore.vertical import exner
        from repro.physics.surface import saturation_mixing_ratio

        st = tropical_profile_state(mesh, vc)
        p = st.p_mid()
        temp = st.theta * exner(p)
        qsat = saturation_mixing_ratio(temp, p)
        assert np.all(st.tracers["qv"] <= qsat + 1e-12)


class TestMixedPrecision:
    #: The section 3.4.1 acceptance test on a real run, and the runs
    #: differ: MIX is real.
    test_mixed_stays_within_five_percent = contracts.collect("mix_accuracy")

    def test_mixed_uses_fp32_somewhere(self, mesh, vc):
        pol = PrecisionPolicy(mixed=True)
        st = solid_body_rotation_state(mesh, vc)
        ke = tnd.tend_grad_ke_at_edge(mesh, st.u, pol)
        assert ke.dtype == np.float32
        pgf = tnd.pressure_gradient_force(
            mesh, st.theta, st.p_mid(),
            0.5 * (st.phi[:, :-1] + st.phi[:, 1:]), pol,
        )
        assert pgf.dtype == np.float64


class TestTendencyKernels:
    def test_mass_flux_of_rest_is_zero(self, mesh, vc):
        st = isothermal_rest_state(mesh, vc)
        F = tnd.primal_normal_flux_edge(mesh, st.dpi(), st.u)
        np.testing.assert_array_equal(F, 0.0)

    def test_coriolis_term_antisymmetric_under_flow_reversal(self, mesh, vc):
        st = solid_body_rotation_state(mesh, vc)
        t1 = tnd.calc_coriolis_term(mesh, st.u)
        t2 = tnd.calc_coriolis_term(mesh, -st.u)
        # (zeta+f) flips only zeta; for dominating f the term flips sign.
        corr = (t1 * -t2).sum() / np.sqrt((t1**2).sum() * (t2**2).sum())
        assert corr > 0.9

    def test_compute_rrr_is_density(self, mesh, vc):
        from repro.constants import R_DRY

        st = isothermal_rest_state(mesh, vc, temperature=300.0)
        rrr = tnd.compute_rrr(mesh, st.dpi(), st.phi)
        p = st.p_mid()
        rho_expected = p / (R_DRY * 300.0)
        np.testing.assert_allclose(rrr, rho_expected, rtol=0.05)

    def test_grad_ke_zero_for_uniform_ke(self, mesh, vc):
        # Solid-body flow: KE varies with latitude, so grad != 0; but a
        # zero flow gives exactly zero.
        t = tnd.tend_grad_ke_at_edge(mesh, np.zeros((mesh.ne, 3)))
        np.testing.assert_array_equal(t, 0.0)

    def test_vertical_mass_flux_boundary_zero(self, mesh, vc):
        rng = np.random.default_rng(0)
        D = rng.normal(size=(mesh.nc, vc.nlev))
        M = tnd.vertical_mass_flux(mesh, vc.sigma_interfaces, D)
        np.testing.assert_allclose(M[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(M[:, -1], 0.0, atol=1e-12)

    def test_vertical_advection_conserves_column(self, mesh, vc):
        rng = np.random.default_rng(1)
        D = rng.normal(size=(mesh.nc, vc.nlev))
        M = tnd.vertical_mass_flux(mesh, vc.sigma_interfaces, D)
        field = rng.random((mesh.nc, vc.nlev))
        t = tnd.vertical_advection_cell(M, field)
        np.testing.assert_allclose(t.sum(axis=1), 0.0, atol=1e-10)


class TestFreeStreamPreservation:
    """Uniform theta is a fixed point of one Euler stage whatever the
    wind: the flux-form theta tendency must equal ``theta * d(dpi)/dt``,
    which holds only if ``vertical_mass_flux`` has the (downward) sign
    its consumers assume.  With the flux returned upward one stage moved
    theta by ~10 K."""

    _cores: dict = {}

    @classmethod
    def _core(cls, mesh, backend, mixed):
        key = (backend, mixed)
        if key not in cls._cores:
            cls._cores[key] = DynamicalCore(
                mesh, VerticalCoordinate.stretched(8),
                DycoreConfig(dt=300.0, stencil_backend=backend,
                             policy=PrecisionPolicy(mixed=mixed)),
            )
        return cls._cores[key]

    @pytest.mark.parametrize("mixed", [False, True], ids=["DP", "MIX"])
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    @given(seed=st.integers(0, 2**31 - 1), speed=st.floats(0.5, 20.0))
    @settings(max_examples=10, deadline=None)
    def test_uniform_theta_is_a_fixed_point(self, mesh_g2, backend, mixed, seed, speed):
        core = self._core(mesh_g2, backend, mixed)    # all four on the shared mesh
        state = isothermal_rest_state(core.mesh, core.vcoord)
        state.theta[:] = 300.0
        state.u = speed * np.random.default_rng(seed).normal(size=state.u.shape)
        new = state.copy()
        rk_update(new, state, [core.compute_tendencies(state)], (1.0,), core.config.dt)
        drift = float(np.abs(new.theta - 300.0).max())
        assert drift <= (1e-4 if mixed else 1e-10), drift

    def test_vertical_mass_flux_is_positive_downward(self, mesh, vc):
        """Divergence in the top layer only: the layer loses ``D_0`` but
        its share of the column's loss is only ``dsigma_0 * D_0``, so the
        rest must come up through every interface below it — a negative
        flux in the downward-positive convention."""
        D = np.zeros((mesh.nc, vc.nlev))
        D[:, 0] = 1.0
        M = tnd.vertical_mass_flux(mesh, vc.sigma_interfaces, D)
        assert (M[:, 1:-1] < 0.0).all()
        np.testing.assert_array_equal(M[:, [0, -1]], 0.0)


class TestKernelRegistry:
    def test_all_kernels_run(self, mesh):
        fields = sample_fields(mesh, nlev=4)
        for name, reg in MAJOR_KERNELS.items():
            out = reg.run(mesh, fields)
            assert np.isfinite(out).all(), name
            assert n_elements(mesh, reg, 4) > 0

    def test_fig9_kernel_names_present(self):
        for name in (
            "tracer_transport_hori_flux_limiter",
            "compute_rrr",
            "primal_normal_flux_edge",
            "calc_coriolis_term",
        ):
            assert name in MAJOR_KERNELS

    def test_coriolis_spec_matches_paper_characterisation(self):
        """'calc_coriolis_term, lacking mixed precision optimization and
        accessing relatively few arrays' (section 4.6)."""
        spec = MAJOR_KERNELS["calc_coriolis_term"].spec
        assert spec.mixed_data_fraction == 0.0
        assert spec.arrays_streamed <= 4


class TestConfigValidation:
    def test_unknown_stencil_backend_rejected_at_construction(self):
        """A typo fails here, before a distributed driver has
        partitioned the graph and built every local mesh."""
        with pytest.raises(ValueError, match="unknown stencil backend"):
            DycoreConfig(stencil_backend="magic")
        with pytest.raises(ValueError, match="unknown stencil backend"):
            DycoreConfig(stencil_backend=None)

    @pytest.mark.parametrize("field, value", [
        ("dt", 0.0), ("dt", -5.0), ("tracer_ratio", 0), ("tracer_ratio", -3),
        ("sponge_levels", -1), ("sponge_timescale", 0.0), ("sponge_timescale", -1.0),
    ])
    def test_values_the_core_divides_or_counts_by_rejected(self, field, value):
        """``dt=0`` and ``tracer_ratio=0`` used to die with a
        ZeroDivisionError (at construction / in the first step), as did
        ``sponge_timescale=0`` in the first sponge; the negative values
        ran."""
        with pytest.raises(ValueError, match=field):
            DycoreConfig(**{field: value})


class TestRkSchedule:
    """What the one schedule computes: on ``u' = lambda * u`` with every
    other tendency zero, one step multiplies ``u`` by SSP-RK3's stability
    polynomial ``1 + z + z^2/2 + z^3/6``, ``z = lambda * dt``.  A one-lane
    step takes each stage's tendencies from ``compute_tendencies`` (these
    meshes step on one lane; the ``lanes`` row holds two lanes to one)."""

    @pytest.mark.parametrize("z", [-0.1, -1.0, -2.0, -2.5])
    def test_linear_tendency_gives_rk3_polynomial(self, mesh, vc, z):
        dt = 300.0
        core = DynamicalCore(
            mesh, vc, DycoreConfig(dt=dt, sponge_levels=0, tracer_ratio=10**6)
        )
        lam = z / dt

        def linear(state):
            return Tendencies(
                ps=np.zeros_like(state.ps), u=lam * state.u,
                theta_mass=np.zeros_like(state.theta),
                flux_edge=np.zeros_like(state.u),
            )

        core.compute_tendencies = linear
        assert core.lanes == 1
        st = solid_body_rotation_state(mesh, vc)
        out = core.step(st)
        expect = st.u * (1.0 + z + z**2 / 2 + z**3 / 6)
        np.testing.assert_allclose(
            out.u, expect, rtol=1e-13, atol=1e-14 * np.abs(st.u).max()
        )
        np.testing.assert_array_equal(out.ps, st.ps)


class TestStepLeavesInputAlone:
    """``step`` updates one copy of its input in place; the input itself
    must come back byte-identical and share no memory with the result."""

    @staticmethod
    def _arrays(state):
        named = {f: getattr(state, f) for f in ("ps", "u", "theta", "w", "phi", "phi_surface")}
        named.update({f"tracers[{k}]": q for k, q in state.tracers.items()})
        return named

    @pytest.mark.parametrize("nonhydrostatic", [False, True], ids=["hydrostatic", "NH"])
    def test_input_untouched_result_unaliased_and_reproducible(
        self, mesh, vc, nonhydrostatic
    ):
        # tracer_ratio=1: the tracer step (which reads the input's ps) runs too.
        cfg = DycoreConfig(dt=300.0, nonhydrostatic=nonhydrostatic, tracer_ratio=1)
        state = solid_body_rotation_state(mesh, vc)
        assert state.tracers
        before = {k: a.tobytes() for k, a in self._arrays(state).items()}
        t0 = state.time

        result = DynamicalCore(mesh, vc, cfg).step(state)

        assert state.time == t0 and result.time == t0 + cfg.dt
        for name, arr in self._arrays(state).items():
            assert arr.tobytes() == before[name], name
            for other, out in self._arrays(result).items():
                assert not np.shares_memory(arr, out), (name, other)
        assert not np.array_equal(result.u, state.u)      # it did step
        contracts.agree("replay", result, DynamicalCore(mesh, vc, cfg).step(state))


class TestNonFiniteGuard:
    def test_solver_raises_on_blowup(self, mesh, vc):
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=600.0))
        st = isothermal_rest_state(mesh, vc)
        st.ps[:] = np.nan
        with pytest.raises(FloatingPointError, match="^ps became non-finite"):
            core.run(st, 1)

    @pytest.mark.parametrize("field", ["u", "theta"])
    def test_nan_in_one_field_raises_at_that_step_naming_it(self, mesh, vc, field):
        """Only ``ps`` used to be checked: a NaN confined to ``u`` or
        ``theta`` ran on until it reached ``ps``.  Here one appears after
        step 2 of 5 and nowhere else."""
        core = DynamicalCore(mesh, vc, DycoreConfig(dt=600.0))
        step, calls = core.step, []

        def step_then_poison(state):
            out = step(state)
            calls.append(out.time)
            if len(calls) == 2:
                getattr(out, field)[0, 0] = np.nan
            return out

        core.step = step_then_poison
        with pytest.raises(FloatingPointError, match=f"^{field} became non-finite at t=1200.0"):
            core.run(isothermal_rest_state(mesh, vc), 5)
        assert len(calls) == 2
