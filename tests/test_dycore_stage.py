"""One RK stage, evaluated once: the rewritten stage against the forms it
replaced, bit for bit.

The oracles below are the previous implementations, verbatim: the stage
body (``p_mid`` from its own ``p_int``, ``D.sum`` twice, theta
interpolated twice, every term summed into a fresh array), the
slice/cumsum column operators, the ``where``-padded neighbourhood
reduce and the generator-sum RK combine.  Every comparison is of the
bytes (equal dtypes and shapes, then ``tobytes``, so a flipped sign of
zero fails too), on {``reference``, ``fused``} × {DP, MIX} where a policy
applies, and on every one-term sensitivity map of the precision
ablation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import CP_DRY
from repro.dycore import tendencies as tend
from repro.dycore.solver import (
    SSP_RK3,
    DycoreConfig,
    DynamicalCore,
    Tendencies,
    _weighted,
    rk_update,
)
from repro.dycore.state import tropical_profile_state
from repro.dycore.stencil import OperatorCache, compiled_kernels
from repro.dycore.tracer import _neighbor_extreme
from repro.dycore.vertical import (
    HybridVerticalCoordinate,
    VerticalCoordinate,
    apply_column,
    column_operators,
    exner,
    geopotential_interfaces,
    layer_mean,
)
from repro.grid.mesh import PAD
from repro.precision.policy import GRIST_SENSITIVITY, PrecisionPolicy, TermSensitivity

BACKENDS = ("reference", "fused")
DTYPES = (np.float64, np.float32)


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the previous implementations, verbatim (the oracles) --------------------

def _old_calc_coriolis_term(mesh, u, policy, kernels):
    term = "coriolis_term"
    un = policy.cast(term, u)
    zeta_e = kernels.vorticity_edge(un)
    vt = kernels.tangential_velocity(un)
    absvor = policy.cast(term, zeta_e) + policy.cast(term, mesh.f_edge[:, None])
    return policy.cast(term, absvor * vt)


def _old_tend_grad_ke_at_edge(mesh, u, policy, kernels):
    term = "kinetic_energy_gradient"
    ke = policy.cast(term, kernels.kinetic_energy(policy.cast(term, u)))
    return policy.cast(term, -kernels.gradient(ke))


def _old_pressure_gradient_force(mesh, theta, p_mid, phi_mid, policy, kernels):
    term = "pressure_gradient"
    pi_ex = exner(policy.cast(term, p_mid))
    theta_e = kernels.cell_to_edge(policy.cast(term, theta))
    g_pi = kernels.gradient(pi_ex)
    g_phi = kernels.gradient(policy.cast(term, phi_mid))
    return -CP_DRY * theta_e * g_pi - g_phi


def _old_vertical_mass_flux(vcoord_sigma_int, div_flux):
    total = div_flux.sum(axis=1, keepdims=True)          # (nc, 1)
    partial = np.cumsum(div_flux, axis=1)                # (nc, nlev)
    M = np.zeros((div_flux.shape[0], div_flux.shape[1] + 1), dtype=div_flux.dtype)
    M[:, 1:] = vcoord_sigma_int[None, 1:] * total - partial
    # round-off cleanup at the surface boundary
    M[:, -1] = 0.0
    return M


def _old_vertical_advection_cell(M, field):
    nlev = field.shape[1]
    f_int = np.zeros((field.shape[0], nlev + 1), dtype=field.dtype)
    f_int[:, 1:-1] = 0.5 * (field[:, :-1] + field[:, 1:])
    return M[:, :-1] * f_int[:, :-1] - M[:, 1:] * f_int[:, 1:]


def _old_vertical_advection_edge(M, u, dpi_e, kernels):
    M_e = kernels.cell_to_edge(M)
    flux = M_e[:, 1:-1] * (u[:, 1:] - u[:, :-1])
    tend_ = np.zeros_like(u)
    tend_[:, 1:] = flux
    tend_[:, :-1] += flux
    tend_ *= -0.5
    tend_ /= np.maximum(dpi_e, 1e-3)
    return tend_


def _old_geopotential_interfaces(phi_surface, theta, p_int):
    ex = exner(p_int)
    dphi = -CP_DRY * theta * (ex[..., :-1] - ex[..., 1:])  # positive
    phi = np.empty(p_int.shape, dtype=np.result_type(theta, p_int))
    phi[..., -1] = phi_surface
    phi[..., :-1] = phi_surface[..., None] + np.cumsum(dphi[..., ::-1], axis=-1)[..., ::-1]
    return phi


def _old_neighbor_extreme(mesh, field, op):
    # The cache's two gather tables, inlined.
    vals = field[np.clip(mesh.cell_neighbors, 0, None)]  # (nc, D, nlev)
    pad = (mesh.cell_neighbors == PAD)[..., None]
    if op is np.maximum:
        vals = np.where(pad, -np.inf, vals)
        ext = vals.max(axis=1)
        return np.maximum(ext, field)
    vals = np.where(pad, np.inf, vals)
    ext = vals.min(axis=1)
    return np.minimum(ext, field)


def _old_weighted(tds, weights, name):
    if len(weights) == 1:
        return getattr(tds[0], name)
    return sum(w * getattr(t, name) for w, t in zip(weights, tds))


def _old_rk_update(out, base, tds, weights, dt):
    dpi_old = base.dpi()
    np.add(base.ps, dt * _old_weighted(tds, weights, "ps"), out=out.ps)
    np.add(base.u, dt * _old_weighted(tds, weights, "u"), out=out.u)
    np.divide(
        dpi_old * base.theta + dt * _old_weighted(tds, weights, "theta_mass"),
        out.dpi(), out=out.theta,
    )
    out.time = base.time + dt


def _old_compute_tendencies(core, state):
    mesh, vc, pol, k = core.mesh, core.vcoord, core.config.policy, core.kernels
    dpi = state.dpi()
    pi = vc.pressure_interfaces(state.ps)                # state.p_mid(), inlined
    p_mid = 0.5 * (pi[..., :-1] + pi[..., 1:])

    # Geopotential: prognostic in NH mode, hydrostatic otherwise.
    if core.config.nonhydrostatic:
        phi = state.phi
    else:
        p_int = vc.pressure_interfaces(state.ps)
        phi = _old_geopotential_interfaces(state.phi_surface, state.theta, p_int)
    phi_mid = 0.5 * (phi[:, :-1] + phi[:, 1:])

    # Mass flux and continuity.
    dpi_e = k.cell_to_edge(dpi)           # shared by flux and advection
    F = tend.primal_normal_flux_edge(mesh, dpi, state.u, pol, dpi_e)
    D = k.divergence(F)                               # (nc, nlev)
    ps_tend = -D.sum(axis=1)
    M = _old_vertical_mass_flux(vc.b_interfaces, D)

    # Momentum.
    u_tend = _old_calc_coriolis_term(mesh, state.u, pol, k)
    u_tend = u_tend + _old_tend_grad_ke_at_edge(mesh, state.u, pol, k)
    u_tend = u_tend + _old_pressure_gradient_force(
        mesh, state.theta, p_mid, phi_mid, pol, k
    )
    u_tend = u_tend + _old_vertical_advection_edge(M, state.u, dpi_e, k)
    u_tend = u_tend + k.momentum_diffusion(state.u, core._diffusion)

    # Potential temperature in flux form.
    theta_e = k.cell_to_edge(state.theta.astype(pol.ns, copy=False))
    theta_div = k.divergence(F * theta_e)
    theta_mass_tend = -theta_div + _old_vertical_advection_cell(M, state.theta)
    theta_mass_tend = theta_mass_tend + core._nu * dpi * k.laplacian_cell(state.theta)
    return Tendencies(
        ps=np.asarray(ps_tend, dtype=np.float64),
        u=np.asarray(u_tend, dtype=np.float64),
        theta_mass=np.asarray(theta_mass_tend, dtype=np.float64),
        flux_edge=np.asarray(F, dtype=np.float64),
    )


# -- the stage ----------------------------------------------------------------

class TestStageMatchesOracle:
    _cores: dict = {}

    @classmethod
    def _core(cls, mesh, backend, policy, nonhydrostatic=False):
        key = (mesh.level, backend, repr(policy), nonhydrostatic)
        if key not in cls._cores:
            cls._cores[key] = DynamicalCore(
                mesh, VerticalCoordinate.stretched(8),
                DycoreConfig(dt=300.0, stencil_backend=backend, nonhydrostatic=nonhydrostatic,
                             policy=policy),
            )
        return cls._cores[key]

    @staticmethod
    def _state(core, seed, speed, dtheta):
        state = tropical_profile_state(core.mesh, core.vcoord)
        rng = np.random.default_rng(seed)
        state.u = speed * rng.normal(size=state.u.shape)
        state.theta = state.theta + dtheta * rng.normal(size=state.theta.shape)
        return state

    @staticmethod
    def _assert_same(new, old):
        for name in ("ps", "u", "theta_mass", "flux_edge"):
            a, b = getattr(new, name), getattr(old, name)
            assert _same(a, b), (name, a.dtype, b.dtype, float(np.abs(a - b).max()))

    @pytest.mark.parametrize("mixed", [False, True], ids=["DP", "MIX"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("level", [2, 3])
    @given(seed=st.integers(0, 2**31 - 1), speed=st.floats(0.5, 30.0),
           dtheta=st.floats(0.0, 5.0))
    @settings(max_examples=10, deadline=None)
    def test_bitwise_equal(self, mesh_g2, mesh_g3, level, backend, mixed, seed, speed, dtheta):
        core = self._core(mesh_g2 if level == 2 else mesh_g3, backend, PrecisionPolicy(mixed=mixed))
        state = self._state(core, seed, speed, dtheta)
        self._assert_same(core.compute_tendencies(state), _old_compute_tendencies(core, state))

    @pytest.mark.parametrize("mixed", [False, True], ids=["DP", "MIX"])
    def test_nonhydrostatic_bitwise_equal(self, mesh_g2, mixed):
        core = self._core(mesh_g2, "fused", PrecisionPolicy(mixed=mixed), nonhydrostatic=True)
        state = self._state(core, 7, 10.0, 1.0)
        self._assert_same(core.compute_tendencies(state), _old_compute_tendencies(core, state))

    @pytest.mark.parametrize("sens", list(TermSensitivity), ids=lambda s: f"only-{s.value}")
    @pytest.mark.parametrize("term", sorted(GRIST_SENSITIVITY))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_term_sensitivity_maps(self, mesh_g2, backend, term, sens):
        """The precision ablation's maps (MIX with one term insensitive and
        the rest sensitive) and their inverses: any term may be the one
        float32 or the one float64 operand of an accumulation, and every
        sum must still be taken in the promoted dtype."""
        other = next(s for s in TermSensitivity if s is not sens)
        pol = PrecisionPolicy(mixed=True)
        pol.sensitivity = {k: sens if k == term else other for k in GRIST_SENSITIVITY}
        core = self._core(mesh_g2, backend, pol)
        state = self._state(core, 5, 10.0, 1.0)
        self._assert_same(core.compute_tendencies(state), _old_compute_tendencies(core, state))

    def test_input_state_untouched(self, mesh_g2):
        """The in-place terms write only into the stage's own arrays."""
        core = self._core(mesh_g2, "fused", PrecisionPolicy())
        state = self._state(core, 3, 10.0, 1.0)
        before = [a.tobytes() for a in (state.ps, state.u, state.theta, state.phi)]
        core.compute_tendencies(state)
        assert before == [a.tobytes() for a in (state.ps, state.u, state.theta, state.phi)]


# -- the column operators ------------------------------------------------------

#: Each column operator's slice form and its input length over nlev.
SLICE_FORMS = {
    "interface_diff": (1, lambda f: f[..., :-1] - f[..., 1:]),
    "interface_sum": (1, lambda f: f[..., :-1] + f[..., 1:]),
    "layer_diff": (0, lambda f: f[..., 1:] - f[..., :-1]),
    "interior_sum": (0, lambda f: f[..., :-1] + f[..., 1:]),
}


class TestColumnOperators:
    NLEV = 8

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("leading", [(), (3,), (7000,), (4, 5)], ids=str)
    def test_each_operator_is_its_slice_form(self, dtype, leading):
        """Bitwise, in ``field``'s dtype, over one GEMM block and several
        (7000 rows is more than one block at nlev = 8)."""
        rng = np.random.default_rng(0)
        ops = column_operators(self.NLEV, np.dtype(dtype))
        for name, (extra, slice_form) in SLICE_FORMS.items():
            f = rng.normal(size=leading + (self.NLEV + extra,)).astype(dtype)
            assert _same(apply_column(f, getattr(ops, name)), slice_form(f)), name

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_transposes_scatter_to_layers(self, dtype):
        rng = np.random.default_rng(1)
        ops = column_operators(self.NLEV, np.dtype(dtype))
        g = rng.normal(size=(5000, self.NLEV - 1)).astype(dtype)
        up = np.zeros((5000, self.NLEV), dtype=dtype)
        up[:, 1:] = g                    # g_{k-1}
        down = np.zeros_like(up)
        down[:, :-1] = g                 # g_k
        assert _same(apply_column(g, ops.interior_sum.T), up + down)
        assert _same(apply_column(g, ops.layer_diff.T), up - down)

    def test_single_layer_column(self):
        """One layer has no interior interface: the layer operators are
        empty, as the slice forms are."""
        f = np.ones((4, 1))
        ops = column_operators(1)
        assert _same(apply_column(f, ops.layer_diff), f[:, 1:] - f[:, :-1])
        assert _same(apply_column(f[:, :0], ops.interior_sum.T), np.zeros((4, 1)))

    def test_non_contiguous_input(self):
        f = np.random.default_rng(2).normal(size=(300, self.NLEV + 2))[:, 1:-1]
        ops = column_operators(self.NLEV)
        assert _same(apply_column(f, ops.layer_diff), f[:, 1:] - f[:, :-1])

    def test_matrices_cached_and_read_only(self):
        ops = column_operators(self.NLEV, np.dtype(np.float32))
        assert ops is column_operators(self.NLEV, np.dtype(np.float32))
        for m in vars(ops).values():
            assert m.dtype == np.float32 and not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 2.0

    def test_non_finite_input_spreads_across_its_row(self):
        """The documented caveat: ``0 * nan`` is NaN, so a NaN reaches
        every output of its row; other rows are untouched."""
        f = np.ones((3, self.NLEV))
        f[1, 0] = np.nan
        out = apply_column(f, column_operators(self.NLEV).layer_diff)
        assert np.isnan(out[1]).all()
        assert np.array_equal(out[[0, 2]], np.zeros((2, self.NLEV - 1)))

    @pytest.mark.parametrize("vc", [VerticalCoordinate.stretched(8),
                                    HybridVerticalCoordinate.standard(8)],
                             ids=["sigma", "hybrid"])
    def test_pressure_mid_is_the_slice_mean(self, vc):
        ps = np.random.default_rng(3).uniform(9.0e4, 1.05e5, size=50)
        pi = vc.pressure_interfaces(ps)
        assert _same(vc.pressure_mid(ps), 0.5 * (pi[..., :-1] + pi[..., 1:]))
        assert _same(layer_mean(pi), vc.pressure_mid(ps))
        assert _same(vc.pressure_mid(ps[0]), 0.5 * (pi[0, :-1] + pi[0, 1:]))


# -- the column terms ----------------------------------------------------------

class TestColumnTermsMatchOracle:
    @pytest.fixture(scope="class")
    def column(self, mesh_g3):
        vc = VerticalCoordinate.stretched(10)
        state = tropical_profile_state(mesh_g3, vc)
        rng = np.random.default_rng(11)
        D = rng.normal(size=(mesh_g3.nc, vc.nlev)) * 1e-3
        return vc, state, D

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("vc", [VerticalCoordinate.stretched(10),
                                    HybridVerticalCoordinate.standard(10)],
                             ids=["sigma", "hybrid"])
    def test_vertical_mass_flux(self, mesh_g3, column, vc, dtype):
        D = column[2].astype(dtype)
        old = _old_vertical_mass_flux(vc.b_interfaces, D)
        assert _same(tend.vertical_mass_flux(mesh_g3, vc.b_interfaces, D), old)
        total = D.sum(axis=1)
        assert _same(tend.vertical_mass_flux(mesh_g3, vc.b_interfaces, D, total=total), old)

    @pytest.mark.parametrize("m_dtype", DTYPES)
    @pytest.mark.parametrize("f_dtype", DTYPES)
    def test_vertical_advection_cell(self, mesh_g3, column, m_dtype, f_dtype):
        vc, state, D = column
        M = _old_vertical_mass_flux(vc.b_interfaces, D.astype(m_dtype))
        field = state.theta.astype(f_dtype)
        assert _same(tend.vertical_advection_cell(M, field), _old_vertical_advection_cell(M, field))

    @pytest.mark.parametrize("m_dtype", DTYPES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_vertical_advection_edge(self, mesh_g3, column, backend, m_dtype):
        vc, state, D = column
        k = compiled_kernels(mesh_g3, backend)
        M = _old_vertical_mass_flux(vc.b_interfaces, D.astype(m_dtype))
        u = np.random.default_rng(12).normal(size=(mesh_g3.ne, vc.nlev)) * 10.0
        dpi = state.dpi()
        dpi_e = k.cell_to_edge(dpi)
        old = _old_vertical_advection_edge(M, u, dpi_e, k)
        assert _same(tend.vertical_advection_edge(mesh_g3, M, dpi, u, dpi_e, kernels=k), old)
        assert _same(tend.vertical_advection_edge(mesh_g3, M, dpi, u, kernels=k), old)

    @pytest.mark.parametrize("vc", [VerticalCoordinate.stretched(10),
                                    HybridVerticalCoordinate.standard(10)],
                             ids=["sigma", "hybrid"])
    def test_geopotential_interfaces(self, mesh_g3, vc):
        state = tropical_profile_state(mesh_g3, vc)
        theta = state.theta + np.random.default_rng(13).normal(size=state.theta.shape)
        p_int = vc.pressure_interfaces(state.ps)
        phi_s = np.random.default_rng(14).uniform(0.0, 2.0e4, size=mesh_g3.nc)
        old = _old_geopotential_interfaces(phi_s, theta, p_int)
        assert _same(geopotential_interfaces(phi_s, theta, p_int), old)
        # One column (1-D fields) and a float32 theta.
        col = np.asarray(phi_s[0])
        assert _same(geopotential_interfaces(col, theta[0], p_int[0]),
                     _old_geopotential_interfaces(col, theta[0], p_int[0]))
        th32 = theta.astype(np.float32)
        assert _same(geopotential_interfaces(phi_s, th32, p_int),
                     _old_geopotential_interfaces(phi_s, th32, p_int))

    @pytest.mark.parametrize("mixed", [False, True], ids=["DP", "MIX"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_in_place_horizontal_terms(self, mesh_g3, column, backend, mixed):
        """Coriolis, the KE gradient and the PGF (with and without the
        stage's ``theta_e``)."""
        vc, state, _ = column
        k, pol = compiled_kernels(mesh_g3, backend), PrecisionPolicy(mixed=mixed)
        u = np.random.default_rng(15).normal(size=(mesh_g3.ne, vc.nlev)) * 10.0
        cor = tend.calc_coriolis_term(mesh_g3, u, pol, kernels=k)
        assert _same(cor, _old_calc_coriolis_term(mesh_g3, u, pol, k))
        ke = _old_tend_grad_ke_at_edge(mesh_g3, u, pol, k)
        assert _same(tend.tend_grad_ke_at_edge(mesh_g3, u, pol, kernels=k), ke)
        p_mid, phi_mid = state.p_mid(), layer_mean(state.phi)
        old = _old_pressure_gradient_force(mesh_g3, state.theta, p_mid, phi_mid, pol, k)
        assert _same(tend.pressure_gradient_force(
            mesh_g3, state.theta, p_mid, phi_mid, pol, kernels=k), old)
        theta_e = k.cell_to_edge(state.theta)
        assert _same(tend.pressure_gradient_force(
            mesh_g3, state.theta, p_mid, phi_mid, pol, kernels=k, theta_e=theta_e), old)


    @pytest.mark.parametrize("b_dtype", DTYPES)
    @pytest.mark.parametrize("a_dtype", DTYPES)
    @pytest.mark.parametrize("ufunc", [np.add, np.subtract, np.multiply])
    def test_promoted_writes_only_a_promoted_operand(self, ufunc, a_dtype, b_dtype):
        rng = np.random.default_rng(16)
        a, b = (rng.normal(size=(50, 4)).astype(d) for d in (a_dtype, b_dtype))
        expected = ufunc(a, b)
        out = tend.promoted(ufunc, a.copy(), b.copy())
        assert _same(out, expected)
        out = tend.promoted(ufunc, a, b, reuse=(b,))
        assert _same(out, expected)
        assert (out is b) == (b.dtype == expected.dtype)


# -- the tracer limiter's neighbourhood ---------------------------------------

class TestNeighborExtreme:
    @staticmethod
    def _fields(mesh, seed):
        rng = np.random.default_rng(seed)
        smooth = rng.normal(size=(mesh.nc, 6))
        ties = rng.integers(0, 3, size=(mesh.nc, 6)).astype(np.float64)
        return smooth, ties, smooth.astype(np.float32)

    @pytest.mark.parametrize("op", [np.maximum, np.minimum], ids=["max", "min"])
    def test_matches_padded_reduce(self, mesh_g3, op):
        pent = np.flatnonzero((mesh_g3.cell_neighbors == PAD).any(axis=1))
        assert len(pent) == 12                   # the pentagons' pad lanes
        cache = OperatorCache(mesh_g3)
        for field in self._fields(mesh_g3, 0):
            new = _neighbor_extreme(cache, field, op)
            old = _old_neighbor_extreme(mesh_g3, field, op)
            assert _same(new, old)
            assert _same(new[pent], old[pent])

    @pytest.mark.parametrize("op", [np.maximum, np.minimum], ids=["max", "min"])
    def test_pads_anywhere_on_a_restricted_mesh(self, mesh_g3, op):
        """A restricted mesh has pads in any lane, not just the last."""
        sub = mesh_g3.take(np.arange(mesh_g3.nc // 2), np.arange(mesh_g3.ne),
                           np.arange(mesh_g3.nv))
        pads = sub.cell_neighbors == PAD
        assert pads[:, :-1].any()
        cache = OperatorCache(sub)
        for field in self._fields(sub, 1):
            assert _same(_neighbor_extreme(cache, field, op), _old_neighbor_extreme(sub, field, op))

    def test_lane_table_points_pads_at_the_cell(self, mesh_g3):
        lanes = OperatorCache(mesh_g3).cell_neighbor_lanes
        nbrs = mesh_g3.cell_neighbors
        assert lanes.shape == nbrs.T.shape and lanes.flags.c_contiguous
        rows, cols = np.nonzero(nbrs == PAD)
        assert np.array_equal(lanes[cols, rows], rows)
        assert np.array_equal(lanes.T[nbrs != PAD], nbrs[nbrs != PAD])


# -- the RK combine -------------------------------------------------------------

class TestRkUpdateMatchesOracle:
    @staticmethod
    def _tendencies(mesh, nlev, seed):
        rng = np.random.default_rng(seed)
        return Tendencies(
            ps=rng.normal(size=mesh.nc) * 0.1,
            u=rng.normal(size=(mesh.ne, nlev)) * 1e-3,
            theta_mass=rng.normal(size=(mesh.nc, nlev)) * 1e2,
            flux_edge=rng.normal(size=(mesh.ne, nlev)) * 1e3,
        )

    @pytest.mark.parametrize("i", range(len(SSP_RK3)), ids=lambda i: f"rk3-stage{i + 1}")
    def test_every_schedule_row(self, mesh_g2, i):
        weights, frac = SSP_RK3[i]
        vc = VerticalCoordinate.stretched(8)
        base = tropical_profile_state(mesh_g2, vc)
        base.u = np.random.default_rng(20).normal(size=base.u.shape)
        tds = [self._tendencies(mesh_g2, vc.nlev, 30 + j) for j in range(len(weights))]
        dt = frac * 300.0
        new, old = base.copy(), base.copy()
        rk_update(new, base, tds, weights, dt)
        _old_rk_update(old, base, tds, weights, dt)
        for name in ("ps", "u", "theta"):
            assert _same(getattr(new, name), getattr(old, name)), name
        assert new.time == old.time
        # The step's flux accumulation sums the same weights.
        assert _same(np.asarray(_weighted(tds, weights, "flux_edge")),
                     np.asarray(_old_weighted(tds, weights, "flux_edge")))
        # ... and leaves the tendencies it read alone.
        assert _same(tds[0].u, self._tendencies(mesh_g2, vc.nlev, 30).u)

    @pytest.mark.parametrize("stage", [2, 3])
    def test_negative_zero_terms_sum_to_positive_zero(self, mesh_g2, stage):
        """The generator sum started from 0, so weights over all -0.0 terms
        gave +0.0, and a -0.0 wind plus that increment gave +0.0 too.  On
        both combining rows."""
        weights, frac = SSP_RK3[stage - 1]
        vc = VerticalCoordinate.stretched(8)
        base = tropical_profile_state(mesh_g2, vc)
        base.u = np.full_like(base.u, -0.0)
        tds = [self._tendencies(mesh_g2, vc.nlev, 40 + j) for j in range(len(weights))]
        for t in tds:
            t.u = np.full_like(t.u, -0.0)
        assert _same(_weighted(tds, weights, "u"), _old_weighted(tds, weights, "u"))
        new, old = base.copy(), base.copy()
        rk_update(new, base, tds, weights, frac * 300.0)
        _old_rk_update(old, base, tds, weights, frac * 300.0)
        assert _same(new.u, old.u) and not np.signbit(new.u).any()
