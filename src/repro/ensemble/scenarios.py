"""Registered experiment scenarios: one catalog, one model assembly.

A :class:`Scenario` packages everything a configuration contributes to
the *model* and the *state*:

* the initial-condition builder (optionally member-dependent, for
  perturbed-family scenarios),
* the surface (SST boost over the idealised ocean),
* scenario-specific dycore settings (e.g. the typhoon's
  storm-permitting weak dissipation),
* the solar geometry (``day_of_year``) and suggested defaults (steps,
  scheme).

Every coupled run in the package is assembled in one place,
:func:`assemble_scenario_model` (:func:`build_scenario_model` is its
build-the-mesh front): the serving layer, the ensemble runner, the
Fig. 7 / Fig. 8 experiments, the chaos harness and ``repro simulate``
all name a registered scenario, so each SST boost and damping
coefficient is written once, in the catalog below.  The one other
place a ``GristModel`` is constructed is
:func:`repro.ml.data.generate_archive`, whose time-varying period SST
no scenario carries.

Member determinism contract
---------------------------
:meth:`Scenario.member_state` seeds ``default_rng([seed, member])`` for
the initial-condition perturbation and
``default_rng([seed, member, stream])`` for any scenario-internal
randomness (typhoon-family displacement), so member *m* of a seed is
bit-identical across processes and hosts, and distinct members are
independent draws.  ``tests/test_ensemble.py`` pins both properties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Sub-stream constants keeping scenario-internal draws independent of
#: the initial-condition perturbation stream ``[seed, member]``.
FAMILY_STREAM = 7
SPPT_STREAM = 17


def perturbation_noise(shape, seed: int, member: int) -> np.ndarray:
    """The member initial-condition noise field, ``default_rng([seed,
    member])``."""
    rng = np.random.default_rng([seed, member])
    return rng.normal(size=shape)


def physics_perturbation_factors(
    nc: int, seed: int, member: int, amplitude: float
) -> np.ndarray:
    """SPPT-style multiplicative tendency factors for one member.

    ``1 + amplitude * clip(g, -2, 2)`` with ``g ~ N(0, 1)`` per cell,
    drawn from the dedicated ``SPPT_STREAM`` so perturbed-physics
    members keep the same initial conditions as their unperturbed twins.
    """
    rng = np.random.default_rng([seed, member, SPPT_STREAM])
    return 1.0 + amplitude * np.clip(rng.normal(size=nc), -2.0, 2.0)


# -- initial-condition builders -------------------------------------------
# Builders take (mesh, vcoord, member, seed); member/seed are ignored by
# deterministic scenarios and drive the typhoon family's displacement.

def _tropical_state(mesh, vcoord, member, seed):
    from repro.dycore.state import tropical_profile_state

    return tropical_profile_state(mesh, vcoord, rh_surface=0.85)


def _baroclinic_state(mesh, vcoord, member, seed):
    from repro.dycore.state import baroclinic_wave_state

    return baroclinic_wave_state(mesh, vcoord)


def _doksuri_state(mesh, vcoord, member, seed):
    from repro.experiments.doksuri import tropical_cyclone_state

    return tropical_cyclone_state(mesh, vcoord)


def _typhoon_family_state(mesh, vcoord, member, seed):
    """A synthetic typhoon family: each member is a displaced,
    intensity-jittered sibling of the Doksuri vortex."""
    from repro.experiments.doksuri import (
        STORM_LAT,
        STORM_LON,
        tropical_cyclone_state,
    )

    rng = np.random.default_rng([seed, member, FAMILY_STREAM])
    dlat = np.deg2rad(rng.uniform(-4.0, 4.0))
    dlon = np.deg2rad(rng.uniform(-6.0, 6.0))
    v_max = 22.0 + rng.uniform(0.0, 8.0)
    return tropical_cyclone_state(
        mesh, vcoord, v_max=v_max, lat0=STORM_LAT + dlat, lon0=STORM_LON + dlon
    )


def _heatwave_state(mesh, vcoord, member, seed):
    """Blocking-high heatwave: a warm mid-latitude ridge under a
    surface-pressure anomaly, hydrostatically rebalanced."""
    from repro.dycore.hevi import discrete_balanced_phi
    from repro.dycore.state import _great_circle, tropical_profile_state

    state = tropical_profile_state(mesh, vcoord, 298.0)
    d = _great_circle(
        mesh.cell_lat, mesh.cell_lon, np.deg2rad(55.0), np.deg2rad(10.0)
    )
    ridge = np.exp(-((d / np.deg2rad(18.0)) ** 2))
    sig = vcoord.sigma_mid
    vert = np.clip((sig - 0.3) / 0.7, 0.0, 1.0)
    state.theta = state.theta + 4.0 * ridge[:, None] * vert[None, :]
    state.ps = state.ps + 600.0 * ridge
    state.phi = discrete_balanced_phi(
        vcoord.dpi(state.ps), state.theta, state.phi_surface, vcoord.ptop
    )
    return state


def _aquaplanet_state(mesh, vcoord, member, seed):
    from repro.dycore.state import tropical_profile_state

    return tropical_profile_state(mesh, vcoord, 297.0, rh_surface=0.85)


@dataclass(frozen=True)
class Scenario:
    """One registered experiment configuration."""

    name: str
    description: str
    kind: str                      # "weather" | "climate"
    builder: object = None         # (mesh, vcoord, member, seed) -> ModelState
    sst_boost: float = 0.0
    day_of_year: float = 200.0
    #: Scenario-specific DycoreConfig overrides as an (immutable) item
    #: tuple, e.g. the typhoon's storm-permitting weak dissipation.
    dycore_kwargs: tuple = ()
    default_scheme: str = "DP-PHY"
    default_steps: int = 24

    def build_surface(self, mesh):
        """The scenario's surface on ``mesh`` (idealised SST + boost)."""
        from repro.physics.surface import (
            SurfaceModel,
            idealized_land_mask,
            idealized_sst,
        )

        sst = idealized_sst(mesh.cell_lat)
        if self.sst_boost:
            sst = sst + self.sst_boost
        return SurfaceModel(
            land_mask=idealized_land_mask(mesh.cell_lat, mesh.cell_lon),
            sst=sst,
        )

    def base_state(self, mesh, vcoord, member: int = 0, seed: int = 0):
        """The member's unperturbed initial state (member-dependent only
        for family scenarios)."""
        return self.builder(mesh, vcoord, member, seed)

    def member_state(
        self, mesh, vcoord, member: int, seed: int, perturbation: float = 0.3
    ):
        """Base state plus the seeded member theta perturbation."""
        state = self.base_state(mesh, vcoord, member, seed)
        state.theta = state.theta + perturbation * perturbation_noise(
            state.theta.shape, seed, member
        )
        return state


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        ) from None


def scenario_names() -> tuple:
    """Registered scenario names, registration order (legacy first)."""
    return tuple(_REGISTRY)


def all_scenarios() -> tuple:
    return tuple(_REGISTRY.values())


#: Storm-scale short runs use weaker, storm-permitting dissipation: the
#: strong climate-run damping would smear the rain band and erase the
#: resolution sensitivity the Fig. 7 experiment measures.
STORM_PERMITTING_DAMPING = (
    ("diffusion_coeff", 0.015), ("divergence_damping", 0.04),
)

# -- the catalog -----------------------------------------------------------
# Cache keys, the serve benchmark baseline and the pooled-model contract
# depend on the first two entries' configuration staying byte-identical.

register_scenario(Scenario(
    name="tropical",
    description="Warm moist tropical profile at rest (serving default)",
    kind="weather",
    builder=_tropical_state,
    default_steps=24,
))

register_scenario(Scenario(
    name="baroclinic",
    description="Mid-latitude jet with a localised baroclinic perturbation",
    kind="weather",
    builder=_baroclinic_state,
    default_steps=24,
))

register_scenario(Scenario(
    name="doksuri",
    description="Idealised super-typhoon Doksuri vortex (Fig. 7 analogue)",
    kind="weather",
    builder=_doksuri_state,
    sst_boost=2.0,
    dycore_kwargs=STORM_PERMITTING_DAMPING,
    default_steps=24,
))

register_scenario(Scenario(
    name="typhoon_family",
    description="Synthetic typhoon family: displaced/jittered Doksuri siblings",
    kind="weather",
    builder=_typhoon_family_state,
    sst_boost=2.0,
    dycore_kwargs=STORM_PERMITTING_DAMPING,
    default_steps=24,
))

register_scenario(Scenario(
    name="heatwave",
    description="Blocking-high heatwave: warm mid-latitude ridge",
    kind="weather",
    builder=_heatwave_state,
    default_steps=24,
))

register_scenario(Scenario(
    name="aquaplanet",
    description="Warm aquaplanet-plus-continents climate run (+4 K SST)",
    kind="climate",
    builder=_aquaplanet_state,
    sst_boost=4.0,
    default_steps=48,
))

register_scenario(Scenario(
    name="seasonal",
    description="Seasonal (boreal winter) climate configuration, +4 K SST",
    kind="climate",
    builder=_aquaplanet_state,
    sst_boost=4.0,
    day_of_year=15.0,
    default_steps=96,
))


def assemble_scenario_model(
    scenario: Scenario | str,
    mesh,
    vcoord,
    scheme_label: str,
    shared_nets: dict | None = None,
    suite=None,
):
    """Assemble one runnable coupled model for a scenario on ``mesh``.

    The one place a coupled model is put together: the scenario's
    surface, solar geometry and dycore overrides, the Table-2 scaled
    timesteps for ``(mesh.level, vcoord.nlev)`` and the Table-3 scheme's
    physics.  ``suite`` replaces the scheme's default physics with the
    caller's (trained) suite; ML suites are column-wise and
    resolution-adaptive, so it is rebound to this mesh and surface
    (section 3.2.2's G6/G8 point).  The physics is wrapped in
    :class:`~repro.resilience.recovery.ResilientPhysics` with no
    fallback and every dynamics step is validated, so an unusable
    tendency or a non-finite state raises
    :class:`~repro.resilience.recovery.StepFailure`.
    """
    from repro.model.config import TABLE3_SCHEMES, scaled_grid_config
    from repro.model.grist import GristModel
    from repro.physics.column import PhysicsConfig, PhysicsSuite
    from repro.precision.policy import PrecisionPolicy
    from repro.resilience.recovery import ResilientPhysics

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    scheme = TABLE3_SCHEMES[scheme_label]
    gc = scaled_grid_config(mesh.level, vcoord.nlev)
    surface = scenario.build_surface(mesh)
    if suite is not None:
        suite.mesh = mesh
        suite.vcoord = vcoord
        suite.surface = surface
    elif scheme.ml_physics:
        from repro.ml.suite import MLPhysicsSuite

        suite = MLPhysicsSuite.seeded(
            mesh, vcoord, surface,
            precision=PrecisionPolicy(mixed=True) if scheme.mixed_precision else None,
        )
        if shared_nets is not None:
            from repro.serve.batch import BatchedRadiationNet, BatchedTendencyNet

            tn, t_batcher = shared_nets["tendency"]
            rn, r_batcher = shared_nets["radiation"]
            suite.tendency_net = BatchedTendencyNet(tn, t_batcher)
            suite.radiation_net = BatchedRadiationNet(rn, r_batcher)
    else:
        suite = PhysicsSuite(
            mesh, vcoord, surface,
            config=PhysicsConfig(
                dt_physics=gc.dt_physics, rad_ratio=gc.radiation_ratio,
                day_of_year=scenario.day_of_year,
            ),
        )
    physics = ResilientPhysics(primary=suite, fallback=None, surface=surface)
    return GristModel(
        mesh, vcoord, gc, scheme,
        surface=surface, physics_suite=physics, validate_state=True,
        day_of_year=scenario.day_of_year,
        dycore_kwargs=dict(scenario.dycore_kwargs),
    )


def build_scenario_model(
    scenario: Scenario | str,
    level: int,
    nlev: int,
    scheme_label: str,
    shared_nets: dict | None = None,
):
    """:func:`assemble_scenario_model` on a freshly built level-``level``
    mesh and an ``nlev``-layer stretched vertical coordinate."""
    from repro.dycore.vertical import VerticalCoordinate
    from repro.grid import build_mesh

    return assemble_scenario_model(
        scenario, build_mesh(level), VerticalCoordinate.stretched(nlev),
        scheme_label, shared_nets,
    )


__all__ = [
    "FAMILY_STREAM", "SPPT_STREAM", "Scenario",
    "register_scenario", "get_scenario", "scenario_names", "all_scenarios",
    "perturbation_noise", "physics_perturbation_factors",
    "assemble_scenario_model", "build_scenario_model",
]
