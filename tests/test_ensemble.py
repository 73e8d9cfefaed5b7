"""Tests of the ensemble & scenario engine (:mod:`repro.ensemble`).

The headline contract: the per-member loop gives every registered
scenario distinct members from one stencil plan per shared mesh, and
the forked loop (``workers=N``) is digest-identical to the serial one.
Around it: the scenario registry and its serving-layer integration,
seeded perturbation determinism (in- and cross-process), the
statistical contracts of the spread/probability products, and
regression pins of the example scripts against the registry.
"""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dycore.vertical import VerticalCoordinate
from repro.ensemble import (
    EnsembleRunner,
    assemble_scenario_model,
    build_scenario_model,
    ensemble_mean,
    ensemble_percentiles,
    ensemble_products,
    ensemble_spread,
    exceedance_probability,
    get_scenario,
    perturbation_noise,
    physics_perturbation_factors,
    register_scenario,
    scenario_names,
    spread_to_signal,
)
from repro.ensemble.scenarios import Scenario
from repro.serve.request import ForecastRequest, state_digest
from tests import contracts

#: The tiny-but-real run every integration test uses: G3, 6 levels, 13
#: dynamics steps — crosses the tracer (ratio 6) and physics (ratio 12)
#: sub-step boundaries, so a run exercises dynamics, tracer transport,
#: physics and the surface slab.
LEVEL, NLEV, STEPS = 3, 6, 13

#: Digest of the 3-member tropical SPPT ensemble at G2L6, 13 steps,
#: amplitude 0.2 (``test_sppt_digest_pinned``).
SPPT_DIGEST = "8b586a27cdbf7167a469591ad3a5fee500d8bbeb986ac51696188c727aab330f"


def tiny_runner(name: str, **kw) -> EnsembleRunner:
    kw.setdefault("n_members", 2)
    kw.setdefault("level", LEVEL)
    kw.setdefault("nlev", NLEV)
    kw.setdefault("steps", STEPS)
    return EnsembleRunner(scenario=name, **kw)


# -- scenario registry ------------------------------------------------------

class TestScenarioRegistry:
    def test_catalog_contents(self):
        names = scenario_names()
        assert set(names) >= {
            "tropical", "baroclinic", "doksuri", "typhoon_family",
            "heatwave", "aquaplanet", "seasonal",
        }
        # Legacy serving-layer scenarios stay first: their position is
        # what keeps pre-registry documentation and defaults valid.
        assert names[:2] == ("tropical", "baroclinic")

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(get_scenario("tropical"))

    def test_every_scenario_reachable_from_forecast_request(self):
        for name in scenario_names():
            req = ForecastRequest(scenario=name)
            assert req.scenario == name
            assert req.model_key()[-1] == name

    def test_legacy_cache_keys_unchanged(self):
        """The registry must not move a single byte of the pre-registry
        request encoding — these hexes predate it."""
        assert ForecastRequest().cache_key() == (
            "d91d2c2dd778fe3aed1818a5280babd70bc02f59f84ecb2914535e3795454797"
        )
        req = ForecastRequest(level=3, nlev=8, steps=12, seed=42,
                              scheme="MIX-ML", scenario="baroclinic",
                              ensemble_size=2)
        assert req.cache_key() == (
            "d50d4d3ff0439a6973e207b2ce71c7d9a959cf755b16872a9eeec96c952b8ff1"
        )

    def test_climate_scenarios_marked(self):
        assert get_scenario("aquaplanet").kind == "climate"
        assert get_scenario("seasonal").kind == "climate"
        assert get_scenario("seasonal").day_of_year == 15.0

    def test_typhoon_family_members_are_distinct_storms(self, mesh_g2):
        vc = VerticalCoordinate.stretched(4)
        fam = get_scenario("typhoon_family")
        s0 = fam.base_state(mesh_g2, vc, member=0, seed=0)
        s1 = fam.base_state(mesh_g2, vc, member=1, seed=0)
        # Displaced vortices: the *unperturbed* base states already
        # differ (deterministic scenarios share one base state).
        assert not np.array_equal(s0.ps, s1.ps)
        trop = get_scenario("tropical")
        t0 = trop.base_state(mesh_g2, vc, member=0, seed=0)
        t1 = trop.base_state(mesh_g2, vc, member=1, seed=0)
        assert np.array_equal(t0.theta, t1.theta)


# -- one model assembly -----------------------------------------------------

def _src_trees():
    """``(path relative to src/repro in posix form, AST)`` per module."""
    import repro

    root = pathlib.Path(repro.__file__).parent
    for path in root.rglob("*.py"):
        yield path.relative_to(root).as_posix(), ast.parse(path.read_text())


def _constructor_call_sites(class_name: str) -> set:
    """Files under ``src/repro`` (relative, posix) that call ``class_name(``."""
    sites = set()
    for rel, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == class_name:
                    sites.add(rel)
    return sites


class TestOneModelAssembly:
    def test_coupled_models_are_constructed_in_one_place(self):
        assert _constructor_call_sites("GristModel") == {
            "ensemble/scenarios.py", "ml/data.py",
        }
        assert _constructor_call_sites("SurfaceModel") == {
            "ensemble/scenarios.py", "ml/data.py", "model/grist.py",
            "experiments/workflow.py",
        }

    @pytest.mark.parametrize("name", scenario_names())
    def test_build_is_assemble_on_a_fresh_mesh(self, name, mesh_g2):
        """12 steps at G2L6: two tracer windows and one physics call."""
        scen = get_scenario(name)
        vc = VerticalCoordinate.stretched(6)
        built = build_scenario_model(name, 2, 6, "DP-PHY")
        assembled = assemble_scenario_model(scen, mesh_g2, vc, "DP-PHY")
        out_a = built.run(
            scen.member_state(built.mesh, built.vcoord, member=0, seed=0), 12
        )
        out_b = assembled.run(
            scen.member_state(mesh_g2, vc, member=0, seed=0), 12
        )
        assert len(built.history.precip) == len(assembled.history.precip) == 1
        contracts.bitwise(out_a, out_b)

    def test_assembly_builds_its_own_nets(self):
        """A served model is assembled exactly like a batch one: the
        assembly imports nothing from the serving layer and no function
        takes nets to swap into the suite it builds."""
        serve_imports, shared_params = [], []
        for rel, tree in _src_trees():
            for node in ast.walk(tree):
                if rel == "ensemble/scenarios.py":
                    if isinstance(node, ast.ImportFrom):
                        mods = [node.module or ""]
                    elif isinstance(node, ast.Import):
                        mods = [a.name for a in node.names]
                    else:
                        mods = []
                    serve_imports += [
                        m for m in mods
                        if m == "repro.serve" or m.startswith("repro.serve.")
                    ]
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    a = node.args
                    if any(p.arg == "shared_nets"
                           for p in a.posonlyargs + a.args + a.kwonlyargs):
                        shared_params.append(f"{rel}::{node.name}")
        assert serve_imports == []
        assert shared_params == []


class TestOnePhysicsSlot:
    def test_one_call_protocol_and_owner_snapshots(self):
        """No module probes a suite for ``compute_from_coupler``, and
        the radiation cadence is touched only by the suite that owns it."""
        probes, cadence = set(), set()
        for rel, tree in _src_trees():
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "hasattr"
                    and any(
                        isinstance(a, ast.Constant) and a.value == "compute_from_coupler"
                        for a in node.args
                    )
                ):
                    probes.add(rel)
                if isinstance(node, ast.Attribute) and node.attr in ("_step", "_cached_rad"):
                    cadence.add(rel)
        assert probes == set()
        assert cadence == {"physics/column.py"}


# -- perturbation determinism (satellite: property-based generators) -------

class TestPerturbationDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), member=st.integers(0, 255))
    def test_noise_is_a_pure_function_of_seed_and_member(self, seed, member):
        a = perturbation_noise((5, 4), seed, member)
        b = perturbation_noise((5, 4), seed, member)
        assert a.tobytes() == b.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           m1=st.integers(0, 63), m2=st.integers(0, 63))
    def test_distinct_members_draw_distinct_noise(self, seed, m1, m2):
        if m1 == m2:
            return
        a = perturbation_noise((5, 4), seed, m1)
        b = perturbation_noise((5, 4), seed, m2)
        assert a.tobytes() != b.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), member=st.integers(0, 63),
           amp=st.floats(1e-4, 0.5))
    def test_sppt_factors_bounded_and_deterministic(self, seed, member, amp):
        f = physics_perturbation_factors(32, seed, member, amp)
        assert f.shape == (32,)
        assert np.all(f >= 1.0 - 2.0 * amp - 1e-12)
        assert np.all(f <= 1.0 + 2.0 * amp + 1e-12)
        g = physics_perturbation_factors(32, seed, member, amp)
        assert f.tobytes() == g.tobytes()

    def test_sppt_stream_independent_of_ic_stream(self):
        """Perturbed-physics members keep the same initial conditions:
        the SPPT draw must not consume the IC stream."""
        ic = perturbation_noise((8,), 3, 2)
        sppt = physics_perturbation_factors(8, 3, 2, 0.2)
        assert ic.tobytes() != ((sppt - 1.0) / 0.2).tobytes()

    def test_member_states_bit_identical_across_processes(self, mesh_g2):
        """A fresh interpreter derives the same member state — no salted
        hashing, no process-dependent RNG state (the cross-process pin
        the ensemble's content-addressing depends on)."""
        vc = VerticalCoordinate.stretched(4)
        want = [
            state_digest(
                get_scenario(name).member_state(mesh_g2, vc, member=1, seed=7)
            )
            for name in ("tropical", "typhoon_family", "heatwave")
        ]
        code = (
            "from repro.dycore.vertical import VerticalCoordinate;"
            "from repro.ensemble import get_scenario;"
            "from repro.grid import build_mesh;"
            "from repro.serve.request import state_digest;"
            "mesh = build_mesh(2); vc = VerticalCoordinate.stretched(4);"
            "[print(state_digest(get_scenario(n).member_state("
            "mesh, vc, member=1, seed=7)))"
            " for n in ('tropical', 'typhoon_family', 'heatwave')]"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == want

    def test_members_pairwise_distinct_per_scenario(self, mesh_g2):
        vc = VerticalCoordinate.stretched(4)
        for name in scenario_names():
            digests = [
                state_digest(
                    get_scenario(name).member_state(mesh_g2, vc, m, seed=0)
                )
                for m in range(3)
            ]
            assert len(set(digests)) == 3, name


# -- product statistical contracts (satellite) ------------------------------

def _random_stack(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    nc = int(rng.integers(3, 40))
    scale = 10.0 ** rng.uniform(-6, 3)
    return scale * rng.normal(size=(m, nc))


class TestProductContracts:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_mean_within_member_envelope(self, seed):
        stack = _random_stack(seed)
        mean = ensemble_mean(stack)
        assert np.all(mean >= stack.min(axis=0) - 1e-12)
        assert np.all(mean <= stack.max(axis=0) + 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_percentiles_monotone_in_q(self, seed):
        stack = _random_stack(seed)
        qs = (5.0, 25.0, 50.0, 75.0, 95.0)
        pcts = ensemble_percentiles(stack, qs)
        assert pcts.shape == (len(qs),) + stack.shape[1:]
        for i in range(len(qs) - 1):
            assert np.all(pcts[i] <= pcts[i + 1] + 1e-12)
        assert np.all(pcts[0] >= stack.min(axis=0) - 1e-12)
        assert np.all(pcts[-1] <= stack.max(axis=0) + 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           thresh=st.floats(-10.0, 10.0))
    def test_exceedance_is_mean_of_indicators(self, seed, thresh):
        stack = _random_stack(seed)
        prob = exceedance_probability(stack, thresh)
        np.testing.assert_array_equal(
            prob, (stack > thresh).astype(float).mean(axis=0)
        )
        assert np.all((prob >= 0.0) & (prob <= 1.0))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_spread_nonnegative_and_ratio_finite(self, seed):
        stack = _random_stack(seed)
        spread = ensemble_spread(stack)
        assert np.all(spread >= 0.0)
        ratio = spread_to_signal(ensemble_mean(stack), spread)
        assert np.all(np.isfinite(ratio))
        assert np.all(ratio >= 0.0)

    def test_products_contract_on_real_randomized_run(self):
        """One real G3 ensemble under a randomized registered config:
        the derived products must honour every statistical contract."""
        rng = np.random.default_rng(20260808)
        name = str(rng.choice(scenario_names()))
        runner = tiny_runner(
            name,
            n_members=int(rng.integers(2, 4)),
            seed=int(rng.integers(0, 1000)),
            perturbation=float(rng.uniform(0.1, 0.5)),
        )
        res = runner.run()
        for field, stats in res.products.items():
            members = np.stack([
                m.fields["diag.mean_precip" if field == "mean_precip" else "u"]
                for m in res.members
            ])
            if field == "wind":
                members = np.abs(members).max(axis=2)
            assert np.all(stats["mean"] >= members.min(axis=0) - 1e-12)
            assert np.all(stats["mean"] <= members.max(axis=0) + 1e-12)
            assert np.all(stats["p10"] <= stats["p50"] + 1e-12)
            assert np.all(stats["p50"] <= stats["p90"] + 1e-12)
            assert np.all(stats["spread"] >= 0.0)
            assert np.all(np.isfinite(stats["spread_ratio"]))
            exc = stats["exceedance"]
            np.testing.assert_array_equal(
                exc, (members > stats["threshold"]).mean(axis=0)
            )

    def test_ensemble_products_shape(self):
        stacks = {"x": np.arange(12.0).reshape(4, 3)}
        prods = ensemble_products(stacks, thresholds={"x": 5.0})
        stats = prods["x"]
        assert set(stats) >= {"mean", "spread", "spread_ratio",
                              "p10", "p50", "p90",
                              "threshold", "exceedance"}
        assert stats["mean"].shape == (3,)
        assert stats["threshold"] == 5.0


# -- the per-member loop ---------------------------------------------------

class TestMemberEquivalence:
    @pytest.mark.parametrize("name", [
        "tropical", "baroclinic", "doksuri", "typhoon_family",
        "heatwave", "aquaplanet", "seasonal",
    ])
    def test_loop_members_distinct_one_plan(self, name):
        """Every registered scenario runs through the loop with
        distinct members and at most one stencil plan compilation per
        shared mesh (0 when an earlier test already compiled it)."""
        loop = tiny_runner(name).run()
        assert len(set(loop.member_digests())) == loop.n_members
        assert loop.plan_compiles <= 1

    def test_all_registered_scenarios_covered(self):
        """The parametrization above must never silently lag the
        registry."""
        params = {
            "tropical", "baroclinic", "doksuri", "typhoon_family",
            "heatwave", "aquaplanet", "seasonal",
        }
        assert params == set(scenario_names())

    def test_perturbed_physics_stays_bitwise_and_changes_the_answer(self):
        base = tiny_runner("tropical").run()
        perturbed = tiny_runner("tropical", physics_perturbation=0.2).run()
        # SPPT actually perturbed the run (it is not a no-op wrapper)...
        assert perturbed.digest() != base.digest()
        # ...and left the model reusable: the runner clears the physics
        # slot's factors on exit, so an unperturbed rerun still matches.
        assert tiny_runner("tropical").run().digest() == base.digest()

    def test_cross_process_run_digest(self):
        """The whole ensemble run — not just the inputs — is
        reproducible from a fresh interpreter."""
        res = tiny_runner("heatwave", steps=7).run()
        code = (
            "from repro.ensemble import EnsembleRunner;"
            "print(EnsembleRunner(scenario='heatwave', n_members=2,"
            "level=%d, nlev=%d, steps=7).run().digest())" % (LEVEL, NLEV)
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == res.digest()


class TestForkedLoopWorkers:
    """``workers > 1`` shards the loop oracle across forked processes;
    the contract is the ``ensemble`` row (``tests/contracts.py``)."""

    test_forked_loop_matches_serial_digests = contracts.collect(
        "ensemble", physics_perturbation=0.0)

    def test_workers_clamped_to_member_count(self):
        contracts.agree("ensemble", tiny_runner("heatwave", steps=7, workers=8).run(),
                        tiny_runner("heatwave", steps=7).run())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sppt_digest_pinned(self, workers):
        """`repro ensemble --scenario tropical --members 3 --level 2
        --nlev 6 --steps 13 --physics-perturbation 0.2`, serial and
        forked: the SPPT factors scale the physics slot's tendencies
        after its health check, bit for bit as pinned here."""
        res = EnsembleRunner(
            scenario="tropical", n_members=3, level=2, nlev=6, steps=13,
            physics_perturbation=0.2, workers=workers,
        ).run()
        assert res.digest() == SPPT_DIGEST

    test_forked_perturbed_physics_matches_serial = contracts.collect(
        "ensemble", physics_perturbation=0.2)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            tiny_runner("tropical", workers=0)


# -- example-script regression pins (satellite) -----------------------------

class TestExampleRegressionPins:
    def test_aquaplanet_example_setup_matches_registry(self, mesh_g3):
        """examples/aquaplanet_climate.py's inline construction is the
        registry's ``aquaplanet`` scenario: same surface, same base
        state, and a smoke run through the registry model reproduces the
        plain (unwrapped) example model bitwise."""
        from repro.dycore.state import tropical_profile_state
        from repro.model import GristModel, TABLE3_SCHEMES, scaled_grid_config
        from repro.physics.surface import (
            SurfaceModel, idealized_land_mask, idealized_sst,
        )

        scen = get_scenario("aquaplanet")
        vc = VerticalCoordinate.stretched(8)

        # The example's surface (idealised SST + 4 K) field for field.
        surf = scen.build_surface(mesh_g3)
        np.testing.assert_array_equal(
            surf.sst, idealized_sst(mesh_g3.cell_lat) + 4.0
        )
        np.testing.assert_array_equal(
            surf.land_mask,
            idealized_land_mask(mesh_g3.cell_lat, mesh_g3.cell_lon),
        )
        # The example's base state (297 K, rh 0.85), bitwise.
        base = scen.base_state(mesh_g3, vc)
        example_base = tropical_profile_state(
            mesh_g3, vc, 297.0, rh_surface=0.85
        )
        assert state_digest(base) == state_digest(example_base)

        # Smoke run: the registry model (ResilientPhysics-wrapped, state
        # validation on) is a bitwise passthrough of the example's bare
        # GristModel.
        example_model = GristModel(
            mesh_g3, vc, scaled_grid_config(3, 8), TABLE3_SCHEMES["DP-PHY"],
            surface=SurfaceModel(
                land_mask=idealized_land_mask(
                    mesh_g3.cell_lat, mesh_g3.cell_lon
                ),
                sst=idealized_sst(mesh_g3.cell_lat) + 4.0,
            ),
        )
        registry_model = build_scenario_model(scen, 3, 8, "DP-PHY")
        state_a = scen.member_state(mesh_g3, vc, member=0, seed=0)
        state_b = scen.member_state(mesh_g3, vc, member=0, seed=0)
        out_a = example_model.run(state_a, STEPS)
        out_b = registry_model.run(state_b, STEPS)
        contracts.bitwise(out_a, out_b)

    def test_doksuri_example_setup_matches_registry(self, mesh_g3):
        """The registry's ``doksuri`` scenario carries the Fig. 7 SST
        boost, storm-permitting dycore overrides and vortex state, and
        its model is a bitwise passthrough of a bare ``GristModel`` with
        those settings."""
        from repro.experiments.doksuri import tropical_cyclone_state
        from repro.model import GristModel, scaled_grid_config
        from repro.model.config import SchemeConfig
        from repro.physics.surface import (
            SurfaceModel, idealized_land_mask, idealized_sst,
        )

        scen = get_scenario("doksuri")
        assert scen.sst_boost == 2.0
        assert dict(scen.dycore_kwargs) == {
            "diffusion_coeff": 0.015, "divergence_damping": 0.04,
        }
        vc = VerticalCoordinate.stretched(NLEV)
        np.testing.assert_array_equal(
            scen.build_surface(mesh_g3).sst,
            idealized_sst(mesh_g3.cell_lat) + 2.0,
        )
        assert state_digest(scen.base_state(mesh_g3, vc)) == state_digest(
            tropical_cyclone_state(mesh_g3, vc)
        )

        # Smoke run pin against a hand-built, unwrapped model.
        example_model = GristModel(
            mesh_g3, vc, scaled_grid_config(3, NLEV),
            SchemeConfig("DP-PHY", False, False),
            surface=SurfaceModel(
                land_mask=idealized_land_mask(
                    mesh_g3.cell_lat, mesh_g3.cell_lon
                ),
                sst=idealized_sst(mesh_g3.cell_lat) + 2.0,
            ),
            dycore_kwargs=dict(diffusion_coeff=0.015, divergence_damping=0.04),
        )
        registry_model = build_scenario_model(scen, 3, NLEV, "DP-PHY")
        out_a = example_model.run(tropical_cyclone_state(mesh_g3, vc), STEPS)
        out_b = registry_model.run(
            scen.base_state(mesh_g3, VerticalCoordinate.stretched(NLEV)),
            STEPS,
        )
        contracts.bitwise(out_a, out_b)


# -- serving-layer integration ---------------------------------------------

class TestServingIntegration:
    def test_scheduler_serves_new_scenarios(self):
        """A registered scenario is a first-class serving citizen: the
        scheduler runs it and its members match the ensemble loop."""
        from repro.serve import ForecastScheduler

        req = ForecastRequest(level=LEVEL, nlev=NLEV, steps=STEPS,
                              scenario="typhoon_family", ensemble_size=2)
        with ForecastScheduler(max_workers=1) as sched:
            res = sched.submit(req).result()
        assert res.ok
        loop = tiny_runner("typhoon_family").run()
        assert tuple(m.digest for m in res.members) == loop.member_digests()


class TestScenarioValidation:
    def test_scenario_dataclass_frozen(self):
        with pytest.raises(AttributeError):
            get_scenario("tropical").sst_boost = 1.0

    def test_custom_registration_roundtrip(self):
        """Registering a new scenario makes it servable end to end
        (cleaned up afterwards to keep the registry canonical)."""
        from repro.ensemble import scenarios as mod

        scen = Scenario(
            name="_test_only",
            description="test fixture",
            kind="weather",
            builder=mod._tropical_state,
            default_steps=4,
        )
        register_scenario(scen)
        try:
            assert "_test_only" in scenario_names()
            req = ForecastRequest(scenario="_test_only")
            assert req.model_key()[-1] == "_test_only"
        finally:
            del mod._REGISTRY["_test_only"]


# -- CLI -------------------------------------------------------------------

class TestEnsembleCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["ensemble", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_json(self, capsys):
        import json

        from repro.cli import main

        rc = main([
            "ensemble", "--scenario", "tropical", "--members", "2",
            "--level", str(LEVEL), "--nlev", str(NLEV),
            "--steps", str(STEPS), "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["members"] == 2
        assert payload["plan_compiles"] <= 1
        assert len(payload["max_wind"]) == 2
        assert np.isfinite(payload["precip_mean_mm_day"])
