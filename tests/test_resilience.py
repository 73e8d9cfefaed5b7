"""Unit tests of the fault-injection & recovery layer.

One class per rung of the recovery ladder, plus the injector's
determinism contract: identical (plan, seed, call sequence) must inject
identical fault sequences, and an installed-but-empty plan must leave
every instrumented path untouched.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.comm.message import Communicator
from repro.obs import MetricsRegistry, collecting
from repro.physics.surface import SurfaceModel
from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    get_injector,
    injecting,
)
from repro.resilience.recovery import (
    CheckpointStore,
    ResilientPhysics,
    RetryExhausted,
    RetryPolicy,
    StepFailure,
    corrupt_buffer,
    payload_crc,
)
from tests import contracts

pytestmark = pytest.mark.chaos


# -- injector ------------------------------------------------------------


def _fire_sequence(plan, seed, n=200):
    inj = FaultInjector(plan, seed=seed)
    out = []
    for i in range(n):
        for kind in FaultKind:
            ev = inj.fire(kind, site=f"s{i % 3}")
            if ev is not None:
                out.append(ev.key() + (ev.payload_seed,))
    return inj, out


def test_injector_deterministic_across_reruns():
    plan = FaultPlan(
        "p",
        (
            FaultSpec(FaultKind.MSG_DROP, rate=0.05),
            FaultSpec(FaultKind.STRAGGLER, at=(3, 7), rate=0.01),
            FaultSpec(FaultKind.DMA_ERROR, at=(0,), max_events=1),
        ),
    )
    _, a = _fire_sequence(plan, seed=42)
    _, b = _fire_sequence(plan, seed=42)
    assert a == b and len(a) > 0
    _, c = _fire_sequence(plan, seed=43)
    assert a != c


def test_schedule_specs_fire_exactly_at_occurrences():
    plan = FaultPlan("p", (FaultSpec(FaultKind.CPE_FAIL, at=(2, 5)),))
    inj = FaultInjector(plan, seed=0)
    fired = [
        i for i in range(10) if inj.fire(FaultKind.CPE_FAIL, site="k") is not None
    ]
    assert fired == [2, 5]


def test_max_events_caps_fired_count():
    plan = FaultPlan("p", (FaultSpec(FaultKind.MSG_DROP, rate=1.0, max_events=3),))
    inj = FaultInjector(plan, seed=0)
    fired = sum(inj.fire(FaultKind.MSG_DROP) is not None for _ in range(10))
    assert fired == 3


def test_unspecified_kind_never_fires_and_empty_plan_inactive():
    plan = FaultPlan("p", (FaultSpec(FaultKind.MSG_DROP, rate=1.0),))
    inj = FaultInjector(plan, seed=0)
    assert inj.fire(FaultKind.DMA_ERROR) is None
    assert not FaultInjector(FaultPlan.named("none")).active
    assert get_injector() is None  # default: no global injector


def test_recover_and_drain_accounting():
    plan = FaultPlan("p", (FaultSpec(FaultKind.MSG_DROP, rate=1.0, max_events=3),))
    inj = FaultInjector(plan, seed=0)
    for _ in range(3):
        inj.fire(FaultKind.MSG_DROP, site="0->1")
    assert len(inj.unrecovered()) == 3
    ev = inj.recover(FaultKind.MSG_DROP, "retransmit", site="0->1")
    assert ev is not None and len(inj.unrecovered()) == 2
    n = inj.drain((FaultKind.MSG_DROP,), "retransmit", site="0->1")
    assert n == 2
    s = inj.summary()
    assert s["n_fired"] == 3 and s["n_recovered"] == 3 and s["n_unrecovered"] == 0
    # Recovering with nothing pending is a harmless no-op.
    assert inj.recover(FaultKind.MSG_DROP, "retransmit") is None


def test_injecting_context_restores_previous():
    with injecting(FaultPlan.named("smoke"), seed=1) as inj:
        assert get_injector() is inj
    assert get_injector() is None


# -- CRC / corruption helpers -------------------------------------------


def test_corrupt_buffer_deterministic_and_crc_detects(rng):
    buf = rng.normal(size=64)
    a, b = buf.copy(), buf.copy()
    corrupt_buffer(a, payload_seed=7, n_bytes=4)
    corrupt_buffer(b, payload_seed=7, n_bytes=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, buf)
    assert payload_crc(a) != payload_crc(buf)
    c = buf.copy()
    corrupt_buffer(c, payload_seed=8, n_bytes=4)
    assert not np.array_equal(a, c)


def test_retry_policy_backoff_grows():
    p = RetryPolicy(max_attempts=5, backoff_seconds=1e-4, backoff_factor=2.0)
    assert p.backoff(1) == 1e-4
    assert p.backoff(3) == 4e-4


# -- communicator faults -------------------------------------------------


def test_msg_drop_leaves_mailbox_empty_and_is_probed():
    comm = Communicator(2)
    plan = FaultPlan("p", (FaultSpec(FaultKind.MSG_DROP, at=(0,), max_events=1),))
    with injecting(plan, seed=0) as inj:
        comm.send(0, 1, np.arange(8.0))
        assert not comm.probe(0, 1)
        assert comm.stats.messages == 1          # bytes left the NIC
        comm.send(0, 1, np.arange(8.0))          # second send delivered
        assert comm.probe(0, 1)
        assert len(inj.unrecovered()) == 1       # drop awaits retransmit credit


def test_msg_corrupt_delivers_copy_and_preserves_sender_buffer():
    comm = Communicator(2)
    plan = FaultPlan("p", (FaultSpec(FaultKind.MSG_CORRUPT, at=(0,)),))
    sent = np.arange(32.0)
    keep = sent.copy()
    with injecting(plan, seed=0):
        comm.send(0, 1, sent, copy=False)
        got = comm.recv(0, 1)
    assert np.array_equal(sent, keep)            # zero-copy source intact
    assert not np.array_equal(got, sent)


def test_msg_delay_is_delivered_and_auto_recovered():
    comm = Communicator(2)
    plan = FaultPlan("p", (FaultSpec(FaultKind.MSG_DELAY, at=(0,)),))
    with injecting(plan, seed=0) as inj:
        comm.send(0, 1, np.arange(4.0))
        got = comm.recv(0, 1)
    assert np.array_equal(got, np.arange(4.0))
    assert inj.summary()["recovered_by_action"] == {"delay_tolerated": 1}


# -- exchanger retransmit ladder ----------------------------------------


def _two_rank_exchanger(mesh):
    from repro.parallel.exchange import EdgeCellExchanger
    from repro.parallel.localmesh import build_local_meshes
    from repro.partition.decomposition import decompose
    from repro.partition.graph import mesh_cell_graph
    from repro.partition.metis import partition_graph

    part = partition_graph(mesh_cell_graph(mesh), 2, seed=0)
    locals_ = build_local_meshes(mesh, decompose(mesh, 2, part=part), part)
    rng = np.random.default_rng(5)
    ps_global = rng.normal(size=mesh.nc)
    ps = [lm.scatter_cell_field(ps_global) for lm in locals_]
    ex = EdgeCellExchanger(locals_, Communicator(2))
    ex.register_cell("ps", ps)
    return ex, ps, [lm.scatter_cell_field(ps_global) for lm in locals_]


def test_exchange_recovers_dropped_and_corrupted_payloads(mesh_g1):
    ex, ps, expect = _two_rank_exchanger(mesh_g1)
    plan = FaultPlan(
        "p",
        (
            FaultSpec(FaultKind.MSG_DROP, at=(0,), max_events=1),
            FaultSpec(FaultKind.MSG_CORRUPT, at=(1,), max_events=1),
        ),
    )
    with injecting(plan, seed=0) as inj:
        ex.exchange()
        assert inj.summary()["n_unrecovered"] == 0
    assert ex.retransmits >= 1
    contracts.bitwise(ps, expect)


def test_exchange_exhausts_retries_when_every_send_drops(mesh_g1):
    ex, _, _ = _two_rank_exchanger(mesh_g1)
    plan = FaultPlan("p", (FaultSpec(FaultKind.MSG_DROP, rate=1.0),))
    with injecting(plan, seed=0):
        with pytest.raises(RetryExhausted):
            ex.exchange()


# -- job server / DMA faults --------------------------------------------


def test_cpe_fail_and_straggler_charge_time_not_results():
    from repro.sunway.swgomp import JobServer, TargetRegion

    def run(plan):
        server = JobServer()
        server.init_from_mpe()
        region = TargetRegion(server, n_teams=1)
        out = np.zeros(64)

        def body(s, e):
            out[s:e] += 1.0

        ctx = injecting(plan, seed=0) if plan is not None else None
        inj = ctx.__enter__() if ctx else None
        try:
            t = region.parallel_for(body, 64, cost_per_elem=1e-6, name="k")
        finally:
            if ctx:
                ctx.__exit__(None, None, None)
        return t, out, inj

    t_clean, out_clean, _ = run(None)
    plan = FaultPlan(
        "p",
        (
            FaultSpec(FaultKind.CPE_FAIL, at=(0,), max_events=1),
            FaultSpec(FaultKind.STRAGGLER, at=(1,), max_events=1,
                      straggler_factor=4.0),
        ),
    )
    t_fault, out_fault, inj = run(plan)
    contracts.bitwise(out_fault, out_clean)
    assert t_fault > t_clean                         # only the clock moved
    assert inj.summary()["n_unrecovered"] == 0


def test_dma_error_retries_and_charges_extra_time():
    from repro.sunway.dma import MemorySpace, omnicopy

    src = np.arange(128.0)
    dst = np.empty_like(src)
    clean = omnicopy(dst, src, dst_space=MemorySpace.LDM)
    plan = FaultPlan("p", (FaultSpec(FaultKind.DMA_ERROR, at=(0,), max_events=1),))
    dst2 = np.empty_like(src)
    with injecting(plan, seed=0) as inj:
        faulted = omnicopy(dst2, src, dst_space=MemorySpace.LDM)
    assert np.array_equal(dst2, src)
    assert faulted.seconds > clean.seconds
    assert inj.summary()["recovered_by_action"] == {"dma_retry": 1}


# -- physics degradation -------------------------------------------------


@dataclass
class _Tend:
    dtheta: np.ndarray
    dqv: np.ndarray
    gsw: np.ndarray
    glw: np.ndarray


class _FakeSuite:
    """The physics-slot protocol: ``compute_from_coupler``, a
    ``surface`` and its own ``snapshot``/``restore``."""

    def __init__(self, shape):
        self.surface = SurfaceModel(land_mask=np.zeros(shape[0]), sst=np.full(shape[0], 300.0))
        self.calls = 0

    def snapshot(self):
        return None

    def restore(self, snap):
        pass

    def compute_from_coupler(self, state, fields):
        self.calls += 1
        return self.tend


class _NaNPhysics(_FakeSuite):
    """Primary suite that always returns a poisoned tendency."""

    def __init__(self, shape):
        super().__init__(shape)
        z = np.zeros(shape)
        self.tend = _Tend(np.full(shape, np.nan), z, z[:, 0], z[:, 0])


class _GoodPhysics(_FakeSuite):
    def __init__(self, shape):
        super().__init__(shape)
        z = np.zeros(shape)
        self.tend = _Tend(z, z, z[:, 0], z[:, 0])


class _Fields:
    wind_speed_sfc = None


def test_resilient_physics_falls_back_on_nonfinite():
    shape = (8, 4)
    good = _GoodPhysics(shape)
    rp = ResilientPhysics(primary=_NaNPhysics(shape), fallback=good)
    with collecting(MetricsRegistry(enabled=True)) as metrics:
        tend = rp.compute_from_coupler(None, _Fields())
    assert np.isfinite(tend.dtheta).all()
    assert rp.fallbacks == 1 and good.calls == 1
    assert metrics.counters["recovery.physics_fallback"].value == 1


def test_resilient_physics_without_fallback_raises():
    rp = ResilientPhysics(primary=_NaNPhysics((4, 3)), fallback=None)
    with pytest.raises(StepFailure):
        rp.compute_from_coupler(None, _Fields())


def test_resilient_physics_spread_trigger():
    shape = (8, 4)
    primary = _GoodPhysics(shape)
    primary.tendency_net = type("N", (), {"last_max_spread_ratio": 99.0})()
    fallback = _GoodPhysics(shape)
    rp = ResilientPhysics(primary=primary, fallback=fallback)
    rp.compute_from_coupler(None, _Fields())
    assert rp.fallbacks == 1 and fallback.calls == 1
    primary.tendency_net.last_max_spread_ratio = 1.0
    rp.compute_from_coupler(None, _Fields())
    assert rp.fallbacks == 1                     # healthy: no new fallback


def test_injected_ml_blowup_poisons_then_recovers():
    shape = (32, 4)
    rp = ResilientPhysics(primary=_GoodPhysics(shape), fallback=_GoodPhysics(shape))
    plan = FaultPlan("p", (FaultSpec(FaultKind.ML_BLOWUP, at=(0,), max_events=1),))
    with injecting(plan, seed=0) as inj:
        tend = rp.compute_from_coupler(None, _Fields())
    assert np.isfinite(tend.dtheta).all()
    assert rp.fallbacks == 1
    assert inj.summary()["recovered_by_action"] == {"physics_fallback": 1}


@pytest.mark.parametrize("cadence", ["refresh", "cached"])
def test_conventional_fallback_takes_the_clean_step(mesh_g2, vcoord8s, cadence):
    """A conventional primary poisoned by ``ML_BLOWUP`` and a fallback of
    its class return the clean step's tendencies bit for bit, on a
    radiation-refresh step and on a cached-radiation step: the fallback
    is handed the primary's slab and radiation cadence from before it ran."""
    from repro.ensemble.scenarios import assemble_scenario_model, get_scenario
    from repro.physics.column import PhysicsSuite

    scen = get_scenario("tropical")
    plan = FaultPlan("p", (FaultSpec(FaultKind.ML_BLOWUP, at=(0,), max_events=1),))

    def step(poisoned):
        model = assemble_scenario_model(scen, mesh_g2, vcoord8s, "DP-PHY")
        physics = model.physics
        state = scen.member_state(mesh_g2, vcoord8s, 0, 0)
        fields = model.coupling_fields(state)
        rad_ratio = physics.primary.config.rad_ratio
        assert rad_ratio > 1
        for _ in range(rad_ratio if cadence == "refresh" else 1):
            physics.primary.compute_from_coupler(state, fields)
        if poisoned:
            physics.fallback = PhysicsSuite(
                mesh_g2, vcoord8s, model.surface, config=physics.primary.config
            )
            physics.injector = FaultInjector(plan, seed=0)
        tend = physics.compute_from_coupler(state, fields)
        assert physics.fallbacks == int(poisoned)
        return tend, model.surface.t_land

    contracts.bitwise(step(True), step(False))


# -- checkpoint store ----------------------------------------------------


def test_checkpoint_store_rolls_and_restores():
    store = CheckpointStore(keep=2)
    for step in range(5):
        store.save(step, {"v": step})
    assert len(store) == 2
    step, payload = store.latest()
    assert step == 4 and payload["v"] == 4
    assert store.saves == 5 and store.restores == 1


def test_checkpoint_store_empty_latest_raises():
    with pytest.raises(StepFailure):
        CheckpointStore().latest()
    with pytest.raises(ValueError):
        CheckpointStore(keep=0)


# -- zero-fault identity -------------------------------------------------


test_installed_empty_plan_is_bitwise_neutral = contracts.collect("observer", observer="injector")
