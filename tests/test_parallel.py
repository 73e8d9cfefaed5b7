"""Tests of the distributed-memory execution layer: local meshes,
cell+edge aggregated exchange, and serial-equivalence of the driver."""

import numpy as np
import pytest

from repro.dycore.solver import DycoreConfig, DynamicalCore
from repro.dycore.state import baroclinic_wave_state, solid_body_rotation_state
from repro.dycore.stencil import BACKENDS
from repro.dycore.vertical import VerticalCoordinate
from repro.grid.mesh import PAD, build_mesh
from repro.parallel.driver import DistributedDycore
from repro.parallel.exchange import EdgeCellExchanger
from repro.parallel.localmesh import build_local_meshes
from repro.partition.decomposition import decompose
from repro.partition.graph import mesh_cell_graph
from repro.partition.metis import partition_graph
from tests import contracts
from tests.contracts import RANKED, gathered, ranked_run


def _serial(state):
    return {k: getattr(state, k) for k in RANKED}


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(3)


@pytest.fixture(scope="module")
def setup(mesh):
    part = partition_graph(mesh_cell_graph(mesh), 4, seed=0)
    subs = decompose(mesh, 4, part=part)
    locals_ = build_local_meshes(mesh, subs, part)
    return part, subs, locals_


class TestLocalMesh:
    def test_owned_cells_lead_numbering(self, setup):
        part, subs, locals_ = setup
        for lm, sub in zip(locals_, subs):
            np.testing.assert_array_equal(
                lm.cells[: lm.n_owned_cells], sub.local_cells[: sub.n_owned]
            )

    def test_two_ring_halo(self, mesh, setup):
        """Every neighbour of a first-ring halo cell is local."""
        part, subs, locals_ = setup
        for lm, sub in zip(locals_, subs):
            local_set = set(lm.cells.tolist())
            halo1 = sub.local_cells[sub.n_owned:]
            for c in halo1:
                for nb in mesh.cell_neighbors[c]:
                    if nb != PAD:
                        assert int(nb) in local_set

    def test_local_edges_cover_ring1_cells(self, mesh, setup):
        part, subs, locals_ = setup
        for lm, sub in zip(locals_, subs):
            edge_set = set(lm.edges.tolist())
            for c in sub.local_cells:
                for e in mesh.cell_edges[c]:
                    if e != PAD:
                        assert int(e) in edge_set

    def test_local_edge_endpoints_resolve(self, setup):
        """Both cells of every local edge are local (no dangling refs)."""
        part, subs, locals_ = setup
        for lm in locals_:
            assert lm.mesh.edge_cells.min() >= 0
            assert lm.mesh.edge_cells.max() < lm.n_cells

    def test_edge_ownership_partition(self, mesh, setup):
        """Every global edge is owned by exactly one rank."""
        part, subs, locals_ = setup
        owned = np.concatenate([lm.edges[: lm.n_owned_edges] for lm in locals_])
        assert np.array_equal(np.sort(owned), np.arange(mesh.ne))

    def test_geometry_preserved(self, mesh, setup):
        part, subs, locals_ = setup
        for lm in locals_:
            np.testing.assert_array_equal(lm.mesh.de, mesh.de[lm.edges])
            np.testing.assert_array_equal(
                lm.mesh.cell_area, mesh.cell_area[lm.cells]
            )

    def test_send_recv_mirrors(self, setup):
        part, subs, locals_ = setup
        for lm in locals_:
            for r, recv_idx in lm.cell_recv.items():
                peer = locals_[r]
                send_idx = peer.cell_send[lm.rank]
                np.testing.assert_array_equal(
                    peer.cells[send_idx], lm.cells[recv_idx]
                )
            for r, recv_idx in lm.edge_recv.items():
                peer = locals_[r]
                send_idx = peer.edge_send[lm.rank]
                np.testing.assert_array_equal(
                    peer.edges[send_idx], lm.edges[recv_idx]
                )


class TestEdgeCellExchanger:
    def test_fills_cell_and_edge_halos(self, mesh, setup):
        part, subs, locals_ = setup
        rng = np.random.default_rng(0)
        gc = rng.normal(size=(mesh.nc, 3))
        ge = rng.normal(size=(mesh.ne, 3))
        pc = [lm.scatter_cell_field(gc) for lm in locals_]
        pe = [lm.scatter_edge_field(ge) for lm in locals_]
        for lm, a, b in zip(locals_, pc, pe):
            a[lm.n_owned_cells:] = np.nan
            b[lm.n_owned_edges:] = np.nan
        ex = EdgeCellExchanger(locals_)
        ex.register_cell("c", pc)
        ex.register_edge("e", pe)
        ex.exchange()
        for lm, a, b in zip(locals_, pc, pe):
            np.testing.assert_allclose(a, gc[lm.cells])
            np.testing.assert_allclose(b, ge[lm.edges])

    def test_single_message_per_pair(self, mesh, setup):
        part, subs, locals_ = setup
        ex = EdgeCellExchanger(locals_)
        rng = np.random.default_rng(1)
        for i in range(3):
            ex.register_cell(
                f"c{i}",
                [lm.scatter_cell_field(rng.normal(size=mesh.nc)) for lm in locals_],
            )
        ex.register_edge("u", [lm.scatter_edge_field(rng.normal(size=mesh.ne)) for lm in locals_])
        ex.comm.stats.reset()
        ex.exchange()
        assert ex.comm.stats.messages == ex.messages_per_exchange()

    def test_shape_check(self, setup):
        part, subs, locals_ = setup
        ex = EdgeCellExchanger(locals_)
        with pytest.raises(ValueError):
            ex.register_cell("bad", [np.zeros(3) for _ in locals_])

    def test_inconsistent_dtype_across_ranks_rejected(self, setup):
        part, subs, locals_ = setup
        ex = EdgeCellExchanger(locals_)
        fields = [np.zeros(lm.n_cells) for lm in locals_]
        fields[1] = fields[1].astype(np.float32)
        with pytest.raises(ValueError):
            ex.register_cell("bad", fields)


class TestExchangePlans:
    """The compiled exchange-plan layer: dtype preservation, true byte
    accounting, and zero per-step recompilation/allocation."""

    def _mixed_fields(self, mesh, locals_, seed=0):
        """A float64 cell field, a float32 cell field (the MIX dtype of
        insensitive terms), and a float32 edge field."""
        rng = np.random.default_rng(seed)
        g64 = rng.normal(size=(mesh.nc, 3))
        g32 = rng.normal(size=(mesh.nc, 2)).astype(np.float32)
        ge32 = rng.normal(size=mesh.ne).astype(np.float32)
        p64 = [lm.scatter_cell_field(g64) for lm in locals_]
        p32 = [lm.scatter_cell_field(g32) for lm in locals_]
        pe32 = [lm.scatter_edge_field(ge32) for lm in locals_]
        return (g64, g32, ge32), (p64, p32, pe32)

    def test_mixed_dtype_roundtrip(self, mesh, setup):
        """(a) float32 fields round-trip with dtype AND values intact."""
        part, subs, locals_ = setup
        (g64, g32, ge32), (p64, p32, pe32) = self._mixed_fields(mesh, locals_)
        for lm, a, b, c in zip(locals_, p64, p32, pe32):
            a[lm.n_owned_cells:] = np.nan
            b[lm.n_owned_cells:] = np.nan
            c[lm.n_owned_edges:] = np.nan
        ex = EdgeCellExchanger(locals_)
        ex.register_cell("t64", p64)
        ex.register_cell("q32", p32)
        ex.register_edge("u32", pe32)
        ex.exchange()
        for lm, a, b, c in zip(locals_, p64, p32, pe32):
            assert a.dtype == np.float64
            assert b.dtype == np.float32
            assert c.dtype == np.float32
            # Bitwise: the wire never leaves the field's own dtype.
            np.testing.assert_array_equal(a, g64[lm.cells])
            np.testing.assert_array_equal(b, g32[lm.cells])
            np.testing.assert_array_equal(c, ge32[lm.edges])

    def test_no_float64_in_payload_path(self, mesh, setup):
        """Every compiled slot views the wire buffer at the field's own
        dtype; the buffer itself is raw bytes."""
        part, subs, locals_ = setup
        _, (p64, p32, pe32) = self._mixed_fields(mesh, locals_)
        ex = EdgeCellExchanger(locals_)
        ex.register_cell("t64", p64)
        ex.register_cell("q32", p32)
        ex.register_edge("u32", pe32)
        dtype_of = {"t64": np.float64, "q32": np.float32, "u32": np.float32}
        for plan in ex.plans.values():
            assert plan.send_buffer.dtype == np.uint8
            for slot in plan.send_slots:
                assert slot.view.dtype == dtype_of[slot.name]
            for slot in plan.recv_slots:
                assert slot.dtype == dtype_of[slot.name]

    def test_true_wire_bytes_mixed(self, mesh, setup):
        """bytes_sent counts 4 bytes/elem for float32 fields, not 8."""
        part, subs, locals_ = setup
        _, (p64, p32, pe32) = self._mixed_fields(mesh, locals_)
        ex = EdgeCellExchanger(locals_)
        ex.register_cell("t64", p64)
        ex.register_cell("q32", p32)
        ex.register_edge("u32", pe32)
        expected = 0
        for lm in locals_:
            for idx in lm.cell_send.values():
                expected += idx.size * 3 * 8 + idx.size * 2 * 4
            for idx in lm.edge_send.values():
                expected += idx.size * 4
        ex.comm.stats.reset()
        ex.exchange()
        assert ex.comm.stats.bytes_sent == expected
        assert ex.bytes_per_exchange() == expected

    def test_plan_reuse_no_recompile_no_realloc(self, mesh, setup):
        """(b) the second exchange reuses the compiled plans and wire
        buffers — no recompilation, no concatenation, no fresh pack
        allocation — and the aggregation metric is unchanged."""
        part, subs, locals_ = setup
        rng = np.random.default_rng(3)
        pc = [lm.scatter_cell_field(rng.normal(size=(mesh.nc, 4))) for lm in locals_]
        pe = [lm.scatter_edge_field(rng.normal(size=mesh.ne)) for lm in locals_]
        ex = EdgeCellExchanger(locals_)
        ex.register_cell("c", pc)
        ex.register_edge("e", pe)
        ex.exchange()
        assert ex.plan_compilations == 1
        plans_before = ex._plans
        buffer_ids = {k: id(p.send_buffer) for k, p in plans_before.items()}
        view_ids = {
            (k, s.name): id(s.view)
            for k, p in plans_before.items() for s in p.send_slots
        }
        msgs_per = ex.messages_per_exchange()
        import unittest.mock as mock
        with mock.patch.object(
            np, "concatenate",
            side_effect=AssertionError("hot path must not concatenate"),
        ):
            ex.exchange()
            ex.exchange()
        assert ex.plan_compilations == 1
        assert ex._plans is plans_before
        assert {k: id(p.send_buffer) for k, p in ex._plans.items()} == buffer_ids
        assert {
            (k, s.name): id(s.view)
            for k, p in ex._plans.items() for s in p.send_slots
        } == view_ids
        assert ex.messages_per_exchange() == msgs_per
        assert ex.comm.stats.messages == 3 * msgs_per

    def test_register_invalidates_plan(self, mesh, setup):
        part, subs, locals_ = setup
        rng = np.random.default_rng(4)
        gc = rng.normal(size=mesh.nc)
        pc = [lm.scatter_cell_field(gc) for lm in locals_]
        ex = EdgeCellExchanger(locals_)
        ex.register_cell("a", pc)
        ex.exchange()
        assert ex.plan_compilations == 1
        g2 = rng.normal(size=(mesh.nc, 2)).astype(np.float32)
        p2 = [lm.scatter_cell_field(g2) for lm in locals_]
        for lm, arr in zip(locals_, p2):
            arr[lm.n_owned_cells:] = np.nan
        ex.register_cell("b", p2)
        ex.exchange()
        assert ex.plan_compilations == 2
        for lm, arr in zip(locals_, p2):
            np.testing.assert_array_equal(arr, g2[lm.cells])

    def test_replace_same_layout_keeps_plan(self, mesh, setup):
        part, subs, locals_ = setup
        rng = np.random.default_rng(5)
        pc = [lm.scatter_cell_field(rng.normal(size=mesh.nc)) for lm in locals_]
        ex = EdgeCellExchanger(locals_)
        ex.register_cell("a", pc)
        ex.exchange()
        # New values written into the registered arrays (what the
        # driver's re-scatter does) travel on the compiled plan.
        g2 = rng.normal(size=mesh.nc)
        for lm, arr in zip(locals_, pc):
            arr[: lm.n_owned_cells] = g2[lm.cells[: lm.n_owned_cells]]
            arr[lm.n_owned_cells:] = np.nan
        ex.exchange()
        assert ex.plan_compilations == 1
        for lm, arr in zip(locals_, pc):
            np.testing.assert_array_equal(arr, g2[lm.cells])
        # Re-registering with another dtype does force a recompile.
        ex.register_cell("a", [arr.astype(np.float32) for arr in pc])
        ex.exchange()
        assert ex.plan_compilations == 2


@pytest.mark.ranks
class TestSerialEquivalence:
    """The ``ranks`` row (``tests/contracts.py``) over rank counts, step
    counts and plan reuse, per stencil backend by name (the loops keep
    the test ids stable); its 4-rank matrix runs in
    ``test_contracts.py``."""

    @pytest.mark.parametrize("nparts", [1, 2, 4, 7])
    def test_solid_body_bitwise(self, mesh, nparts):
        """Every ``SSP_RK3`` row: the single-weight first row and both
        combined rows."""
        vc = VerticalCoordinate.uniform(5)
        st0 = solid_body_rotation_state(mesh, vc)
        for backend in BACKENDS:
            cfg = DycoreConfig(dt=600.0, stencil_backend=backend)
            s = DynamicalCore(mesh, vc, cfg).run(st0.copy(), 4)
            with contracts.ranked(mesh, vc, cfg, st0, nparts=nparts) as dist:
                dist.run(4)
                contracts.agree("ranks", gathered(dist), _serial(s))
                # A single rank has no neighbour: it never sends.
                assert (dist.comm_stats()["messages"] == 0) == (nparts == 1)

    def test_baroclinic_wave_bitwise(self, mesh):
        vc = VerticalCoordinate.uniform(5)
        st0 = baroclinic_wave_state(mesh, vc)
        for backend in BACKENDS:
            cfg = DycoreConfig(dt=450.0, stencil_backend=backend)
            contracts.agree("ranks", ranked_run(mesh, vc, cfg, st0, steps=6, nparts=5),
                            _serial(DynamicalCore(mesh, vc, cfg).run(st0.copy(), 6)))

    test_mixed_precision_distributed = contracts.collect(
        "ranks", backend="fused", precision="MIX", workers=1, sponge=0, scenario="solid-body")

    def test_bitwise_across_plan_reuse_checkpoints(self, mesh):
        """(c) equality holds at successive checkpoints of ONE distributed
        run — the compiled plans and the rank states are reused across
        all steps without drift."""
        vc = VerticalCoordinate.uniform(5)
        st0 = solid_body_rotation_state(mesh, vc)
        serial, s = DynamicalCore(mesh, vc, DycoreConfig(dt=600.0)), st0.copy()
        with contracts.ranked(mesh, vc, serial.config, st0) as dist:
            for _ in range(3):
                s = serial.run(s, 2)
                dist.run(2)
                contracts.agree("ranks", gathered(dist), _serial(s))
            assert dist._exchanger.plan_compilations == 1

    def test_requires_scatter_first(self, mesh):
        vc = VerticalCoordinate.uniform(5)
        dist = DistributedDycore(mesh, vc, DycoreConfig(dt=600.0), nparts=2)
        with pytest.raises(RuntimeError):
            dist.step()

    def test_nonhydrostatic_config_rejected(self, mesh):
        """The driver runs no implicit w solve; it used to accept the
        config and step every rank on an all-zero geopotential."""
        cfg = DycoreConfig(dt=600.0, nonhydrostatic=True)
        with pytest.raises(ValueError, match="hydrostatic-only"):
            DistributedDycore(mesh, VerticalCoordinate.uniform(5), cfg, nparts=2)

    def test_comm_accounting(self, mesh):
        vc = VerticalCoordinate.uniform(5)
        dist = DistributedDycore(mesh, vc, DycoreConfig(dt=600.0), nparts=4)
        dist.scatter(solid_body_rotation_state(mesh, vc))
        dist.run(2)
        stats = dist.comm_stats()
        # 3 RK stages + 1 pre-sponge exchange per step, x 2 steps.
        assert stats["messages"] == 8 * stats["messages_per_exchange"]
        assert stats["bytes"] > 0

    def test_comm_stats_split_timings(self, mesh):
        """The benchmark reads exactly these keys; the exchange wall
        time splits into pack + unpack + the remaining wire seconds."""
        vc = VerticalCoordinate.uniform(5)
        dist = DistributedDycore(mesh, vc, DycoreConfig(dt=600.0), nparts=4)
        dist.scatter(solid_body_rotation_state(mesh, vc))
        dist.run(1)
        cs = dist.comm_stats()
        assert set(cs) == {
            "messages", "bytes", "messages_per_exchange",
            "exchange_seconds_total", "pack_seconds", "unpack_seconds",
            "wire_seconds",
        }
        assert cs["exchange_seconds_total"] > 0.0
        assert cs["pack_seconds"] + cs["unpack_seconds"] <= (
            cs["exchange_seconds_total"] + 1e-9
        )
