"""Tests of the communication layer: messages, halo exchange (with the
aggregation optimisation) and the fat-tree model."""

import numpy as np
import pytest

from repro.comm.message import Communicator
from repro.comm.topology import SUNWAY_TOPOLOGY, FatTreeTopology
from repro.grid.mesh import build_mesh
from repro.parallel.exchange import EdgeCellExchanger
from repro.parallel.localmesh import build_local_meshes
from repro.partition.decomposition import decompose
from repro.partition.graph import mesh_cell_graph
from repro.partition.metis import partition_graph


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(2)


@pytest.fixture(scope="module")
def part(mesh):
    return partition_graph(mesh_cell_graph(mesh), 4, seed=0)


@pytest.fixture(scope="module")
def subs(mesh, part):
    return decompose(mesh, 4, part=part)


@pytest.fixture(scope="module")
def locals_(mesh, subs, part):
    return build_local_meshes(mesh, subs, part)


class TestCommunicator:
    def test_send_recv_roundtrip(self):
        comm = Communicator(2)
        buf = np.arange(10.0)
        comm.send(0, 1, buf)
        out = comm.recv(0, 1)
        np.testing.assert_array_equal(out, buf)
        assert comm.pending() == 0

    def test_send_copies_buffer(self):
        comm = Communicator(2)
        buf = np.arange(4.0)
        comm.send(0, 1, buf)
        buf[:] = -1
        np.testing.assert_array_equal(comm.recv(0, 1), np.arange(4.0))

    def test_recv_before_send_raises(self):
        comm = Communicator(2)
        with pytest.raises(RuntimeError):
            comm.recv(0, 1)

    def test_double_send_same_tag_raises(self):
        comm = Communicator(2)
        comm.send(0, 1, np.zeros(1))
        with pytest.raises(RuntimeError):
            comm.send(0, 1, np.zeros(1))

    def test_stats_accounting(self):
        comm = Communicator(3)
        comm.send(0, 1, np.zeros(8))   # 64 bytes
        comm.send(1, 2, np.zeros(4))   # 32 bytes
        assert comm.stats.messages == 2
        assert comm.stats.bytes_sent == 96
        assert comm.stats.per_pair[(0, 1)] == 64

    def test_rank_range_checked(self):
        comm = Communicator(2)
        with pytest.raises(ValueError):
            comm.send(0, 5, np.zeros(1))


class TestCollectiveAccounting:
    """No model path runs a collective, so the communicator accounts
    point-to-point messages only, into a guarded metrics feed."""

    def test_metrics_feed_and_disabled_guard(self):
        from repro.obs import collecting, get_metrics

        comm = Communicator(2)
        with collecting() as r:
            comm.send(0, 1, np.zeros(4))
            comm.recv(0, 1)
        snap = r.snapshot()
        assert snap["counters"]["comm.messages"] == 1.0
        assert snap["counters"]["comm.bytes"] == 32.0
        assert not any(k.startswith("comm.collective") for k in snap["counters"])
        # Outside `collecting`, the default registry is disabled; the
        # guard must keep the record path from emitting anything.
        assert not get_metrics().enabled
        comm.send(0, 1, np.zeros(1))
        comm.recv(0, 1)
        with collecting() as r2:
            pass
        assert "comm.messages" not in r2.snapshot()["counters"]


def _scatter(locals_, gfield):
    return [lm.scatter_cell_field(gfield) for lm in locals_]


class TestHaloExchange:
    def test_exchange_fills_halo(self, mesh, locals_):
        ex = EdgeCellExchanger(locals_)
        rng = np.random.default_rng(0)
        gfield = rng.normal(size=(mesh.nc, 3))
        per = _scatter(locals_, gfield)
        ex.register_cell("T", per)
        for lm, arr in zip(locals_, per):
            arr[lm.n_owned_cells:] = np.nan
        ex.exchange()
        for lm, arr in zip(locals_, per):
            np.testing.assert_array_equal(arr, gfield[lm.cells])

    def test_exchange_1d_and_3d_fields(self, mesh, locals_):
        ex = EdgeCellExchanger(locals_)
        rng = np.random.default_rng(1)
        f1 = rng.normal(size=mesh.nc)
        f3 = rng.normal(size=(mesh.nc, 4, 2))
        p1, p3 = _scatter(locals_, f1), _scatter(locals_, f3)
        ex.register_cell("a", p1)
        ex.register_cell("b", p3)
        for lm, a, b in zip(locals_, p1, p3):
            a[lm.n_owned_cells:] = -1
            b[lm.n_owned_cells:] = -1
        ex.exchange()
        for lm, a, b in zip(locals_, p1, p3):
            np.testing.assert_array_equal(a, f1[lm.cells])
            np.testing.assert_array_equal(b, f3[lm.cells])

    def test_aggregation_message_count(self, mesh, locals_):
        """The section 3.1.3 claim: one message per pair regardless of
        how many variables are registered.  The unaggregated baseline is
        one single-field exchanger per variable on a shared communicator."""
        rng = np.random.default_rng(2)
        fields = {n: _scatter(locals_, rng.normal(size=mesh.nc)) for n in "abcd"}
        ex = EdgeCellExchanger(locals_)
        for name, per in fields.items():
            ex.register_cell(name, per)
        ex.exchange()
        agg = ex.comm.stats.messages
        assert agg == ex.messages_per_exchange()
        comm = Communicator(len(locals_))
        for name, per in fields.items():
            single = EdgeCellExchanger(locals_, comm)
            single.register_cell(name, per)
            single.exchange()
        assert comm.stats.messages == 4 * agg

    def test_unaggregated_same_result(self, mesh, locals_):
        rng = np.random.default_rng(3)
        gfields = {n: rng.normal(size=mesh.nc) for n in "xy"}
        comm = Communicator(len(locals_))
        for name, gfield in gfields.items():
            per = _scatter(locals_, gfield)
            for lm, arr in zip(locals_, per):
                arr[lm.n_owned_cells:] = np.nan
            single = EdgeCellExchanger(locals_, comm)
            single.register_cell(name, per)
            single.exchange()
            for lm, arr in zip(locals_, per):
                np.testing.assert_array_equal(arr, gfield[lm.cells])

    def test_shape_mismatch_rejected(self, locals_):
        ex = EdgeCellExchanger(locals_)
        with pytest.raises(ValueError):
            ex.register_cell("bad", [np.zeros(3) for _ in locals_])

    @pytest.mark.parametrize("size", [2, 6])
    def test_communicator_size_mismatch_rejected(self, locals_, size):
        """A communicator with too few ranks used to fail mid-exchange
        with sends already posted; one with too many was accepted."""
        with pytest.raises(ValueError, match="communicator size"):
            EdgeCellExchanger(locals_, Communicator(size))


class TestFatTreeTopology:
    def test_locality_tiers(self):
        t = FatTreeTopology()
        assert t.latency_intra_super < t.latency_inter_super
        # The same exchange is dearer the more of it leaves the supernode.
        local = t.exchange_time(10_000, 6, 1e5, cross_fraction=0.0)
        cross = t.exchange_time(10_000, 6, 1e5, cross_fraction=1.0)
        assert local < cross

    def test_supernode_mapping(self):
        t = FatTreeTopology()
        assert t.processes_per_supernode == 1536
        # A job of up to 1536 ranks fits one supernode: no uplink
        # contention; one rank more spans two.
        assert t.contention_factor(1536, 1.0) == 1.0
        assert t.contention_factor(1537, 1.0) > 1.0

    def test_contention_only_across_supernodes(self):
        t = FatTreeTopology()
        assert t.contention_factor(1000, 0.5) == 1.0
        assert t.contention_factor(10_000, 0.5) > 1.0

    def test_contention_bounded_by_oversubscription(self):
        t = FatTreeTopology()
        f = t.contention_factor(10_000_000, 1.0)
        assert f == pytest.approx(t.oversubscription)

    def test_exchange_time_monotone_in_bytes(self):
        t = SUNWAY_TOPOLOGY
        t1 = t.exchange_time(4096, 6, 1e4)
        t2 = t.exchange_time(4096, 6, 1e6)
        assert t2 > t1

    def test_exchange_time_single_process_zero(self):
        assert SUNWAY_TOPOLOGY.exchange_time(1, 6, 1e6) == 0.0
