"""Tests of the SW26010P spec, omnicopy/DMA, the SWGOMP job server, and
the kernel timing model."""

import numpy as np
import pytest

from repro.sunway.arch import (
    CORES_PER_CG,
    MAX_SCALING_CGS,
    MAX_SCALING_CORES,
    SYSTEM_CORES,
    CoreGroup,
    SW26010P,
)
from repro.sunway.dma import MemorySpace, omnicopy
from repro.sunway.kernel import Engine, KernelSpec, KernelTimer, Precision
from repro.sunway.swgomp import JobServer, TargetRegion


class TestArchSpec:
    def test_cores_per_processor(self):
        assert SW26010P().cores == 390          # 6 CGs x (1 MPE + 64 CPEs)

    def test_system_scale_numbers(self):
        assert SYSTEM_CORES == 41_932_800       # section 4.1
        assert MAX_SCALING_CGS == 524_288
        assert MAX_SCALING_CORES == 34_078_720  # the title's "34 million"
        assert CORES_PER_CG == 65

    def test_cg_memory(self):
        cg = CoreGroup()
        assert cg.main_memory_bytes == 16 * 1024**3
        assert cg.memory_bandwidth == 51.2e9

    def test_sp_equals_dp_peak(self):
        """Paper: no SP FLOPs advantage except division/elementals."""
        cg = CoreGroup()
        assert cg.cpe.flops_sp == cg.cpe.flops_dp
        assert cg.cpe.div_cycles_sp < cg.cpe.div_cycles_dp


class TestOmnicopy:
    def test_memcpy_within_main(self):
        src = np.arange(100.0)
        dst = np.empty(100)
        rec = omnicopy(dst, src)
        np.testing.assert_array_equal(dst, src)
        assert rec.engine == "memcpy"

    def test_dma_when_crossing(self):
        src = np.arange(64.0)
        dst = np.empty(64)
        rec = omnicopy(dst, src, dst_space=MemorySpace.LDM, src_space=MemorySpace.MAIN)
        assert rec.engine == "dma"
        assert rec.seconds > 0

    def test_ldm_capacity_enforced(self):
        big = np.zeros(130 * 1024 // 8 + 16)
        with pytest.raises(MemoryError):
            omnicopy(big.copy(), big, dst_space=MemorySpace.LDM)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            omnicopy(np.zeros(3), np.zeros(4))


class TestJobServer:
    def test_requires_mpe_init(self):
        srv = JobServer()
        with pytest.raises(RuntimeError):
            srv.spawn("mpe", 0, "team_head")

    def test_target_region_spawns_team_heads(self):
        srv = JobServer()
        srv.init_from_mpe()
        TargetRegion(srv, n_teams=4)
        heads = [e for e in srv.spawn_log if e.role == "team_head"]
        assert len(heads) == 4
        assert all(e.spawner == "mpe" for e in heads)

    def test_parallel_for_executes_whole_range(self):
        srv = JobServer()
        srv.init_from_mpe()
        region = TargetRegion(srv, n_teams=1)
        out = np.zeros(1000)

        def body(s, e):
            out[s:e] += 1.0

        region.parallel_for(body, 1000)
        np.testing.assert_array_equal(out, 1.0)

    def test_team_members_spawned_by_heads(self):
        srv = JobServer()
        srv.init_from_mpe()
        region = TargetRegion(srv, n_teams=2)
        region.parallel_for(lambda s, e: None, 64)
        members = [e for e in srv.spawn_log if e.role == "team_member"]
        assert len(members) == 62            # 64 CPEs minus 2 heads
        assert all(e.spawner.startswith("cpe") for e in members)

    def test_static_schedule_balanced(self):
        srv = JobServer()
        srv.init_from_mpe()
        region = TargetRegion(srv)
        region.parallel_for(lambda s, e: None, 64_000, cost_per_elem=1e-9)
        assert srv.utilization() > 0.99

    def test_dynamic_schedule_balances_skewed_cost(self):
        srv = JobServer()
        srv.init_from_mpe()
        region = TargetRegion(srv)

        def cost(s, e):
            # Heavily skewed: late elements 100x more expensive.
            return sum(1e-9 * (100.0 if i > 60_000 else 1.0) for i in (s,)) * (e - s)

        t_static = region.parallel_for(lambda s, e: None, 64_000, cost_per_elem=cost,
                                       schedule="static")
        srv2 = JobServer()
        srv2.init_from_mpe()
        region2 = TargetRegion(srv2)
        t_dyn = region2.parallel_for(lambda s, e: None, 64_000, cost_per_elem=cost,
                                     schedule="dynamic", chunk=500)
        assert t_dyn < t_static

    def test_workshare(self):
        """``!$omp target parallel workshare``: an array op split over
        the CPEs as parallel-for chunks."""
        srv = JobServer()
        srv.init_from_mpe()
        region = TargetRegion(srv)
        arr = np.ones(500)

        region.parallel_for(lambda s, e: arr.__setitem__(slice(s, e), 0.0), arr.size)
        np.testing.assert_array_equal(arr, 0.0)

    def test_empty_range(self):
        srv = JobServer()
        srv.init_from_mpe()
        region = TargetRegion(srv)
        assert region.parallel_for(lambda s, e: None, 0) == 0.0

    def test_bad_schedule(self):
        srv = JobServer()
        srv.init_from_mpe()
        region = TargetRegion(srv)
        with pytest.raises(ValueError):
            region.parallel_for(lambda s, e: None, 10, schedule="guided2")

    def test_bad_schedule_rejected_for_empty_range_before_spawning(self):
        srv = JobServer()
        srv.init_from_mpe()
        region = TargetRegion(srv)
        spawned = len(srv.spawn_log)
        with pytest.raises(ValueError, match="unknown schedule"):
            region.parallel_for(lambda s, e: None, 0, schedule="bogus")
        assert len(srv.spawn_log) == spawned

    def test_negative_chunk_raises_instead_of_hanging(self, deadline):
        """``chunk=-1`` used to be kept by ``chunk or default`` and walk
        ``pos`` backwards forever."""
        srv = JobServer()
        srv.init_from_mpe()
        region = TargetRegion(srv)
        spawned = len(srv.spawn_log)
        with deadline(10):
            with pytest.raises(ValueError, match="chunk"):
                region.parallel_for(lambda s, e: None, 100,
                                    schedule="dynamic", chunk=-1)
        assert len(srv.spawn_log) == spawned

    def test_zero_chunk_means_default(self):
        def run(chunk):
            srv = JobServer()
            srv.init_from_mpe()
            out = np.zeros(1000)
            t = TargetRegion(srv).parallel_for(
                lambda s, e: out[s:e].__iadd__(1.0), 1000,
                cost_per_elem=1e-9, schedule="dynamic", chunk=chunk,
            )
            return t, [c.chunks_executed for c in srv.cpes], out

        t0, chunks0, out0 = run(0)
        t_none, chunks_none, _ = run(None)
        assert (t0, chunks0) == (t_none, chunks_none)
        np.testing.assert_array_equal(out0, 1.0)

    def test_server_tracer_records_region_and_chunks(self):
        from repro.obs import SpanKind, Tracer

        srv = JobServer()
        srv.init_from_mpe()
        srv.tracer = Tracer()
        region = TargetRegion(srv)
        region.parallel_for(lambda s, e: None, 640, cost_per_elem=1e-9,
                            name="my_kernel")
        seq = srv.tracer.span_sequence()
        assert seq[0] == ("kernel_launch", "my_kernel")
        assert seq.count(("chunk", "my_kernel")) == srv.cg.n_cpes
        region_span = next(
            s for s in srv.tracer.events if s.kind is SpanKind.KERNEL_LAUNCH
        )
        assert region_span.sim_seconds == pytest.approx(640 * 1e-9 / 64)
        chunk = next(s for s in srv.tracer.events if s.kind is SpanKind.CHUNK)
        assert chunk.cpe is not None
        assert chunk.args["end"] > chunk.args["start"]


class TestFastPathAccounting:
    """There is one accounting path: per-CPE ``busy_seconds``,
    ``chunks_executed``, the region time and the buffer contents are
    identical with a listener-only tracer attached to the server
    (``fast=False``) and with none (``fast=True``)."""

    @staticmethod
    def _launch(fast, n, cost, tracer=None):
        from repro.obs import Tracer

        srv = JobServer()
        srv.init_from_mpe()
        if tracer is None and not fast:
            tracer = Tracer(enabled=True, record=False)
        if tracer is not None:
            srv.tracer = tracer
        region = TargetRegion(srv)
        buf = np.zeros(max(n, 1))
        t = region.parallel_for(
            lambda s, e: buf[s:e].__iadd__(1.0), n, cost_per_elem=cost
        )
        return srv, buf, t

    @pytest.mark.parametrize("n", [0, 3, 64, 1000, 64_001])
    def test_scalar_cost_accounting_bitwise(self, n):
        srv_f, buf_f, t_f = self._launch(True, n, 1.25e-9)
        srv_r, buf_r, t_r = self._launch(False, n, 1.25e-9)
        assert t_f == t_r
        assert [c.busy_seconds for c in srv_f.cpes] == \
            [c.busy_seconds for c in srv_r.cpes]
        assert [c.chunks_executed for c in srv_f.cpes] == \
            [c.chunks_executed for c in srv_r.cpes]
        np.testing.assert_array_equal(buf_f, buf_r)

    def test_callable_cost_accounting_bitwise(self):
        def cost(s, e):
            return 1e-9 * (e - s) * (1.0 + 0.01 * s)

        srv_f, _, t_f = self._launch(True, 10_000, cost)
        srv_r, _, t_r = self._launch(False, 10_000, cost)
        assert t_f == t_r
        assert [c.busy_seconds for c in srv_f.cpes] == \
            [c.busy_seconds for c in srv_r.cpes]

    def test_observers_force_reference_path(self):
        """CHUNK-span listeners see every chunk's open and close, and
        attaching them does not change the chunk count."""
        from repro.obs import SpanKind, Tracer

        events = []

        class Recorder:
            def on_span_open(self, span):
                if span.kind is SpanKind.CHUNK:
                    events.append(("b", span.cpe, span.args["start"]))

            def on_span_close(self, span):
                if span.kind is SpanKind.CHUNK:
                    events.append(("e", span.cpe, span.args["start"]))

        tracer = Tracer(enabled=True, record=False)
        tracer.add_listener(Recorder())
        srv, _, _ = self._launch(True, 640, 1e-9, tracer=tracer)
        n_chunks = sum(c.chunks_executed for c in srv.cpes)
        assert len(events) == 2 * n_chunks
        assert n_chunks == srv.cg.n_cpes

    def test_tracer_forces_reference_path(self):
        """A recording tracer retains one CHUNK span per executed chunk."""
        from repro.obs import SpanKind, Tracer

        tracer = Tracer()
        srv, _, _ = self._launch(True, 640, 1e-9, tracer=tracer)
        chunks = [s for s in tracer.events if s.kind is SpanKind.CHUNK]
        assert len(chunks) == srv.cg.n_cpes

    def test_static_bounds_cached_and_frozen(self):
        from repro.sunway.swgomp import _static_bounds

        b1 = _static_bounds(1000, 64)
        b2 = _static_bounds(1000, 64)
        assert b1 is b2                      # lru_cache hit
        assert not b1.flags.writeable
        assert b1[0] == 0 and b1[-1] == 1000
        with pytest.raises(ValueError):
            b1[0] = 5


class TestKernelTimer:
    def setup_method(self):
        self.timer = KernelTimer()
        self.spec = KernelSpec(
            "k", flops_per_elem=20, arrays_streamed=8,
            divisions_per_elem=1.0, mixed_data_fraction=0.9,
            mixed_flop_fraction=0.9,
        )

    def test_zero_elements(self):
        t = self.timer.time(self.spec, 0, Engine.CPE_ARRAY)
        assert t.seconds == 0.0

    def test_cpe_faster_than_mpe(self):
        n = 100_000
        t_mpe = self.timer.time(self.spec, n, Engine.MPE)
        t_cpe = self.timer.time(self.spec, n, Engine.CPE_ARRAY, distributed=True)
        assert t_cpe.seconds < t_mpe.seconds

    def test_mpe_compute_bound_cpe_memory_bound(self):
        """The paper's section 4.6 observation."""
        n = 100_000
        t_mpe = self.timer.time(self.spec, n, Engine.MPE)
        t_cpe = self.timer.time(self.spec, n, Engine.CPE_ARRAY, distributed=True)
        assert t_mpe.bound == "compute"
        assert t_cpe.bound == "memory"

    def test_distribution_helps_many_array_kernels(self):
        n = 100_000
        t_thrash = self.timer.time(self.spec, n, Engine.CPE_ARRAY, distributed=False)
        t_dist = self.timer.time(self.spec, n, Engine.CPE_ARRAY, distributed=True)
        assert t_dist.seconds < t_thrash.seconds
        assert t_dist.hit_ratio > t_thrash.hit_ratio

    def test_distribution_noop_for_few_arrays(self):
        spec = KernelSpec("s", flops_per_elem=10, arrays_streamed=3)
        n = 100_000
        t1 = self.timer.time(spec, n, Engine.CPE_ARRAY, distributed=False)
        t2 = self.timer.time(spec, n, Engine.CPE_ARRAY, distributed=True)
        assert t1.seconds == t2.seconds

    def test_mixed_precision_helps_memory_bound(self):
        n = 100_000
        t_dp = self.timer.time(self.spec, n, Engine.CPE_ARRAY, Precision.DP, True)
        t_mx = self.timer.time(self.spec, n, Engine.CPE_ARRAY, Precision.MIXED, True)
        assert t_mx.seconds < t_dp.seconds

    def test_mixed_no_data_fraction_no_memory_gain(self):
        spec = KernelSpec("c", flops_per_elem=10, arrays_streamed=3,
                          mixed_data_fraction=0.0)
        n = 100_000
        t_dp = self.timer.time(spec, n, Engine.CPE_ARRAY, Precision.DP, True)
        t_mx = self.timer.time(spec, n, Engine.CPE_ARRAY, Precision.MIXED, True)
        assert t_mx.seconds == t_dp.seconds

    def test_fig9_speedup_band(self):
        """AE appendix: ~20-70x for major kernels (optimised variant)."""
        from repro.dycore.kernels import MAJOR_KERNELS

        n = 41_000 * 30
        for reg in MAJOR_KERNELS.values():
            s = self.timer.speedup_vs_mpe_dp(reg.spec, n, Precision.MIXED, True)
            assert 10.0 < s < 80.0, f"{reg.spec.name}: {s}"

    def test_division_heavy_kernel_gains_most_from_mixed(self):
        div_heavy = KernelSpec("d", flops_per_elem=20, arrays_streamed=4,
                               divisions_per_elem=3.0, specials_per_elem=1.0,
                               mixed_data_fraction=0.5, mixed_flop_fraction=1.0)
        div_free = KernelSpec("f", flops_per_elem=20, arrays_streamed=4,
                              divisions_per_elem=0.0,
                              mixed_data_fraction=0.5, mixed_flop_fraction=1.0)
        n = 50_000
        def gain(spec):
            dp = self.timer.time(spec, n, Engine.MPE, Precision.DP).seconds
            mx = self.timer.time(spec, n, Engine.MPE, Precision.MIXED).seconds
            return dp / mx
        assert gain(div_heavy) > gain(div_free)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            self.timer.time(self.spec, -1, Engine.MPE)
