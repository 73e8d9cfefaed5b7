"""Tests of the runtime sanitizer: shadow arrays, chunk observation
through the real job server, and static-verdict verification."""

import numpy as np
import pytest

from repro.analysis.access import AccessSpec, ArrayAccess, OffloadPlan, PlannedLoop
from repro.analysis.corpus import KNOWN_BAD_CORPUS
from repro.analysis.diagnostics import CONFIRMED, FALSE_POSITIVE
from repro.analysis.sanitizer import Sanitizer, ShadowArray, _Recorder
from repro.analysis.static import analyze_plan
from repro.sunway.arch import CoreGroup
from repro.sunway.swgomp import JobServer, SWGOMPError, TargetRegion


class TestShadowArray:
    def _shadow(self, n=16):
        rec = _Recorder()
        rec.begin_chunk(cpe=0, start=0, end=n)
        return ShadowArray("x", np.arange(n, dtype=float), rec), rec

    def test_records_slice_read(self):
        sh, rec = self._shadow()
        _ = sh[2:5]
        assert rec._current.reads["x"] == {2, 3, 4}

    def test_records_scalar_and_negative_index(self):
        sh, rec = self._shadow(8)
        _ = sh[3]
        _ = sh[-1]
        assert rec._current.reads["x"] == {3, 7}

    def test_records_fancy_index_write(self):
        sh, rec = self._shadow()
        sh[np.array([1, 5, 5])] = 0.0
        assert rec._current.writes["x"] == {1, 5}

    def test_records_first_axis_of_tuple_key(self):
        rec = _Recorder()
        rec.begin_chunk(0, 0, 4)
        sh = ShadowArray("m", np.zeros((4, 3)), rec)
        sh[1, 2] = 9.0
        assert rec._current.writes["m"] == {1}

    def test_data_passthrough_values(self):
        sh, _ = self._shadow(4)
        np.testing.assert_allclose(sh[1:3], [1.0, 2.0])
        sh[0] = 7.0
        assert sh.data[0] == 7.0

    def test_no_recording_outside_chunk(self):
        sh, rec = self._shadow(4)
        rec.end_chunk(0, 0, 4)
        _ = sh[0]
        assert rec.chunks[0].reads == {}


class TestChunkObservers:
    def test_observer_sees_every_chunk(self):
        from repro.obs import Tracer

        server = JobServer(CoreGroup(n_cpes=4))
        server.init_from_mpe()
        rec = _Recorder()
        server.tracer = Tracer(enabled=True, record=False)
        server.tracer.add_listener(rec)
        TargetRegion(server).parallel_for(lambda s, e: None, 100)
        spans = sorted((c.start, c.end) for c in rec.chunks)
        assert spans[0][0] == 0
        assert spans[-1][1] == 100
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    def test_launch_before_init_raises_typed_error(self):
        cold = JobServer(CoreGroup(n_cpes=4))
        with pytest.raises(SWGOMPError):
            TargetRegion(cold)
        # Still a RuntimeError, so existing callers keep working.
        assert issubclass(SWGOMPError, RuntimeError)


def _disjoint_scatter_plan():
    """Statically suspect (write at nbr(i)) but dynamically disjoint:
    the neighbour table is the identity permutation."""
    n = 64
    arrays = {
        "idx": np.arange(n, dtype=np.int64),
        "out": np.zeros(n),
    }

    def body(a, s, e):
        targets = a["idx"][s:e]
        for j, t in enumerate(targets):
            a["out"][int(t)] = float(s + j)

    plan = OffloadPlan(
        name="disjoint_scatter",
        loops=[PlannedLoop(
            name="scatter",
            access=AccessSpec.of(
                ArrayAccess("idx", mode="r", index="i"),
                ArrayAccess("out", mode="w", index="nbr(i)"),
            ),
            n_iters=n,
            body=body,
        )],
    )
    return plan, arrays


class TestVerification:
    def test_seeded_race_is_confirmed(self):
        """The headline feedback loop: static SW001 -> observed race."""
        plan, arrays = KNOWN_BAD_CORPUS["racy_flux_accumulation"].build()
        diags = analyze_plan(plan)
        Sanitizer(n_cpes=8).verify(plan, arrays, diags)
        sw001 = [d for d in diags if d.rule == "SW001"]
        assert len(sw001) == 1
        assert sw001[0].verdict == CONFIRMED
        assert sw001[0].details["observed_race_count"] > 0

    def test_disjoint_scatter_is_false_positive(self):
        plan, arrays = _disjoint_scatter_plan()
        diags = analyze_plan(plan)
        assert any(d.rule == "SW001" for d in diags)   # statically suspect
        Sanitizer(n_cpes=8).verify(plan, arrays, diags)
        sw001 = [d for d in diags if d.rule == "SW001"]
        assert sw001[0].verdict == FALSE_POSITIVE
        assert sw001[0].details["observed_race_count"] == 0

    def test_race_execution_still_produces_results(self):
        plan, arrays = KNOWN_BAD_CORPUS["racy_flux_accumulation"].build()
        Sanitizer(n_cpes=8).run_plan(plan, arrays)
        # The simulated chunks run sequentially, so the accumulated
        # total is right even though the chunking is racy on hardware.
        assert arrays["mass_accum"].sum() == pytest.approx(
            arrays["flux"].sum()
        )

    def test_preinit_launch_confirmed(self):
        plan, arrays = KNOWN_BAD_CORPUS["preinit_launch"].build()
        diags = analyze_plan(plan)
        Sanitizer(n_cpes=8).verify(plan, arrays, diags)
        sw003 = [d for d in diags if d.rule == "SW003"]
        assert sw003[0].verdict == CONFIRMED

    def test_demoted_pressure_gradient_confirmed(self):
        plan, arrays = KNOWN_BAD_CORPUS["demoted_pressure_gradient"].build()
        diags = analyze_plan(plan)
        Sanitizer(n_cpes=8).verify(plan, arrays, diags)
        for d in diags:
            if d.rule == "SW006":
                assert d.verdict == CONFIRMED

    def test_fp64_sensitive_term_would_be_false_positive(self):
        """If the live array is actually float64 the demotion claim dies."""
        plan, arrays = KNOWN_BAD_CORPUS["demoted_pressure_gradient"].build()
        arrays = {k: v.astype(np.float64) for k, v in arrays.items()}
        diags = analyze_plan(plan)
        Sanitizer(n_cpes=8).verify(plan, arrays, diags)
        assert all(
            d.verdict == FALSE_POSITIVE for d in diags if d.rule == "SW006"
        )

    def test_loop_without_body_stays_unverified(self):
        plan, arrays = KNOWN_BAD_CORPUS["halo_overreach"].build()
        diags = analyze_plan(plan)
        Sanitizer(n_cpes=8).verify(plan, arrays, diags)
        assert all(d.verdict is None for d in diags)

    def test_run_loop_requires_body(self):
        plan, arrays = KNOWN_BAD_CORPUS["halo_overreach"].build()
        with pytest.raises(ValueError, match="no runnable body"):
            Sanitizer(n_cpes=8).run_loop(plan.loops[0], arrays)

    def test_server_tracer_restored_after_run(self):
        """run_loop installs its listener tracer and always puts the
        server's previous tracer back, even if the loop body raises."""
        from repro.analysis.access import PlannedLoop
        from repro.obs import Tracer

        san = Sanitizer(n_cpes=8)
        mine = Tracer()
        san.server.tracer = mine
        plan, arrays = _disjoint_scatter_plan()
        san.run_loop(plan.loops[0], arrays)
        assert san.server.tracer is mine

        def exploding(shadows, s, e):
            raise RuntimeError("body blew up")

        bad = PlannedLoop(name="boom", access=plan.loops[0].access,
                          n_iters=16, body=exploding)
        with pytest.raises(RuntimeError, match="body blew up"):
            san.run_loop(bad, arrays)
        assert san.server.tracer is mine

    def test_recorder_consumes_chunk_trace_spans(self):
        """The sanitizer's bracketer works as a tracer listener: CHUNK
        spans drive begin/end, other kinds are ignored."""
        from repro.obs import SpanKind, Tracer

        rec = _Recorder()
        t = Tracer(record=False)
        t.add_listener(rec)
        with t.span("k", SpanKind.KERNEL_LAUNCH):       # ignored
            with t.span("k", SpanKind.CHUNK, cpe=2, start=0, end=8):
                rec.record_write("a", np.arange(3))
        assert len(rec.chunks) == 1
        log = rec.chunks[0]
        assert (log.cpe, log.start, log.end) == (2, 0, 8)
        assert log.writes["a"] == {0, 1, 2}
