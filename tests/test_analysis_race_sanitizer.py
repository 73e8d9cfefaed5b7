"""Tests of the dynamic race sanitizer: replay verdicts on the
known-racy corpus, and clean sanitizing of a real driver run."""

import os

import numpy as np
import pytest

from repro.analysis.corpus import KNOWN_RACY_PLANS
from repro.analysis.races import analyze_parallel_plan, build_step_plan
from repro.analysis.sanitizer import (
    RaceReplay,
    RunObserver,
    _linear_sum,
    _tree_sum,
    sanitize_run,
    verify,
)
from repro.dycore.solver import DycoreConfig
from repro.dycore.state import baroclinic_wave_state
from repro.dycore.vertical import VerticalCoordinate
from repro.grid.mesh import build_mesh
from repro.parallel.driver import DistributedDycore


class TestSumHelpers:
    def test_tree_vs_linear_differ_on_catastrophic_cancellation(self):
        values = (1.0e16, 1.0, -1.0e16, 1.0)
        assert _linear_sum(values) != _tree_sum(values)

    def test_exact_values_sum_identically(self):
        values = (1.0, 2.0, 3.0, 4.0)
        assert _linear_sum(values) == _tree_sum(values) == 10.0

    def test_empty_tree_sum(self):
        assert _tree_sum(()) == 0.0


class TestReplayVerdicts:
    @pytest.mark.parametrize("name", sorted(KNOWN_RACY_PLANS))
    def test_every_corpus_case_gets_its_expected_verdict(self, name):
        """CONFIRMED cases must replay to the same (rule, ops, resource)
        event; FALSE_POSITIVE cases must be demoted."""
        case = KNOWN_RACY_PLANS[name]
        plan = case.build()
        diags = verify(analyze_parallel_plan(plan), *RaceReplay(plan).observe())
        expected = [d for d in diags if d.rule in case.expect_rules]
        assert expected, name
        assert all(d.verdict == case.expect_verdict for d in expected), [
            (d.rule, d.verdict) for d in expected
        ]

    def test_confirmed_event_identity_matches_static_details(self):
        plan = KNOWN_RACY_PLANS["aliased_tendency_slots"].build()
        events = RaceReplay(plan).run()
        keys = {(ev.rule, ev.ops, ev.resource) for ev in events}
        diags = analyze_parallel_plan(plan)
        assert any(
            (d.rule, frozenset(d.details["ops"]), d.details["resource"])
            in keys
            for d in diags if d.rule == "RD001"
        )

    def test_disjoint_observed_writes_produce_no_events(self):
        plan = KNOWN_RACY_PLANS["disjoint_observed_writes"].build()
        assert RaceReplay(plan).run() == []

    def test_replay_flags_wrong_epoch_drain_even_when_ordered(self):
        """The stateful RD003 check: a fully ordered schedule that still
        drains epoch-2 content from an epoch-1 unpack is a real bug the
        pairwise engine alone would miss."""
        from repro.analysis.parallel_plan import (
            DRIVER,
            Access,
            OpKind,
            ParallelPlan,
            PlanOp,
        )

        plan = ParallelPlan(name="wrong_epoch", ops=[
            PlanOp(name="e1.pack", kind=OpKind.PACK, lane=DRIVER, epoch=1,
                   accesses=[Access("buf", mode="w")]),
            PlanOp(name="e2.pack", kind=OpKind.PACK, lane=DRIVER, epoch=2,
                   accesses=[Access("buf", mode="w")]),
            PlanOp(name="e1.unpack", kind=OpKind.UNPACK, lane=DRIVER,
                   epoch=1, accesses=[Access("buf", mode="r")]),
        ])
        events = RaceReplay(plan).run()
        assert any(ev.rule == "RD003" for ev in events)

    def test_non_rd_diagnostics_pass_through_unverdicted(self):
        from repro.analysis.diagnostics import Diagnostic

        plan = KNOWN_RACY_PLANS["benign_reduction"].build()
        sw = Diagnostic(rule="SW001", message="unrelated")
        out = verify([sw], *RaceReplay(plan).observe())
        assert out[0].verdict is None


needs_fork = pytest.mark.skipif(
    os.name != "posix", reason="ProcessRankExecutor requires fork"
)


class TestRealRunSanitize:
    @pytest.fixture(scope="class")
    def mesh(self):
        return build_mesh(2)

    @pytest.fixture(scope="class")
    def vc(self):
        return VerticalCoordinate.uniform(4)

    def _driver(self, mesh, vc, workers=1, sponge=0):
        cfg = DycoreConfig(dt=600.0, sponge_levels=sponge)
        d = DistributedDycore(mesh, vc, cfg, nparts=4, workers=workers)
        d.scatter(baroclinic_wave_state(mesh, vc))
        return d

    def test_unscattered_driver_rejected(self, mesh, vc):
        d = DistributedDycore(
            mesh, vc, DycoreConfig(dt=600.0), nparts=4, workers=1
        )
        with pytest.raises(RuntimeError, match="scatter"):
            sanitize_run(d)

    def test_serial_run_is_clean(self, mesh, vc):
        d = self._driver(mesh, vc)
        try:
            report = sanitize_run(d, steps=1)
        finally:
            d.close()
        assert report.clean
        assert report.plan.ops
        blob = report.to_dict()
        assert blob["clean"] is True and blob["events"] == []

    @needs_fork
    def test_workers2_run_is_clean(self, mesh, vc):
        """The CI acceptance gate: a chaos-free workers=2 run observed
        through the span stream replays with zero race events."""
        d = self._driver(mesh, vc, workers=2, sponge=2)
        try:
            report = sanitize_run(d, steps=2)
        finally:
            d.close()
        assert report.clean, report.to_dict()["events"]
        # The observed plan really covers the run: 2 steps x (save +
        # 3 stages + sponge), with the arena layout attached.
        saves = [op for op in report.plan.ops if op.name.startswith("save")]
        assert len(saves) == 2
        assert report.plan.arena
        assert report.plan.halo_recv

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    @pytest.mark.parametrize("sponge", [0, 2])
    def test_observed_plan_matches_declared_schedule(self, mesh, vc, sponge, workers):
        """Every observed step is, op for op, the one declared step:
        kind, lane, epoch, accesses and delivery edges (exchange epochs
        relative to the step's first exchange — the exchanger's counter
        runs on across steps), plus the plan-level halo sets and arena."""
        cfg = DycoreConfig(dt=600.0, sponge_levels=sponge)
        d = DistributedDycore(mesh, vc, cfg, nparts=4, workers=workers)
        try:
            d.scatter(baroclinic_wave_state(mesh, vc))
            declared = build_step_plan(d)
            observed = sanitize_run(d, steps=2).plan
        finally:
            d.close()

        def shape(ops, edges):
            first = min(op.epoch for op in ops if op.epoch)
            at = {op.name: i for i, op in enumerate(ops)}
            return (
                [(op.kind, op.lane, op.epoch and op.epoch - first + 1,
                  op.accesses) for op in ops],
                sorted((at[a], at[b]) for a, b in edges if b in at),
            )

        starts = [i for i, op in enumerate(observed.ops)
                  if op.name.startswith("save")]
        assert len(starts) == 2
        want = shape(declared.ops, declared.edges)
        for lo, hi in zip(starts, starts[1:] + [len(observed.ops)]):
            assert shape(observed.ops[lo:hi], observed.edges) == want
        assert len(observed.edges) == 2 * len(declared.edges)
        assert observed.halo_recv == declared.halo_recv
        assert observed.arena == declared.arena
        assert bool(observed.arena) == (workers > 1)

    def test_sanitize_restores_previous_tracer(self, mesh, vc):
        from repro.obs import get_tracer

        before = get_tracer()
        d = self._driver(mesh, vc)
        try:
            sanitize_run(d, steps=1)
        finally:
            d.close()
        assert get_tracer() is before

    @needs_fork
    def test_bitwise_equality_with_sanitizer_attached(self, mesh, vc):
        """Acceptance criterion: serial vs workers=2 stays bitwise equal
        when the run is observed and replayed by the sanitizer."""
        results = []
        for workers in (1, 2):
            d = self._driver(mesh, vc, workers=workers, sponge=2)
            try:
                report = sanitize_run(d, steps=3)
                assert report.clean
                results.append(d.gather())
            finally:
                d.close()
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_observer_ignores_unrelated_spans(self, mesh, vc):
        from repro.obs import SpanKind, Tracer, set_tracer

        d = self._driver(mesh, vc)
        observer = RunObserver(d)
        tracer = Tracer(enabled=True, record=False)
        tracer.add_listener(observer)
        prev = set_tracer(tracer)
        try:
            with tracer.span("unrelated", SpanKind.RK_STAGE, op="other"):
                pass
        finally:
            set_tracer(prev)
            d.close()
        assert observer.to_plan().ops == []
