"""Tests of the RD race analyzer: the ParallelPlan model, the
HappensBefore graph, the static RD001-RD005 rules on the known-racy
corpus, and the plan derived from a real DistributedDycore."""

import pytest

from repro.analysis.corpus import KNOWN_RACY_PLANS
from repro.analysis.parallel_plan import (
    DRIVER,
    Access,
    HappensBefore,
    OpKind,
    ParallelPlan,
    PlanOp,
    indices_intersect,
)
from repro.analysis.races import (
    analyze_parallel_plan,
    build_step_plan,
    classify_conflict,
    unordered_conflicts,
)
from repro.dycore.solver import DycoreConfig
from repro.dycore.state import baroclinic_wave_state
from repro.dycore.vertical import VerticalCoordinate
from repro.grid.mesh import build_mesh
from repro.parallel.driver import DistributedDycore


class TestAccessModel:
    def test_indices_normalised_sorted_unique(self):
        a = Access("x", mode="w", indices=[3, 1, 3, 2])
        assert a.indices == (1, 2, 3)

    def test_observed_wins_at_runtime(self):
        a = Access("x", mode="w", indices=None, observed=(0, 1))
        assert a.indices is None
        assert a.runtime_indices() == (0, 1)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            Access("x", mode="x")

    @pytest.mark.parametrize("a,b,expect", [
        (None, (1, 2), True),       # None = whole resource
        ((1, 2), (2, 3), True),
        ((1, 2), (3, 4), False),
        ((), (1,), False),          # empty never intersects
    ])
    def test_indices_intersect(self, a, b, expect):
        assert indices_intersect(a, b) is expect


class TestPlanModel:
    def test_duplicate_op_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParallelPlan(name="p", ops=[
                PlanOp(name="a", kind=OpKind.COMPUTE),
                PlanOp(name="a", kind=OpKind.COMPUTE),
            ])

    def test_backward_edge_rejected(self):
        plan = ParallelPlan(name="p", ops=[
            PlanOp(name="a", kind=OpKind.COMPUTE, lane=0),
            PlanOp(name="b", kind=OpKind.COMPUTE, lane=1),
        ], edges=[("b", "a")])
        with pytest.raises(ValueError, match="backwards"):
            HappensBefore(plan)

    def test_aliased_resources_overlap_only(self):
        plan = ParallelPlan(name="p", arena={
            "a": (0, 512),
            "b": (256, 512),    # overlaps a
            "c": (1024, 256),   # disjoint
        })
        assert plan.aliased_resources() == [("a", "b")]


class TestHappensBefore:
    def _plan(self, *ops, edges=()):
        return ParallelPlan(name="p", ops=list(ops), edges=list(edges))

    def test_program_order_within_lane(self):
        hb = HappensBefore(self._plan(
            PlanOp(name="a", kind=OpKind.COMPUTE, lane=0),
            PlanOp(name="b", kind=OpKind.COMPUTE, lane=0),
        ))
        assert hb.before("a", "b")
        assert not hb.before("b", "a")

    def test_cross_lane_unordered_without_sync(self):
        hb = HappensBefore(self._plan(
            PlanOp(name="a", kind=OpKind.COMPUTE, lane=0),
            PlanOp(name="b", kind=OpKind.COMPUTE, lane=1),
        ))
        assert not hb.ordered("a", "b")

    def test_barrier_orders_every_lane(self):
        hb = HappensBefore(self._plan(
            PlanOp(name="a", kind=OpKind.COMPUTE, lane=0),
            PlanOp(name="bar", kind=OpKind.BARRIER),
            PlanOp(name="b", kind=OpKind.COMPUTE, lane=1),
        ))
        assert hb.before("a", "b")

    def test_explicit_edge_is_sync(self):
        hb = HappensBefore(self._plan(
            PlanOp(name="pack", kind=OpKind.PACK, lane=DRIVER),
            PlanOp(name="unpack", kind=OpKind.UNPACK, lane=1),
            edges=[("pack", "unpack")],
        ))
        assert hb.before("pack", "unpack")

    def test_transitivity_through_edge_chain(self):
        hb = HappensBefore(self._plan(
            PlanOp(name="a", kind=OpKind.COMPUTE, lane=0),
            PlanOp(name="b", kind=OpKind.COMPUTE, lane=1),
            PlanOp(name="c", kind=OpKind.COMPUTE, lane=2),
            edges=[("a", "b"), ("b", "c")],
        ))
        assert hb.before("a", "c")
        assert hb.ordered("a", "c")


class TestClassifyConflict:
    def _op(self, kind, name="op"):
        return PlanOp(name=name, kind=kind)

    def test_write_write_is_rd001(self):
        w = self._op(OpKind.COMPUTE, "w")
        o = self._op(OpKind.COMPUTE, "o")
        assert classify_conflict(w, o, other_writes=True) == "RD001"

    def test_pack_vs_unpack_reader_is_rd003(self):
        assert classify_conflict(
            self._op(OpKind.PACK, "p"), self._op(OpKind.UNPACK, "u"), False
        ) == "RD003"

    def test_unpack_writer_vs_reader_is_rd002(self):
        assert classify_conflict(
            self._op(OpKind.UNPACK, "u"), self._op(OpKind.COMPUTE, "c"), False
        ) == "RD002"

    def test_other_dependent_phases_are_rd004(self):
        assert classify_conflict(
            self._op(OpKind.COMPUTE, "c"), self._op(OpKind.APPLY, "a"), False
        ) == "RD004"


class TestUnorderedConflicts:
    """The one pass all three callers share: what differs per caller is
    only the index set charged to each access."""

    def test_declared_overlap_observed_disjoint(self):
        plan = KNOWN_RACY_PLANS["disjoint_observed_writes"].build()
        hb = HappensBefore(plan)
        declared = list(unordered_conflicts(plan, hb, lambda a: a.indices))
        assert [(c[0], c[1], c[-1]) for c in declared] == [
            ("RD001", "shared.diag", None)      # whole-array: unbounded
        ]
        assert not list(
            unordered_conflicts(plan, hb, lambda a: a.runtime_indices())
        )

    def test_one_lane_per_chunk_finds_the_shared_elements(self):
        """SW001's verdict: chunks are lanes, races are the overlaps —
        write/write and read/write, never read/read or within a chunk."""
        from repro.analysis.sanitizer import ChunkLog, LoopObservation

        obs = LoopObservation(loop="l", chunks=[
            ChunkLog(0, 0, 4, reads={"x": {0, 1, 9}}, writes={"x": {0, 1}}),
            ChunkLog(1, 4, 8, reads={"x": {9, 7}}, writes={"x": {1, 2}}),
            ChunkLog(2, 8, 12, reads={"x": {2}}, writes={"y": {0}}),
        ])
        assert obs.races() == {"x": {1, 2}}

    def test_ordered_pairs_are_not_conflicts(self):
        plan = KNOWN_RACY_PLANS["missing_stage_barrier"].build()
        fixed = ParallelPlan(name="fixed", ops=[
            plan.ops[0], PlanOp(name="b", kind=OpKind.BARRIER), plan.ops[1],
        ])
        rules = [c[0] for c in unordered_conflicts(
            plan, HappensBefore(plan), lambda a: a.indices)]
        assert rules == ["RD004", "RD004"]   # theta r->w and slot w->r
        assert not list(unordered_conflicts(
            fixed, HappensBefore(fixed), lambda a: a.indices))


class TestRaceCorpus:
    @pytest.mark.parametrize("name", sorted(KNOWN_RACY_PLANS))
    def test_every_case_trips_its_rules_statically(self, name):
        case = KNOWN_RACY_PLANS[name]
        found = {d.rule for d in analyze_parallel_plan(case.build())}
        assert case.expect_rules <= found, (name, found)

    def test_all_five_rd_rules_covered(self):
        covered = set()
        for case in KNOWN_RACY_PLANS.values():
            covered |= case.expect_rules
        assert covered == {f"RD00{k}" for k in range(1, 6)}

    def test_aliasing_diag_carries_extents(self):
        plan = KNOWN_RACY_PLANS["aliased_tendency_slots"].build()
        diags = [d for d in analyze_parallel_plan(plan) if d.rule == "RD001"]
        assert diags
        assert any("extents" in d.details for d in diags)

    def test_tolerance_contract_silences_rd005(self):
        racy = KNOWN_RACY_PLANS["unordered_reduction"].build()
        contracted = ParallelPlan(name="contracted", ops=[
            PlanOp(name=op.name, kind=op.kind, lane=op.lane,
                   accesses=op.accesses, order_sensitive=op.order_sensitive,
                   tolerance=1e-10, values=op.values)
            for op in racy.ops
        ])
        assert any(d.rule == "RD005" for d in analyze_parallel_plan(racy))
        assert not analyze_parallel_plan(contracted)

    def test_barrier_fixes_missing_stage_barrier(self):
        """The RD004 case's own fix — an executor round barrier between
        the evaluation and the apply — silences the analyzer."""
        racy = KNOWN_RACY_PLANS["missing_stage_barrier"].build()
        fixed = ParallelPlan(name="fixed", ops=[
            racy.ops[0],
            PlanOp(name="round.end", kind=OpKind.BARRIER),
            racy.ops[1],
        ])
        assert any(d.rule == "RD004" for d in analyze_parallel_plan(racy))
        assert not analyze_parallel_plan(fixed)


class TestRealStepPlan:
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

    def test_requires_scattered_state(self, mesh, vc):
        d = DistributedDycore(
            mesh, vc, DycoreConfig(dt=600.0), nparts=4, workers=1
        )
        with pytest.raises(RuntimeError, match="scatter"):
            build_step_plan(d)

    @pytest.mark.parametrize("workers,sponge", [(1, 0), (2, 2)])
    def test_current_lockstep_schedule_is_clean(self, mesh, vc, workers, sponge):
        """The acceptance gate: the real (race-free) schedule must
        produce zero RD diagnostics in every configuration."""
        d = self._driver(mesh, vc, workers=workers, sponge=sponge)
        try:
            diags = analyze_parallel_plan(build_step_plan(d))
        finally:
            d.close()
        assert [d for d in diags if d.severity.name == "ERROR"] == []
        assert diags == []

    def test_plan_structure(self, mesh, vc):
        d = self._driver(mesh, vc, workers=2)
        try:
            plan = build_step_plan(d)
        finally:
            d.close()
        names = [op.name for op in plan.ops]
        # One exchange, then one stage round, per stage; no driver-side op.
        assert names[0].startswith("e1.pack.")
        for s in (1, 2, 3):
            exchange = [i for i, n in enumerate(names) if n.startswith(f"e{s}.")]
            assert exchange and names[max(exchange) + 1] == f"stage.s{s}.begin"
            assert f"stage.s{s}.rank0" in names
        assert any(n.startswith("e1.unpack.") for n in names)
        assert {op.kind for op in plan.ops if op.lane == DRIVER} == {
            OpKind.PACK, OpKind.UNPACK, OpKind.BARRIER}
        # workers>1: the arena layout is attached, recv sets recorded.
        assert plan.arena
        assert plan.halo_recv
        # Every pack->unpack sync edge is declared.
        assert plan.edges
        kind = {op.name: op.kind for op in plan.ops}
        for a, b in plan.edges:
            assert kind[a] is OpKind.PACK
            assert kind[b] is OpKind.UNPACK

    def test_dropped_barrier_is_caught(self, mesh, vc):
        """Mutation coverage: delete the first stage round's closing
        barrier from the real plan and the analyzer must object."""
        d = self._driver(mesh, vc)
        try:
            plan = build_step_plan(d)
        finally:
            d.close()
        mutated = ParallelPlan(
            name="mutated",
            ops=[op for op in plan.ops if op.name != "stage.s1.end"],
            edges=plan.edges,
            arena=plan.arena,
            halo_recv=plan.halo_recv,
        )
        rules = {d_.rule for d_ in analyze_parallel_plan(mutated)}
        assert "RD004" in rules

    def test_dropped_exchange_is_caught(self, mesh, vc):
        """Mutation coverage: omit the stage-1 exchange entirely and the
        stale-halo check fires."""
        d = self._driver(mesh, vc)
        try:
            plan = build_step_plan(d)
        finally:
            d.close()
        mutated = ParallelPlan(
            name="mutated",
            ops=[op for op in plan.ops if not op.name.startswith("e1.")],
            edges=[(a, b) for a, b in plan.edges
                   if not a.startswith("e1.")],
            arena=plan.arena,
            halo_recv=plan.halo_recv,
        )
        rules = {d_.rule for d_ in analyze_parallel_plan(mutated)}
        assert "RD002" in rules
