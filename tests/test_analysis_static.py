"""Tests of the swlint static pass: access specs, rules SW001-SW007,
the known-bad corpus, and the repo's own annotated kernels."""

import pytest

from repro.analysis.access import (
    AccessSpec,
    ArrayAccess,
    IndexKind,
    OffloadPlan,
    PlannedLoop,
    parse_index,
)
from repro.analysis.corpus import KNOWN_BAD_CORPUS
from repro.analysis.diagnostics import RULES, Diagnostic, Severity, rank
from repro.analysis.static import analyze_plan
from repro.sunway.ldcache import LDCache


class TestIndexLanguage:
    def test_local(self):
        e = parse_index("i")
        assert e.kind is IndexKind.LOCAL
        assert e.chunk_local
        assert e.reach == 0

    @pytest.mark.parametrize("expr,offset", [("i+1", 1), ("i-2", -2), ("i + 3", 3)])
    def test_offset(self, expr, offset):
        e = parse_index(expr)
        assert e.kind is IndexKind.OFFSET
        assert e.offset == offset
        assert not e.chunk_local

    def test_indirect_default_ring(self):
        e = parse_index("nbr(i)")
        assert e.kind is IndexKind.INDIRECT
        assert e.ring == 1
        assert e.reach == 1

    def test_indirect_explicit_ring(self):
        e = parse_index("nbr(i, 2)")
        assert e.ring == 2
        assert e.reach == 2

    @pytest.mark.parametrize("expr", ["all", "*", ":"])
    def test_global(self, expr):
        assert parse_index(expr).kind is IndexKind.GLOBAL

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_index("j+1")
        with pytest.raises(ValueError):
            ArrayAccess("x", mode="q", index="i")

    def test_duplicate_array_names_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            AccessSpec.of(
                ArrayAccess("x", mode="r", index="i"),
                ArrayAccess("x", mode="w", index="i"),
            )


class TestRuleCatalog:
    def test_seven_stable_rule_ids(self):
        assert sorted(r for r in RULES if r.startswith("SW")) == [
            f"SW00{k}" for k in range(1, 8)
        ]

    def test_five_stable_rd_rule_ids(self):
        assert sorted(r for r in RULES if r.startswith("RD")) == [
            f"RD00{k}" for k in range(1, 6)
        ]

    def test_default_severity_from_rule(self):
        assert Diagnostic(rule="SW001", message="m").severity is Severity.ERROR
        assert Diagnostic(rule="SW004", message="m").severity is Severity.WARNING

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(rule="SW099", message="m")

    def test_rank_orders_errors_first(self):
        ds = [
            Diagnostic(rule="SW004", message="warn"),
            Diagnostic(rule="SW001", message="err"),
        ]
        assert [d.rule for d in rank(ds)] == ["SW001", "SW004"]
        assert [d.rule for d in ds if d.severity is Severity.ERROR] == ["SW001"]
        assert {d.rule for d in ds} == {"SW001", "SW004"}


def _single_loop_plan(access, **plan_kwargs):
    return OffloadPlan(
        loops=[PlannedLoop(name="loop", access=access, n_iters=1024)],
        name="t", **plan_kwargs,
    )


class TestRules:
    """Each rule on a minimal plan that isolates it."""

    def test_sw001_indirect_write(self):
        plan = _single_loop_plan(AccessSpec.of(
            ArrayAccess("acc", mode="w", index="nbr(i)"),
        ))
        rules = {d.rule for d in analyze_plan(plan)}
        assert "SW001" in rules

    def test_sw001_not_fired_for_local_write(self):
        plan = _single_loop_plan(AccessSpec.of(
            ArrayAccess("src", mode="r", index="nbr(i)"),
            ArrayAccess("dst", mode="w", index="i"),
        ))
        assert all(d.rule != "SW001" for d in analyze_plan(plan))

    def test_sw002_same_region_only(self):
        spec_w = AccessSpec.of(ArrayAccess("ke", mode="w", index="i"))
        spec_r = AccessSpec.of(
            ArrayAccess("ke", mode="r", index="i"),
            ArrayAccess("out", mode="w", index="i"),
        )
        same = OffloadPlan(name="same", loops=[
            PlannedLoop(name="a", access=spec_w, n_iters=64, nowait=True, region=0),
            PlannedLoop(name="b", access=spec_r, n_iters=64, region=0),
        ])
        split = OffloadPlan(name="split", loops=[
            PlannedLoop(name="a", access=spec_w, n_iters=64, nowait=True, region=0),
            PlannedLoop(name="b", access=spec_r, n_iters=64, region=1),
        ])
        assert any(d.rule == "SW002" for d in analyze_plan(same))
        # The end-target barrier synchronises regions: Fig. 4's own
        # `end do nowait` must not be a false positive.
        assert all(d.rule != "SW002" for d in analyze_plan(split))

    def test_sw002_later_barrier_orders_a_nowait_loop(self):
        """A (nowait) -> B -> C in one region: B's closing barrier orders
        A before C, as in OpenMP, so only A against B is a hazard."""
        def loop(name, *accesses, nowait=False):
            return PlannedLoop(name=name, access=AccessSpec.of(*accesses),
                               n_iters=64, nowait=nowait)

        def sw002(b_reads_x):
            b_reads = [ArrayAccess("x", mode="r", index="i")] if b_reads_x else []
            plan = OffloadPlan(name="chain", loops=[
                loop("a", ArrayAccess("x", mode="w", index="i"), nowait=True),
                loop("b", *b_reads, ArrayAccess("y", mode="w", index="i")),
                loop("c", ArrayAccess("x", mode="r", index="nbr(i)"),
                     ArrayAccess("z", mode="w", index="i")),
            ])
            return [(d.loop, d.details["dependent_loop"], d.array)
                    for d in analyze_plan(plan) if d.rule == "SW002"]

        assert sw002(b_reads_x=True) == [("a", "b", "x")]
        assert sw002(b_reads_x=False) == []

    def test_sw003_uninitialised_server(self):
        plan = _single_loop_plan(
            AccessSpec.of(ArrayAccess("x", mode="w", index="i")),
            server_initialized=False,
        )
        assert any(d.rule == "SW003" for d in analyze_plan(plan))

    def test_sw004_needs_aligned_bases(self):
        geo = LDCache()
        names = [f"a{k}" for k in range(6)]
        spec = AccessSpec.of(*(
            [ArrayAccess(n, mode="r", index="i") for n in names[:-1]]
            + [ArrayAccess(names[-1], mode="w", index="i")]
        ))
        aligned = {n: k * geo.way_bytes for k, n in enumerate(names)}
        spread = {n: k * (geo.way_bytes + geo.line_bytes)
                  for k, n in enumerate(names)}
        bad = _single_loop_plan(spec, array_bases=aligned)
        good = _single_loop_plan(spec, array_bases=spread)
        bad_d = [d for d in analyze_plan(bad) if d.rule == "SW004"]
        assert len(bad_d) == 1
        assert bad_d[0].severity is Severity.WARNING
        assert bad_d[0].details["predicted_hit_ratio"] < 0.1
        assert bad_d[0].details["hit_ratio_with_distribution"] > 0.9
        assert all(d.rule != "SW004" for d in analyze_plan(good))

    def test_sw004_unknown_bases_is_info_advisory(self):
        spec = AccessSpec.of(*(
            [ArrayAccess(f"a{k}", mode="r", index="i") for k in range(5)]
            + [ArrayAccess("out", mode="w", index="i")]
        ))
        ds = [d for d in analyze_plan(_single_loop_plan(spec)) if d.rule == "SW004"]
        assert len(ds) == 1
        assert ds[0].severity is Severity.INFO

    def test_sw005_staged_working_set(self):
        spec = AccessSpec.of(
            ArrayAccess("t", mode="r", index="i"),
            ArrayAccess("out", mode="w", index="i"),
        )
        big = OffloadPlan(name="big", n_cpes=64, loops=[PlannedLoop(
            name="l", access=spec, n_iters=64 * 100_000, ldm_staged=True,
        )])
        small = OffloadPlan(name="small", n_cpes=64, loops=[PlannedLoop(
            name="l", access=spec, n_iters=64 * 100, ldm_staged=True,
        )])
        assert any(d.rule == "SW005" for d in analyze_plan(big))
        assert all(d.rule != "SW005" for d in analyze_plan(small))

    def test_sw006_sensitive_term_demoted(self):
        plan = _single_loop_plan(AccessSpec.of(
            ArrayAccess("pgrad", mode="w", index="i", bytes_per_elem=4,
                        term="pressure_gradient"),
        ))
        assert any(d.rule == "SW006" for d in analyze_plan(plan))

    def test_sw006_insensitive_demotion_allowed(self):
        plan = _single_loop_plan(AccessSpec.of(
            ArrayAccess("ke", mode="w", index="i", bytes_per_elem=4,
                        term="kinetic_energy_gradient"),
        ))
        assert all(d.rule != "SW006" for d in analyze_plan(plan))

    def test_sw006_unknown_term_defaults_sensitive(self):
        plan = _single_loop_plan(AccessSpec.of(
            ArrayAccess("mystery", mode="w", index="i", bytes_per_elem=4,
                        term="not_in_the_table"),
        ))
        ds = [d for d in analyze_plan(plan) if d.rule == "SW006"]
        assert len(ds) == 1
        assert ds[0].details["classified"] is False

    def test_sw007_reach_vs_halo(self):
        spec = AccessSpec.of(
            ArrayAccess("theta", mode="r", index="nbr(i,2)"),
            ArrayAccess("out", mode="w", index="i"),
        )
        narrow = _single_loop_plan(spec, halo_width=1)
        wide = _single_loop_plan(spec, halo_width=2)
        assert any(d.rule == "SW007" for d in analyze_plan(narrow))
        assert all(d.rule != "SW007" for d in analyze_plan(wide))


class TestCorpus:
    @pytest.mark.parametrize("name", sorted(KNOWN_BAD_CORPUS))
    def test_every_case_trips_its_rules(self, name):
        case = KNOWN_BAD_CORPUS[name]
        plan, _ = case.build()
        found = {d.rule for d in analyze_plan(plan)}
        assert case.expect_rules <= found

    def test_three_seeded_paper_cases_have_distinct_rules(self):
        """The ISSUE's three headline plans each flag a different rule."""
        headline = ["fig6_thrash", "racy_flux_accumulation",
                    "demoted_pressure_gradient"]
        rules = {}
        for name in headline:
            plan, _ = KNOWN_BAD_CORPUS[name].build()
            rules[name] = {d.rule for d in analyze_plan(plan)} \
                          & KNOWN_BAD_CORPUS[name].expect_rules
        flat = [r for rs in rules.values() for r in rs]
        assert len(flat) == len(set(flat)) == 3


class TestOwnKernelsClean:
    def test_registered_kernels_zero_errors(self):
        from repro.analysis.report import build_kernel_plan

        diags = analyze_plan(build_kernel_plan())
        assert [d for d in diags if d.severity is Severity.ERROR] == []

    def test_every_major_kernel_is_annotated(self):
        from repro.dycore.kernels import MAJOR_KERNELS

        for name, reg in MAJOR_KERNELS.items():
            assert reg.spec.access is not None, name
            assert (reg.spec.access.arrays_per_iteration
                    == reg.spec.arrays_streamed), name

    def test_undistributed_bases_do_thrash(self):
        """Sanity: the clean verdict depends on address distribution."""
        from repro.analysis.report import build_kernel_plan

        diags = analyze_plan(build_kernel_plan(distribute_addresses=False))
        assert any(
            d.rule == "SW004" and d.severity is Severity.WARNING
            for d in diags
        )
