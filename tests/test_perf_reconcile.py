"""Tests of the predicted-vs-traced reconciliation and `repro profile`."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.dycore.kernels import MAJOR_KERNELS
from repro.obs import SpanKind, Tracer
from repro.perf.metrics import sdpd_from_trace
from repro.perf.reconcile import reconcile_kernels, run_profile
from repro.sunway.kernel import Precision


class TestReconcileKernels:
    @pytest.fixture(scope="class")
    def recon(self, mesh_g2):
        return reconcile_kernels(mesh_g2, nlev=6)

    def test_every_major_kernel_reconciled(self, recon):
        assert [r.kernel for r in recon] == list(MAJOR_KERNELS)

    def test_traced_close_to_predicted(self, recon):
        """Static chunking only quantises, it doesn't change the total:
        the per-kernel relative error stays small but is allowed to be
        nonzero (ceil(n / n_cpes) lane imbalance)."""
        for r in recon:
            assert r.predicted_seconds > 0.0
            assert r.traced_seconds > 0.0
            assert r.relative_error < 0.05, r.kernel

    def test_elements_match_mesh(self, recon, mesh_g2):
        by_name = {r.kernel: r for r in recon}
        for name, reg in MAJOR_KERNELS.items():
            n = (mesh_g2.ne if reg.element == "edge" else mesh_g2.nc) * 6
            assert by_name[name].elements == n

    def test_to_dict_round_trips_json(self, recon):
        doc = json.dumps([r.to_dict() for r in recon])
        assert all(row["kernel"] in MAJOR_KERNELS for row in json.loads(doc))

    def test_dp_precision_costs_more(self, mesh_g2):
        mixed = {r.kernel: r.predicted_seconds
                 for r in reconcile_kernels(mesh_g2, nlev=6)}
        dp = {r.kernel: r.predicted_seconds
              for r in reconcile_kernels(mesh_g2, nlev=6, precision=Precision.DP)}
        assert all(dp[k] >= mixed[k] for k in mixed)

    def test_uses_supplied_tracer(self, mesh_g2):
        t = Tracer()
        reconcile_kernels(mesh_g2, nlev=4, tracer=t)
        kinds = {s.kind for s in t.events}
        assert SpanKind.KERNEL_LAUNCH in kinds
        assert SpanKind.CHUNK in kinds


class TestRunProfile:
    @pytest.fixture(scope="class")
    def profile(self):
        return run_profile(level=2, nlev=6, steps=2, compare_model=True)

    def test_config_and_spans(self, profile):
        assert profile["config"]["steps"] == 2
        assert profile["config"]["stencil_backend"] == "fused"
        assert profile["n_spans"] == len(profile["tracer"].events) > 0

    def test_aggregate_covers_dycore(self, profile):
        assert "dyn_step:dycore.step" in profile["aggregate"]
        assert profile["aggregate"]["dyn_step:dycore.step"]["count"] == 2

    def test_metrics_snapshot(self, profile):
        assert profile["metrics"]["counters"]["dycore.steps"] == 2.0

    def test_reconciliation_table_complete(self, profile):
        assert {r["kernel"] for r in profile["reconciliation"]} == set(MAJOR_KERNELS)
        assert profile["max_relative_error"] < 0.05

    def test_default_steps_is_tracer_ratio(self):
        prof = run_profile(level=2, nlev=4)
        assert prof["config"]["steps"] == prof["config"]["tracer_ratio"]
        seq = prof["tracer"].span_sequence(kinds={SpanKind.TRACER_STEP})
        assert seq == [("tracer_step", "dycore.tracer_step")]

    def test_sdpd_from_trace(self, profile):
        sdpd = sdpd_from_trace(profile["tracer"], profile["config"]["dt_dyn"])
        assert sdpd > 0.0

    def test_sdpd_from_trace_rejects_empty(self):
        with pytest.raises(ValueError):
            sdpd_from_trace(Tracer(), 600.0)

    def test_global_instrumentation_restored(self, profile):
        from repro.obs import get_metrics, get_tracer

        assert get_tracer().enabled is False
        assert get_metrics().enabled is False


class TestProfileCLI:
    def test_human_output(self, capsys):
        assert main(["profile", "--level", "2", "--nlev", "4",
                     "--steps", "2", "--compare-model"]) == 0
        out = capsys.readouterr().out
        assert "span (kind:name)" in out
        for name in MAJOR_KERNELS:
            assert name in out
        assert "max relative error" in out

    def test_json_output(self, capsys):
        assert main(["profile", "--level", "2", "--nlev", "4",
                     "--steps", "2", "--json", "--compare-model"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {r["kernel"] for r in doc["reconciliation"]} == set(MAJOR_KERNELS)
        assert doc["sdpd_traced"] > 0.0
        assert doc["metrics"]["counters"]["dycore.steps"] == 2.0

    def test_trace_out_is_loadable_chrome_json(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["profile", "--level", "2", "--nlev", "4", "--steps", "1",
                     "--trace-out", str(path)]) == 0
        doc = json.load(open(path))
        assert doc["displayTimeUnit"] == "ms"
        names = {e["name"] for e in doc["traceEvents"]}
        assert "dycore.step" in names
        assert all(
            {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(e)
            for e in doc["traceEvents"]
        )

    def test_max_error_gate_fails(self, capsys):
        rc = main(["profile", "--level", "2", "--nlev", "4", "--steps", "1",
                   "--compare-model", "--max-error", "0"])
        assert rc == 1

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["profile"])
        assert args.level == 3 and args.nlev == 8
        assert args.steps is None and not args.compare_model


def test_profile_run_does_not_perturb_state(mesh_g2):
    """Acceptance: tracer-disabled vs tracer-enabled runs of the same
    seeded integration produce bit-identical fields."""
    from repro.dycore.solver import DycoreConfig, DynamicalCore
    from repro.dycore.state import tropical_profile_state
    from repro.dycore.vertical import VerticalCoordinate
    from repro.obs import tracing

    vc = VerticalCoordinate.stretched(6)

    def integrate(traced: bool):
        dycore = DynamicalCore(mesh_g2, vc, DycoreConfig(dt=600.0))
        st = tropical_profile_state(mesh_g2, vc)
        if traced:
            with tracing():
                for _ in range(3):
                    st = dycore.step(st)
        else:
            for _ in range(3):
                st = dycore.step(st)
        return st

    a, b = integrate(False), integrate(True)
    assert np.array_equal(a.ps, b.ps)
    assert np.array_equal(a.theta, b.theta)
