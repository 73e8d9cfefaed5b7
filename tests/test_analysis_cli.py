"""Tests of the `repro lint` command and the report driver."""

import json
from pathlib import Path

import pytest

from repro.analysis.report import lint_all, render_human, to_json
from repro.cli import main


@pytest.fixture(scope="module")
def result():
    return lint_all(sanitize=True)


class TestLintAll:
    def test_own_kernels_clean(self, result):
        assert result["kernels"]["n_error"] == 0

    def test_every_corpus_case_found(self, result):
        assert result["corpus"]["all_expected_found"]
        for case in result["corpus"]["cases"]:
            assert case["ok"], case["name"]

    def test_sanitizer_confirms_a_race(self, result):
        case = next(c for c in result["corpus"]["cases"]
                    if c["name"] == "racy_flux_accumulation")
        verdicts = {d.rule: d.verdict for d in case["diagnostics"]}
        assert verdicts["SW001"] == "CONFIRMED"
        assert result["summary"]["confirmed"] >= 1

    def test_strict_ok(self, result):
        assert result["summary"]["strict_ok"]

    def test_diagnostics_ranked_errors_first(self, result):
        for case in result["corpus"]["cases"]:
            sev = [int(d.severity) for d in case["diagnostics"]]
            assert sev == sorted(sev, reverse=True)

    def test_json_roundtrip(self, result):
        blob = json.dumps(to_json(result))
        back = json.loads(blob)
        assert back["summary"]["strict_ok"] is True
        rules = {d["rule"] for c in back["corpus"]["cases"]
                 for d in c["diagnostics"]}
        assert {f"SW00{k}" for k in range(1, 8)} <= rules

    def test_human_report_mentions_rules_and_verdicts(self, result):
        text = render_human(result)
        for rule in ["SW001", "SW004", "SW006"]:
            assert rule in text
        assert "CONFIRMED" in text
        assert "strict PASS" in text

    def test_no_sanitize_leaves_verdicts_unset(self):
        static_only = lint_all(sanitize=False)
        assert static_only["summary"]["confirmed"] == 0
        assert static_only["summary"]["strict_ok"]


class TestParallelLint:
    @pytest.fixture(scope="class")
    def par_result(self):
        return lint_all(sanitize=True, parallel=True)

    def test_real_step_plan_clean(self, par_result):
        assert par_result["parallel"]["step_plan"]["n_error"] == 0

    def test_race_corpus_all_expected_found(self, par_result):
        par = par_result["parallel"]["race_corpus"]
        assert par["all_expected_found"]
        for case in par["cases"]:
            assert case["ok"], case["name"]

    def test_dynamic_run_clean(self, par_result):
        dyn = par_result["parallel"]["dynamic_run"]
        assert dyn is not None
        assert dyn["clean"] is True
        assert dyn["ops"] > 0

    def test_strict_ok_folds_in_parallel(self, par_result):
        assert par_result["parallel"]["ok"]
        assert par_result["summary"]["strict_ok"]

    def test_json_has_schema_version_and_parallel_section(self, par_result):
        blob = to_json(par_result)
        assert blob["schema_version"] == 4
        assert "overlap" not in blob["parallel"]
        assert list(blob)[0] == "schema_version"
        rules = {d["rule"] for c in blob["parallel"]["race_corpus"]["cases"]
                 for d in c["diagnostics"]}
        assert {f"RD00{k}" for k in range(1, 6)} <= rules

    def test_json_is_stable_across_runs(self):
        """Machine-comparable CI diffs: two independent lints serialize
        byte-identically (stable rule ordering, no wall-clock fields)."""
        a = json.dumps(to_json(lint_all(sanitize=False)), sort_keys=False)
        b = json.dumps(to_json(lint_all(sanitize=False)), sort_keys=False)
        assert a == b

    def test_output_matches_committed_oracle(self, par_result):
        """The analyzer's whole output, byte for byte: what
        `repro lint --strict --parallel --json` and `repro lint
        --parallel` print, minus print's trailing newline."""
        data = Path(__file__).parent / "data"
        assert json.dumps(to_json(par_result), indent=2) == (
            data / "lint_parallel.json").read_text().removesuffix("\n")
        assert render_human(par_result) == (
            data / "lint_parallel.txt").read_text().removesuffix("\n")

    def test_human_report_mentions_parallel_sections(self, par_result):
        text = render_human(par_result)
        assert "parallel step plan" in text
        assert "known-racy corpus" in text
        assert "dynamic run" in text


class TestCliLint:
    def test_lint_human(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "registered kernels" in out
        assert "known-bad corpus" in out

    def test_lint_json_strict(self, capsys):
        assert main(["lint", "--json", "--strict"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["strict_ok"] is True

    def test_lint_parallel_strict(self, capsys):
        assert main(["lint", "--strict", "--parallel", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 4
        assert payload["parallel"]["ok"] is True
        assert payload["parallel"]["dynamic_run"]["clean"] is True

    def test_lint_no_sanitize(self, capsys):
        assert main(["lint", "--no-sanitize", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["confirmed"] == 0

    def test_strict_fails_on_missing_corpus_rule(self, monkeypatch, capsys):
        # Simulate an analyzer regression: a corpus case stops tripping
        # its rule.  strict must exit nonzero.
        import repro.analysis.report as report

        real = report.lint_all

        def degraded(sanitize=True, parallel=False):
            result = real(sanitize=sanitize, parallel=parallel)
            result["corpus"]["all_expected_found"] = False
            result["summary"]["strict_ok"] = False
            return result

        monkeypatch.setattr(report, "lint_all", degraded)
        assert main(["lint", "--strict", "--no-sanitize"]) == 1
        capsys.readouterr()
