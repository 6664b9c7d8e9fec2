"""The microbenchmark harness: report shape, baselines and the CI gate."""

import json
from pathlib import Path

import pytest

from repro import bench
from repro.cli import main

_REPO_BASELINE = Path(__file__).resolve().parents[1] / bench.DEFAULT_BASELINE


class TestScenarioRegistry:
    def test_every_scenario_has_a_baseline_entry(self):
        # CI checks every scenario against its floor, so a scenario with no
        # entry would fail the gate and an entry with no scenario gates nothing.
        baseline = bench.load_baseline(str(_REPO_BASELINE))
        assert set(bench.SCENARIOS) == set(baseline["scenarios"])

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            bench.run_scenario("no-such-scenario")

    def test_bad_repeats_raises(self):
        with pytest.raises(ValueError, match="repeats"):
            bench.run_scenario("tracegen", repeats=0)


class TestRunSuite:
    @pytest.fixture(scope="class")
    def report(self):
        # interval_solver is the cheapest scenario; five repeats stay fast.
        return bench.run_suite(
            scenarios=["interval_solver"],
            repeats=5,
            baseline_path=str(_REPO_BASELINE),
        )

    def test_report_shape(self, report):
        assert report["schema_version"] == 1
        entry = report["scenarios"]["interval_solver"]
        assert entry["instructions"] > 0
        assert entry["seconds"] > 0
        assert entry["instructions_per_second"] > 0
        assert entry["repeats"] == 5
        assert entry["spread"] >= 0

    def test_speedup_against_recorded_baseline(self, report):
        # The repo ships a seed baseline, so the speedup must be populated.
        assert report["baseline"] is not None
        assert report["scenarios"]["interval_solver"]["speedup_vs_baseline"] > 0

    def test_report_roundtrips_through_json(self, report, tmp_path):
        path = tmp_path / bench.REPORT_FILE
        bench.write_report(report, str(path))
        assert json.loads(path.read_text()) == report

    def test_save_baseline_roundtrip(self, report, tmp_path):
        path = tmp_path / "baseline.json"
        bench.save_baseline(report, str(path))
        loaded = bench.load_baseline(str(path))
        assert loaded["label"] == "seed"
        assert (
            loaded["scenarios"]["interval_solver"]["instructions_per_second"]
            == report["scenarios"]["interval_solver"]["instructions_per_second"]
        )


class TestLoadBaseline:
    def test_missing_file_returns_none(self, tmp_path):
        assert bench.load_baseline(str(tmp_path / "absent.json")) is None

    def test_malformed_file_returns_none(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        assert bench.load_baseline(str(path)) is None

    def test_wrong_shape_returns_none(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"no_scenarios": True}))
        assert bench.load_baseline(str(path)) is None


def _report(speedups):
    return {
        "schema_version": 1,
        "baseline": {"path": "x", "label": "seed"},
        "scenarios": {
            name: {
                "instructions": 1000,
                "seconds": 0.1,
                "instructions_per_second": 10_000.0,
                "repeats": 1,
                "speedup_vs_baseline": s,
            }
            for name, s in speedups.items()
        },
    }


class TestCheckRegressions:
    def test_within_bounds_passes(self):
        assert bench.check_regressions(_report({"a": 1.1, "b": 0.9})) == []

    def test_regression_fails(self):
        failures = bench.check_regressions(_report({"a": 0.5, "b": 1.0}))
        assert len(failures) == 1
        assert "a:" in failures[0]

    def test_threshold_is_configurable(self):
        report = _report({"a": 0.9})
        assert bench.check_regressions(report, max_regression=0.25) == []
        assert len(bench.check_regressions(report, max_regression=0.05)) == 1

    def test_no_baseline_entry_fails(self):
        failures = bench.check_regressions(_report({"a": None, "b": 1.0}))
        assert len(failures) == 1
        assert failures[0].startswith("a: no baseline entry")

    def test_live_sampling_error_over_budget_fails(self):
        report = _report({"a": 1.0, "b": 1.0})
        report["scenarios"]["a"]["cpi_error"] = bench.MAX_LIVE_SAMPLING_ERROR
        report["scenarios"]["b"]["cpi_error"] = 0.031
        failures = bench.check_regressions(report)
        assert len(failures) == 1
        assert "b:" in failures[0] and "3.1%" in failures[0]

    def test_bad_threshold_raises(self):
        with pytest.raises(ValueError, match="max_regression"):
            bench.check_regressions(_report({}), max_regression=1.5)


class TestIntervalScenarios:
    def test_interval_solver_scenario_runs(self):
        result = bench.run_scenario("interval_solver", repeats=1)
        assert result.unit == "solves"
        assert result.instructions == 16
        assert result.instructions_per_second > 0
        assert result.spread is None  # one repeat has no spread

    def test_report_entry_carries_unit(self):
        report = bench.run_suite(scenarios=["interval_solver"], repeats=1)
        entry = report["scenarios"]["interval_solver"]
        assert entry["unit"] == "solves"
        # Legacy key names survive so committed baselines keep loading.
        assert entry["instructions_per_second"] > 0

    def test_cycle_scenarios_count_instructions(self):
        result = bench.run_scenario("tracegen", repeats=1)
        assert result.unit == "instr"


class TestCli:
    def test_check_without_baseline_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        report = tmp_path / "report.json"
        code = main([
            "bench", "--scenario", "interval_solver", "--repeat", "1",
            "--check", "0.25", "--baseline", str(missing),
            "--output", str(report),
        ])
        assert code == 2
        assert str(missing) in capsys.readouterr().err
        assert not report.exists()
