"""Tests for the benchmark regression guard and the BENCH JSON schema."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    Scenario,
    bench_document,
    compare_documents,
    default_baseline_path,
    run_guard_scenarios,
    validate_bench_document,
)


def _document(mode="full", calibration=0.1, scenarios=None):
    if scenarios is None:
        scenarios = [
            {"name": "alpha", "seconds": 1.0, "runs": [1.0, 1.1], "value": [3, 4]}
        ]
    return bench_document(mode=mode, calibration_seconds=calibration, scenarios=scenarios)


class TestBenchSchema:
    def test_roundtrips_through_json(self):
        document = _document()
        validate_bench_document(json.loads(json.dumps(document)))

    def test_rejects_wrong_schema_tag(self):
        document = _document()
        document["schema"] = "repro-bench/0"
        with pytest.raises(ValueError, match="schema"):
            validate_bench_document(document)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            _document(mode="medium")

    def test_rejects_missing_calibration(self):
        with pytest.raises(ValueError, match="calibration"):
            _document(calibration=0)

    def test_rejects_empty_scenarios(self):
        with pytest.raises(ValueError, match="scenarios"):
            _document(scenarios=[])

    def test_rejects_scenario_without_value(self):
        with pytest.raises(ValueError, match="value"):
            _document(scenarios=[{"name": "alpha", "seconds": 1.0, "runs": [1.0]}])


def _pair(base_seconds, current_seconds, base_cal=0.1, current_cal=0.1,
          base_value=None, current_value=None):
    baseline = _document(
        calibration=base_cal,
        scenarios=[
            {
                "name": "alpha",
                "seconds": base_seconds,
                "runs": [base_seconds],
                "value": base_value if base_value is not None else [1],
            }
        ],
    )
    current = _document(
        calibration=current_cal,
        scenarios=[
            {
                "name": "alpha",
                "seconds": current_seconds,
                "runs": [current_seconds],
                "value": current_value if current_value is not None else [1],
            }
        ],
    )
    return current, baseline


class TestCompareDocuments:
    def test_equal_times_pass(self):
        report = compare_documents(*_pair(1.0, 1.0))
        assert report.ok
        assert report.rows[0].normalized_ratio == pytest.approx(1.0)

    def test_within_tolerance_passes(self):
        report = compare_documents(*_pair(1.0, 1.2), tolerance=0.25)
        assert report.ok

    def test_regression_fails(self):
        report = compare_documents(*_pair(1.0, 1.6), tolerance=0.25)
        assert not report.ok
        assert report.rows[0].regressed

    def test_calibration_normalizes_slow_machine(self):
        # Twice-slower machine: both the scenario and the spin loop take
        # twice as long -> normalized ratio 1.0, not a regression.
        report = compare_documents(*_pair(1.0, 2.0, base_cal=0.1, current_cal=0.2))
        assert report.ok
        assert report.rows[0].normalized_ratio == pytest.approx(1.0)

    def test_calibration_does_not_mask_real_regression(self):
        # Faster machine (half the calibration time) but the scenario got
        # *slower* in normalized terms.
        report = compare_documents(*_pair(1.0, 0.9, base_cal=0.1, current_cal=0.05))
        assert not report.ok

    def test_value_drift_always_fails(self):
        report = compare_documents(
            *_pair(1.0, 0.1, base_value=[1], current_value=[2])
        )
        assert not report.ok
        assert not report.rows[0].value_matches
        assert "VALUE DRIFT" in report.table().render()

    def test_mode_mismatch_raises(self):
        current, baseline = _pair(1.0, 1.0)
        baseline["mode"] = "quick"
        with pytest.raises(ValueError, match="mode mismatch"):
            compare_documents(current, baseline)

    def test_missing_scenario_fails(self):
        current, baseline = _pair(1.0, 1.0)
        current["scenarios"][0]["name"] = "renamed"
        report = compare_documents(current, baseline)
        assert not report.ok
        assert report.missing == ["alpha"]


class TestRunGuardScenarios:
    def test_custom_scenarios_produce_valid_document(self):
        toy = (
            Scenario("toy", "constant checksum", lambda quick: [7, int(quick)]),
        )
        document = run_guard_scenarios(quick=True, repeats=2, scenarios=toy)
        validate_bench_document(document)
        entry = document["scenarios"][0]
        assert entry["name"] == "toy"
        assert entry["value"] == [7, 1]
        assert len(entry["runs"]) == 2
        assert entry["seconds"] == min(entry["runs"])
        assert document["mode"] == "quick"

    def test_self_comparison_is_clean(self):
        toy = (Scenario("toy", "constant checksum", lambda quick: 42),)
        document = run_guard_scenarios(quick=False, repeats=1, scenarios=toy)
        report = compare_documents(document, document)
        assert report.ok


class TestFaultToleranceScenario:
    def test_scenario_registered(self):
        from repro.bench.guard import SCENARIOS

        # Three anchored timing scenarios plus the fault-tolerance
        # tripwire; engine equivalences are pinned by the test suite.
        assert [s.name for s in SCENARIOS] == [
            "e1_doubling",
            "e5_tc_cycles",
            "micro_core_ops",
            "fault_tolerance",
        ]

    def test_quick_run_is_exact_and_checksummed(self):
        from repro.bench.guard import SCENARIOS

        scenario = next(s for s in SCENARIOS if s.name == "fault_tolerance")
        value = scenario.run(True)
        assert value["instrumented_identical"] is True
        assert value["cancelled_counted"] is True
        assert value["resume_exact"] is True
        assert value["lock_retried"] is True
        assert value["atoms"] > 0
        assert len(value["checksum"]) == 16

    def test_meta_records_overhead_not_value(self):
        from repro.bench.guard import SCENARIOS

        scenario = next(s for s in SCENARIOS if s.name == "fault_tolerance")
        document = run_guard_scenarios(quick=True, repeats=1, scenarios=(scenario,))
        validate_bench_document(document)
        faults = document["meta"]["faults"]
        assert faults["plain_seconds"] > 0
        assert faults["instrumented_seconds"] > 0
        assert faults["overhead_ratio"] > 0
        # The compared value stays timing-free.
        entry = document["scenarios"][0]
        assert set(entry["value"]) == {
            "atoms",
            "instrumented_identical",
            "cancelled_counted",
            "resume_exact",
            "lock_retried",
            "checksum",
        }

    def test_meta_absent_without_the_scenario(self):
        toy = (Scenario("toy", "constant checksum", lambda quick: 42),)
        document = run_guard_scenarios(quick=True, repeats=1, scenarios=toy)
        assert "faults" not in document["meta"]


class TestBaselinePaths:
    def test_modes_map_to_distinct_files(self):
        assert default_baseline_path(True).name == "BENCH_guard_quick.json"
        assert default_baseline_path(False).name == "BENCH_guard_full.json"

    @staticmethod
    def _check_committed_baseline(quick: bool) -> None:
        from repro.bench.guard import SCENARIOS

        path = default_baseline_path(quick)
        if not path.exists():
            pytest.skip(f"{path.name} not committed yet")
        document = json.loads(path.read_text())
        validate_bench_document(document)
        # A deleted or renamed scenario must not leave a stale entry behind.
        assert [entry["name"] for entry in document["scenarios"]] == [
            scenario.name for scenario in SCENARIOS
        ]

    def test_committed_quick_baseline_is_valid(self):
        self._check_committed_baseline(quick=True)

    def test_committed_full_baseline_is_valid(self):
        self._check_committed_baseline(quick=False)
