"""Tests for the table rendering and the end-to-end paper experiment."""

from __future__ import annotations


from repro.core.diversity import DiversityBreakdown
from repro.core.experiment import PaperExperiment
from repro.core.reporting import (
    render_evaluation_rows,
    render_side_by_side,
    render_status_breakdown,
    render_table,
    render_table1,
    render_table2,
)
from repro.core.breakdown import BreakdownTable
from repro.detectors.ratelimit import RateLimitDetector
from repro.logs.dataset import Dataset
from tests.helpers import make_records


class TestRendering:
    def test_render_table_aligns_and_formats_counts(self):
        text = render_table("Demo", [("Total HTTP requests", 1_469_744), ("Something", 12)])
        assert "Demo" in text
        assert "1,469,744" in text
        lines = text.splitlines()
        assert len(lines) == 5

    def test_render_table1_mentions_each_tool(self):
        text = render_table1(100, {"commercial": 80, "inhouse": 75})
        assert "Total HTTP requests" in text
        assert "commercial" in text and "inhouse" in text
        assert "80" in text and "75" in text

    def test_render_table2_has_four_rows(self):
        breakdown = DiversityBreakdown("commercial", "inhouse", both=10, neither=5, first_only=3, second_only=2)
        text = render_table2(breakdown)
        assert "Both commercial and inhouse" in text
        assert "Neither" in text
        assert "inhouse only" in text
        assert "commercial only" in text

    def test_render_status_breakdown_sorted(self):
        table = BreakdownTable(detector="x", dimension="http_status", counts={"200 (OK)": 10, "302 (Found)": 3})
        text = render_status_breakdown(table)
        assert text.index("200 (OK)") < text.index("302 (Found)")

    def test_render_side_by_side_preserves_lines(self):
        left = "A\nB\nC"
        right = "X\nY"
        combined = render_side_by_side(left, right)
        lines = combined.splitlines()
        assert len(lines) == 3
        assert "A" in lines[0] and "X" in lines[0]

    def test_render_evaluation_rows(self):
        rows = [{"name": "commercial", "sensitivity": 0.98, "tp": 123}]
        text = render_evaluation_rows(rows, title="Eval")
        assert "Eval" in text
        assert "0.9800" in text
        assert "123" in text

    def test_render_evaluation_rows_empty(self):
        assert "(no rows)" in render_evaluation_rows([], title="Empty")


class TestPaperExperiment:
    def test_result_contains_all_tables(self, experiment_result):
        result = experiment_result
        assert result.total_requests == len(result.frame)
        assert set(result.alert_counts) == {"commercial", "inhouse"}
        assert set(result.status_tables) == {"commercial", "inhouse"}
        assert set(result.exclusive_status_tables) == {"commercial", "inhouse"}

    def test_breakdown_consistent_with_alert_counts(self, experiment_result):
        breakdown = experiment_result.breakdown
        counts = experiment_result.alert_counts
        assert breakdown.first_total == counts["commercial"]
        assert breakdown.second_total == counts["inhouse"]
        assert breakdown.total == experiment_result.total_requests

    def test_status_tables_sum_to_alert_counts(self, experiment_result):
        for name, table in experiment_result.status_tables.items():
            assert table.total() == experiment_result.alert_counts[name]

    def test_exclusive_tables_match_breakdown(self, experiment_result):
        breakdown = experiment_result.breakdown
        assert experiment_result.exclusive_status_tables["commercial"].total() == breakdown.first_only
        assert experiment_result.exclusive_status_tables["inhouse"].total() == breakdown.second_only

    def test_labelled_evaluations_present(self, experiment_result):
        assert len(experiment_result.tool_evaluations) == 2
        assert len(experiment_result.adjudication_evaluations) == 2
        for evaluation in experiment_result.tool_evaluations:
            assert 0.0 <= evaluation.sensitivity <= 1.0
            assert 0.0 <= evaluation.specificity <= 1.0

    def test_render_methods_produce_text(self, experiment_result):
        assert "Table 1" in experiment_result.render_table1()
        assert "Table 2" in experiment_result.render_table2()
        assert "HTTP status" in experiment_result.render_table3()
        assert "only" in experiment_result.render_table4()
        full = experiment_result.render_all()
        assert full.count("Table") >= 2

    def test_timings_recorded_per_tool_and_sessionization(self, experiment_result):
        # The columnar engine reports the batched feature extraction as
        # its own shared step next to sessionization.
        assert set(experiment_result.timings) == {
            "commercial",
            "inhouse",
            "sessionization",
            "features",
        }
        assert all(value >= 0.0 for value in experiment_result.timings.values())

    def test_custom_detectors_can_be_used(self):
        dataset = Dataset(make_records(30, gap_seconds=0.5))
        experiment = PaperExperiment(
            RateLimitDetector(name="fast", threshold_rpm=60),
            RateLimitDetector(name="slow", threshold_rpm=600),
        )
        result = experiment.run_on(dataset)
        assert result.alert_counts["fast"] == 30
        assert result.alert_counts["slow"] == 0
        # Unlabelled data set -> no labelled evaluations.
        assert result.tool_evaluations == []

    def test_run_scenario_smoke(self):
        from repro.traffic.scenarios import balanced_small

        result = PaperExperiment().run_scenario(balanced_small(total_requests=800, seed=3))
        assert result.total_requests > 300
