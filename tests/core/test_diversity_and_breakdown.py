"""Tests for the diversity breakdowns and the Table 3/4 dimension breakdowns."""

from __future__ import annotations

import pytest

from repro.columns import RecordFrame
from repro.core.diversity import diversity_breakdown, multi_detector_breakdown
from repro.core.framestats import status_breakdown_from_frame, status_tables_from_frame
from repro.exceptions import AnalysisError
from repro.logs.dataset import Dataset
from tests.helpers import make_alert_matrix, make_labelled_dataset, make_records


def _two_tool_matrix():
    """Six requests: r0,r1 both; r2 first-only; r3 second-only; r4,r5 neither."""
    dataset = Dataset(make_records(6))
    matrix = make_alert_matrix(dataset, {"first": ["r0", "r1", "r2"], "second": ["r0", "r1", "r3"]})
    return dataset, matrix


class TestDiversityBreakdown:
    def test_counts_match_construction(self):
        _, matrix = _two_tool_matrix()
        breakdown = diversity_breakdown(matrix, "first", "second")
        assert breakdown.both == 2
        assert breakdown.first_only == 1
        assert breakdown.second_only == 1
        assert breakdown.neither == 2
        assert breakdown.total == 6

    def test_totals_consistent_with_table1(self):
        _, matrix = _two_tool_matrix()
        breakdown = diversity_breakdown(matrix, "first", "second")
        assert breakdown.first_total == matrix.alert_counts()["first"]
        assert breakdown.second_total == matrix.alert_counts()["second"]

    def test_agreement_and_disagreement(self):
        _, matrix = _two_tool_matrix()
        breakdown = diversity_breakdown(matrix, "first", "second")
        assert breakdown.agreement == 4
        assert breakdown.disagreement == 2
        assert breakdown.agreement_rate() == pytest.approx(4 / 6)

    def test_same_detector_rejected(self):
        _, matrix = _two_tool_matrix()
        with pytest.raises(AnalysisError):
            diversity_breakdown(matrix, "first", "first")

    def test_as_dict_and_contingency(self):
        _, matrix = _two_tool_matrix()
        breakdown = diversity_breakdown(matrix, "first", "second")
        as_dict = breakdown.as_dict()
        assert as_dict["both"] == 2
        assert as_dict["first_only"] == 1
        table = breakdown.contingency()
        assert table.shape == (2, 2)
        assert table.sum() == 6

    def test_breakdown_is_symmetric_in_counts(self):
        _, matrix = _two_tool_matrix()
        forward = diversity_breakdown(matrix, "first", "second")
        backward = diversity_breakdown(matrix, "second", "first")
        assert forward.both == backward.both
        assert forward.neither == backward.neither
        assert forward.first_only == backward.second_only


class TestMultiDetectorBreakdown:
    def test_histogram_and_exclusives(self):
        dataset = Dataset(make_records(5))
        matrix = make_alert_matrix(
            dataset,
            {"a": ["r0", "r1", "r2"], "b": ["r0", "r1"], "c": ["r0", "r4"]},
        )
        breakdown = multi_detector_breakdown(matrix)
        assert breakdown.votes_histogram == {0: 1, 1: 2, 2: 1, 3: 1}
        assert breakdown.exclusive_counts == {"a": 1, "b": 0, "c": 1}
        assert breakdown.alerted_by_all == 1
        assert breakdown.alerted_by_none == 1
        assert breakdown.coverage_union() == 4
        assert breakdown.total == 5

    def test_histogram_sums_to_total(self, pipeline_result):
        breakdown = multi_detector_breakdown(pipeline_result.matrix)
        assert sum(breakdown.votes_histogram.values()) == breakdown.total


class TestStatusBreakdowns:
    def _status_frame(self):
        dataset = make_labelled_dataset(
            ["m0", "m1", "m2"],
            ["b0"],
            status_for={"m0": 200, "m1": 302, "m2": 400, "b0": 200},
        )
        matrix = make_alert_matrix(dataset, {"first": ["m0", "m1", "m2"], "second": ["m0"]})
        return RecordFrame.from_dataset(dataset), matrix

    def _first_table(self, **kwargs):
        frame, matrix = self._status_frame()
        return status_breakdown_from_frame(frame, matrix.column("first"), "first", **kwargs)

    def test_status_breakdown_counts(self):
        table = self._first_table()
        assert table.counts["200 (OK)"] == 1
        assert table.counts["302 (Found)"] == 1
        assert table.counts["400 (Bad request)"] == 1
        assert table.total() == 3
        assert (table.detector, table.dimension) == ("first", "http_status")

    def test_status_breakdown_unlabelled_keys(self):
        table = self._first_table(labelled=False)
        assert table.counts[200] == 1

    def test_exclusive_breakdown_only_counts_single_tool_alerts(self):
        frame, matrix = self._status_frame()
        _, exclusive = status_tables_from_frame(frame, matrix, ("first", "second"))
        table = exclusive["first"]
        # m0 is alerted by both, so only m1 and m2 remain.
        assert table.total() == 2
        assert "200 (OK)" not in table.counts
        assert table.dimension == "http_status_exclusive"
        assert exclusive["second"].total() == 0

    def test_sorted_rows_descending(self):
        rows = self._first_table().sorted_rows()
        counts = [count for _, count in rows]
        assert counts == sorted(counts, reverse=True)

    def test_fraction_of(self):
        table = self._first_table()
        assert table.fraction_of("200 (OK)") == pytest.approx(1 / 3)
        assert table.fraction_of("nope") == 0.0

    def test_top_n(self):
        assert len(self._first_table().top(2)) == 2

    def test_empty_breakdown(self):
        dataset = Dataset(make_records(2))
        matrix = make_alert_matrix(dataset, {"a": []})
        frame = RecordFrame.from_dataset(dataset)
        table = status_breakdown_from_frame(frame, matrix.column("a"), "a")
        assert table.total() == 0
        assert table.sorted_rows() == []
        assert table.as_dict() == {}
