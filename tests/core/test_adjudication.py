"""Tests for the adjudication schemes."""

from __future__ import annotations

import pytest

from repro.core.adjudication import (
    KOutOfNScheme,
    MajorityScheme,
    UnanimousScheme,
    WeightedVoteScheme,
    adjudicate,
)
from repro.exceptions import AdjudicationError
from repro.logs.dataset import Dataset
from tests.helpers import make_alert_matrix, make_records


def _matrix():
    """Five requests, three detectors with staggered coverage."""
    dataset = Dataset(make_records(5))
    return make_alert_matrix(
        dataset,
        {
            "a": ["r0", "r1", "r2"],
            "b": ["r0", "r1"],
            "c": ["r0", "r3"],
        },
    )


class TestKOutOfN:
    def test_one_out_of_n_is_union(self):
        result = adjudicate(_matrix(), 1)
        assert result.alerted_ids == frozenset({"r0", "r1", "r2", "r3"})
        assert result.alert_count == 4

    def test_n_out_of_n_is_intersection(self):
        result = adjudicate(_matrix(), 3)
        assert result.alerted_ids == frozenset({"r0"})

    def test_intermediate_k(self):
        result = adjudicate(_matrix(), 2)
        assert result.alerted_ids == frozenset({"r0", "r1"})

    def test_alert_rate(self):
        assert adjudicate(_matrix(), 1).alert_rate() == pytest.approx(0.8)

    def test_k_must_be_positive(self):
        with pytest.raises(AdjudicationError):
            KOutOfNScheme(0)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(AdjudicationError):
            adjudicate(_matrix(), 4)

    def test_scheme_name_includes_k_and_n(self):
        result = adjudicate(_matrix(), 2)
        assert result.scheme_name == "2-out-of-3"

    def test_monotone_in_k(self):
        matrix = _matrix()
        results = [adjudicate(matrix, k) for k in range(1, matrix.n_detectors + 1)]
        sizes = [result.alert_count for result in results]
        assert sizes == sorted(sizes, reverse=True)
        assert len(results) == 3

    def test_result_contains(self):
        result = adjudicate(_matrix(), 1)
        assert "r0" in result
        assert "r4" not in result


class TestConvenienceSchemes:
    def test_unanimous_equals_n_out_of_n(self):
        matrix = _matrix()
        assert UnanimousScheme().apply(matrix).alerted_ids == adjudicate(matrix, 3).alerted_ids

    def test_majority_is_two_of_three(self):
        matrix = _matrix()
        assert MajorityScheme().apply(matrix).alerted_ids == adjudicate(matrix, 2).alerted_ids

    def test_named_results(self):
        matrix = _matrix()
        assert UnanimousScheme().apply(matrix).scheme_name == "unanimous"
        assert MajorityScheme().apply(matrix).scheme_name == "majority"


class TestWeightedVote:
    def test_heavily_weighted_detector_dominates(self):
        matrix = _matrix()
        scheme = WeightedVoteScheme({"a": 10.0, "b": 1.0, "c": 1.0}, threshold=0.5)
        result = scheme.apply(matrix)
        assert result.alerted_ids == frozenset({"r0", "r1", "r2"})

    def test_equal_weights_match_k_out_of_n(self):
        matrix = _matrix()
        weighted = WeightedVoteScheme({"a": 1.0, "b": 1.0, "c": 1.0}, threshold=2 / 3).apply(matrix)
        assert weighted.alerted_ids == adjudicate(matrix, 2).alerted_ids

    def test_missing_weights_default_to_one(self):
        matrix = _matrix()
        result = WeightedVoteScheme({}, threshold=1.0).apply(matrix)
        assert result.alerted_ids == adjudicate(matrix, 3).alerted_ids

    def test_invalid_threshold_and_weights(self):
        with pytest.raises(AdjudicationError):
            WeightedVoteScheme({}, threshold=0.0)
        with pytest.raises(AdjudicationError):
            WeightedVoteScheme({"a": -1.0})

    def test_zero_total_weight_rejected(self):
        matrix = _matrix()
        scheme = WeightedVoteScheme({"a": 0.0, "b": 0.0, "c": 0.0})
        with pytest.raises(AdjudicationError):
            scheme.apply(matrix)


class TestSchemeComparison:
    def test_paper_schemes_on_two_tools(self, pipeline_result):
        """The 1-out-of-2 and 2-out-of-2 schemes from the paper's Section V."""
        matrix = pipeline_result.matrix
        union = adjudicate(matrix, 1)
        intersection = adjudicate(matrix, 2)
        counts = matrix.alert_counts()
        assert union.alert_count >= max(counts.values())
        assert intersection.alert_count <= min(counts.values())
        assert intersection.alerted_ids <= union.alerted_ids
