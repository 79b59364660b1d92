"""Tests for the k-out-of-n and weighted-vote adjudication kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framestats import k_out_of_n, weighted_vote
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


def _ids(matrix, flags):
    """The request ids of the flagged rows."""
    return {request_id for request_id, flag in zip(matrix.request_ids, flags) if flag}


def _flags(matrix, k):
    """The k-out-of-n flag column of a matrix."""
    _name, flags = k_out_of_n(matrix.votes_per_request(), k, matrix.n_detectors)
    return flags


class TestKOutOfN:
    def test_one_out_of_n_is_union(self):
        matrix = _matrix()
        flags = _flags(matrix, 1)
        assert _ids(matrix, flags) == {"r0", "r1", "r2", "r3"}
        assert int(np.count_nonzero(flags)) == 4

    def test_n_out_of_n_is_intersection(self):
        matrix = _matrix()
        assert _ids(matrix, _flags(matrix, 3)) == {"r0"}

    def test_intermediate_k(self):
        matrix = _matrix()
        assert _ids(matrix, _flags(matrix, 2)) == {"r0", "r1"}

    def test_alert_rate(self):
        assert _flags(_matrix(), 1).mean() == pytest.approx(0.8)

    def test_k_must_be_positive(self):
        matrix = _matrix()
        with pytest.raises(AdjudicationError, match="between 1 and 3"):
            k_out_of_n(matrix.votes_per_request(), 0, matrix.n_detectors)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(AdjudicationError, match="between 1 and 3"):
            _flags(_matrix(), 4)

    def test_scheme_name_includes_k_and_n(self):
        matrix = _matrix()
        name, _ = k_out_of_n(matrix.votes_per_request(), 2, matrix.n_detectors)
        assert name == "2-out-of-3"

    def test_monotone_in_k(self):
        matrix = _matrix()
        results = [_flags(matrix, k) for k in range(1, matrix.n_detectors + 1)]
        sizes = [int(np.count_nonzero(flags)) for flags in results]
        assert sizes == sorted(sizes, reverse=True)
        assert len(results) == 3

    def test_result_contains(self):
        """The flag column follows the matrix's request order."""
        matrix = _matrix()
        flags = _flags(matrix, 1)
        assert flags[matrix.request_ids.index("r0")]
        assert not flags[matrix.request_ids.index("r4")]


class TestConvenienceSchemes:
    """Unanimity is k = n and a strict majority is k = n // 2 + 1."""

    def test_unanimous_equals_n_out_of_n(self):
        matrix = _matrix()
        unanimous = matrix.values.all(axis=1)
        assert np.array_equal(_flags(matrix, matrix.n_detectors), unanimous)

    def test_majority_is_two_of_three(self):
        matrix = _matrix()
        n = matrix.n_detectors
        assert n // 2 + 1 == 2
        more_than_half = 2 * matrix.values.sum(axis=1) > n
        assert np.array_equal(_flags(matrix, n // 2 + 1), more_than_half)


class TestWeightedVote:
    def test_heavily_weighted_detector_dominates(self):
        matrix = _matrix()
        flags = weighted_vote(matrix, {"a": 10.0, "b": 1.0, "c": 1.0}, threshold=0.5)
        assert _ids(matrix, flags) == {"r0", "r1", "r2"}

    def test_equal_weights_match_k_out_of_n(self):
        matrix = _matrix()
        weighted = weighted_vote(matrix, {"a": 1.0, "b": 1.0, "c": 1.0}, threshold=2 / 3)
        assert np.array_equal(weighted, _flags(matrix, 2))

    def test_missing_weights_default_to_one(self):
        matrix = _matrix()
        assert np.array_equal(weighted_vote(matrix, {}, threshold=1.0), _flags(matrix, 3))

    def test_invalid_threshold_and_weights(self):
        matrix = _matrix()
        with pytest.raises(AdjudicationError):
            weighted_vote(matrix, {}, threshold=0.0)
        with pytest.raises(AdjudicationError):
            weighted_vote(matrix, {"a": -1.0})

    def test_zero_total_weight_rejected(self):
        with pytest.raises(AdjudicationError):
            weighted_vote(_matrix(), {"a": 0.0, "b": 0.0, "c": 0.0})


class TestSchemeComparison:
    def test_paper_schemes_on_two_tools(self, pipeline_result):
        """The 1-out-of-2 and 2-out-of-2 schemes from the paper's Section V."""
        matrix = pipeline_result.matrix
        union = _flags(matrix, 1)
        intersection = _flags(matrix, 2)
        counts = matrix.alert_counts()
        assert np.count_nonzero(union) >= max(counts.values())
        assert np.count_nonzero(intersection) <= min(counts.values())
        assert not np.any(intersection & ~union)
