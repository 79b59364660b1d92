"""Tests for the pairwise diversity metrics."""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.columns import RecordFrame
from repro.core.diversity import DiversityBreakdown
from repro.core.framestats import double_fault_from_frame, pairwise_diversity_from_frame
from repro.core.metrics import (
    cohens_kappa,
    correlation_coefficient,
    disagreement_measure,
    entropy_measure,
    yules_q,
)
from repro.exceptions import AnalysisError, LabelError
from repro.logs.dataset import Dataset
from tests.helpers import make_alert_matrix, make_labelled_dataset, make_records


def _breakdown(both: int, neither: int, first_only: int, second_only: int) -> DiversityBreakdown:
    return DiversityBreakdown(
        first_detector="a",
        second_detector="b",
        both=both,
        neither=neither,
        first_only=first_only,
        second_only=second_only,
    )


class TestKappa:
    def test_perfect_agreement_is_one(self):
        assert cohens_kappa(_breakdown(50, 50, 0, 0)) == pytest.approx(1.0)

    def test_complete_disagreement_is_negative(self):
        assert cohens_kappa(_breakdown(0, 0, 50, 50)) < 0

    def test_independent_detectors_near_zero(self):
        # P(alert)=0.5 for both, independent: both=25, neither=25, each only=25.
        assert cohens_kappa(_breakdown(25, 25, 25, 25)) == pytest.approx(0.0)

    def test_empty_population(self):
        assert cohens_kappa(_breakdown(0, 0, 0, 0)) == 1.0


class TestYulesQ:
    def test_always_together_is_one(self):
        assert yules_q(_breakdown(40, 40, 0, 0)) > 0.95

    def test_never_together_is_minus_one(self):
        assert yules_q(_breakdown(0, 0, 40, 40)) < -0.95

    def test_independence_is_zero(self):
        assert yules_q(_breakdown(25, 25, 25, 25)) == pytest.approx(0.0)

    def test_bounded(self):
        q = yules_q(_breakdown(10, 3, 7, 2))
        assert -1.0 <= q <= 1.0


class TestOtherPairwiseMetrics:
    def test_correlation_matches_sign_of_association(self):
        assert correlation_coefficient(_breakdown(40, 40, 5, 5)) > 0
        assert correlation_coefficient(_breakdown(5, 5, 40, 40)) < 0

    def test_correlation_degenerate_is_zero(self):
        assert correlation_coefficient(_breakdown(10, 0, 0, 0)) == 0.0

    def test_disagreement_measure(self):
        assert disagreement_measure(_breakdown(2, 2, 3, 3)) == pytest.approx(0.6)
        assert disagreement_measure(_breakdown(0, 0, 0, 0)) == 0.0

    def test_entropy_bounds(self):
        assert entropy_measure(_breakdown(25, 25, 25, 25)) == pytest.approx(2.0)
        assert entropy_measure(_breakdown(100, 0, 0, 0)) == 0.0
        assert entropy_measure(_breakdown(0, 0, 0, 0)) == 0.0


def _frame_and_matrix(dataset, alerted_by_detector):
    return RecordFrame.from_dataset(dataset), make_alert_matrix(dataset, alerted_by_detector)


class TestDoubleFault:
    def test_counts_malicious_missed_by_both(self):
        dataset = make_labelled_dataset(["m0", "m1", "m2", "m3"], ["b0", "b1"])
        frame, matrix = _frame_and_matrix(dataset, {"a": ["m0", "m1"], "b": ["m1", "m2"]})
        # m3 is missed by both -> 1 of 4 malicious.
        assert double_fault_from_frame(frame, matrix, "a", "b") == pytest.approx(0.25)

    def test_requires_malicious_requests(self):
        dataset = make_labelled_dataset([], ["b0", "b1"])
        frame, matrix = _frame_and_matrix(dataset, {"a": [], "b": []})
        with pytest.raises(AnalysisError):
            double_fault_from_frame(frame, matrix, "a", "b")

    def test_requires_labels(self):
        frame, matrix = _frame_and_matrix(Dataset(make_records(2)), {"a": ["r0"], "b": []})
        with pytest.raises(LabelError):
            double_fault_from_frame(frame, matrix, "a", "b")


class TestPairwiseDiversityAggregate:
    def test_contains_all_metrics(self):
        dataset = make_labelled_dataset(["m0", "m1"], ["b0", "b1"])
        frame, matrix = _frame_and_matrix(dataset, {"a": ["m0", "m1"], "b": ["m0"]})
        result = pairwise_diversity_from_frame(frame, matrix, "a", "b")
        values = result.as_dict()
        assert {"kappa", "q_statistic", "correlation", "disagreement", "entropy", "double_fault"} <= set(values)
        assert result.breakdown.both == 1

    def test_double_fault_absent_without_labels(self):
        dataset = Dataset(make_records(4))
        frame, matrix = _frame_and_matrix(dataset, {"a": ["r0"], "b": ["r1"]})
        result = pairwise_diversity_from_frame(frame, matrix, "a", "b")
        assert result.double_fault is None
        assert "double_fault" not in result.as_dict()

    def test_double_fault_absent_without_malicious_requests(self):
        """All-benign labelled traffic renders like unlabelled traffic."""
        dataset = make_labelled_dataset([], ["b0", "b1", "b2"])
        frame, matrix = _frame_and_matrix(dataset, {"a": ["b0"], "b": []})
        result = pairwise_diversity_from_frame(frame, matrix, "a", "b")
        assert result.double_fault is None
        assert result.disagreement == pytest.approx(1 / 3)

    def test_all_pairwise_covers_every_pair(self):
        dataset = make_labelled_dataset(["m0"], ["b0"])
        frame, matrix = _frame_and_matrix(dataset, {"a": ["m0"], "b": [], "c": ["b0"]})
        pairs = [
            pairwise_diversity_from_frame(frame, matrix, first, second)
            for first, second in combinations(matrix.detector_names, 2)
        ]
        names = {(p.first_detector, p.second_detector) for p in pairs}
        assert names == {("a", "b"), ("a", "c"), ("b", "c")}
        assert all(p.breakdown.total == 2 for p in pairs)
        # Only b and c both miss the malicious request.
        assert [p.double_fault for p in pairs] == [0.0, 0.0, 1.0]

    def test_mean_pairwise_disagreement(self):
        """Detectors that alert on exactly the same requests never disagree."""
        dataset = make_labelled_dataset(["m0", "m1"], ["b0", "b1"])
        frame, matrix = _frame_and_matrix(dataset, {"a": ["m0", "m1"], "b": ["m0", "m1"]})
        assert pairwise_diversity_from_frame(frame, matrix, "a", "b").disagreement == pytest.approx(0.0)

    def test_paper_numbers_yield_high_agreement_low_kappa_structure(self):
        """Sanity check the metrics on the actual published counts."""
        from repro.bench.expected import PAPER_TABLE2

        breakdown = DiversityBreakdown(
            first_detector="commercial",
            second_detector="inhouse",
            both=PAPER_TABLE2["both"],
            neither=PAPER_TABLE2["neither"],
            first_only=PAPER_TABLE2["commercial_only"],
            second_only=PAPER_TABLE2["inhouse_only"],
        )
        # The published tools agree on ~96% of requests with strongly
        # positive association.
        assert disagreement_measure(breakdown) == pytest.approx(0.036, abs=0.002)
        assert cohens_kappa(breakdown) > 0.8
        assert yules_q(breakdown) > 0.95

    def test_realistic_experiment_agreement(self, experiment_result):
        metrics = experiment_result.diversity_metrics
        assert metrics.kappa > 0.5
        assert metrics.disagreement < 0.2
        assert metrics.double_fault is not None
        assert metrics.double_fault < 0.2
