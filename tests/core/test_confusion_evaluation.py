"""Tests for the confusion matrix and the labelled evaluation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columns import RecordFrame
from repro.core.confusion import ConfusionMatrix
from repro.core.evaluation import DetectorEvaluation
from repro.core.framestats import (
    confusion_from_flags,
    evaluate_ensemble_from_frame,
    evaluate_matrix_from_frame,
    k_out_of_n,
    per_actor_rates_from_frame,
)
from repro.exceptions import AdjudicationError, AnalysisError, LabelError
from repro.logs.dataset import Dataset
from tests.helpers import make_alert_matrix, make_labelled_dataset, make_records


def _flags(frame: RecordFrame, alerted: set[str]) -> np.ndarray:
    return np.array([request_id in alerted for request_id in frame.request_ids], dtype=bool)


class TestConfusionMatrix:
    def test_rates_from_counts(self):
        cm = ConfusionMatrix(true_positives=80, false_positives=10, true_negatives=90, false_negatives=20)
        assert cm.sensitivity() == pytest.approx(0.8)
        assert cm.specificity() == pytest.approx(0.9)
        assert cm.precision() == pytest.approx(80 / 90)
        assert cm.false_positive_rate() == pytest.approx(0.1)
        assert cm.false_negative_rate() == pytest.approx(0.2)
        assert cm.accuracy() == pytest.approx(170 / 200)
        assert cm.balanced_accuracy() == pytest.approx(0.85)
        assert 0 < cm.f1_score() < 1
        assert 0 < cm.matthews_correlation() < 1

    def test_negative_counts_rejected(self):
        with pytest.raises(AnalysisError):
            ConfusionMatrix(true_positives=-1, false_positives=0, true_negatives=0, false_negatives=0)

    def test_degenerate_populations(self):
        no_positives = ConfusionMatrix(0, 0, 10, 0)
        assert no_positives.sensitivity() == 1.0
        assert no_positives.precision() == 1.0
        no_negatives = ConfusionMatrix(10, 0, 0, 0)
        assert no_negatives.specificity() == 1.0
        empty = ConfusionMatrix(0, 0, 0, 0)
        assert empty.accuracy() == 1.0
        # An empty population is vacuously perfect (sensitivity and precision
        # both default to 1.0), so F1 follows; MCC degenerates to 0.
        assert empty.f1_score() == 1.0
        assert empty.matthews_correlation() == 0.0

    def test_from_alerts(self):
        frame = RecordFrame.from_dataset(make_labelled_dataset(["m0", "m1", "m2"], ["b0", "b1"]))
        cm = confusion_from_flags(frame.labels, _flags(frame, {"m0", "m1", "b0"}))
        assert cm.true_positives == 2
        assert cm.false_negatives == 1
        assert cm.false_positives == 1
        assert cm.true_negatives == 1
        assert cm.total == 5

    def test_from_alerts_with_explicit_ids(self):
        """Restricting the label and flag columns to some rows counts only those."""
        frame = RecordFrame.from_dataset(make_labelled_dataset(["m0", "m1"], ["b0"]))
        rows = [frame.row_index()[request_id] for request_id in ("m0", "b0")]
        cm = confusion_from_flags(frame.labels[rows], _flags(frame, {"m0"})[rows])
        assert cm.total == 2
        assert cm.true_positives == 1
        assert cm.true_negatives == 1

    def test_as_dict_keys(self):
        cm = ConfusionMatrix(1, 2, 3, 4)
        assert {"tp", "fp", "tn", "fn", "sensitivity", "specificity", "precision", "f1"} <= set(cm.as_dict())


class TestEvaluation:
    def _setup(self):
        dataset = make_labelled_dataset(["m0", "m1", "m2", "m3"], ["b0", "b1", "b2", "b3"])
        matrix = make_alert_matrix(
            dataset,
            {
                "sharp": ["m0", "m1", "m2"],
                "noisy": ["m0", "m1", "m2", "m3", "b0", "b1"],
            },
        )
        return RecordFrame.from_dataset(dataset), matrix

    def test_evaluate_alert_set(self):
        frame, matrix = self._setup()
        evaluation = DetectorEvaluation(
            name="sharp", confusion=confusion_from_flags(frame.labels, matrix.column("sharp"))
        )
        assert evaluation.sensitivity == pytest.approx(0.75)
        assert evaluation.specificity == pytest.approx(1.0)
        assert evaluation.name == "sharp"
        assert evaluation.as_dict()["name"] == "sharp"

    def test_evaluate_matrix_covers_all_detectors(self):
        frame, matrix = self._setup()
        evaluations = {e.name: e for e in evaluate_matrix_from_frame(frame, matrix)}
        assert set(evaluations) == {"sharp", "noisy"}
        assert evaluations["noisy"].sensitivity == pytest.approx(1.0)
        assert evaluations["noisy"].specificity == pytest.approx(0.5)

    def test_evaluate_ensemble_k_schemes(self):
        frame, matrix = self._setup()
        evaluations = evaluate_ensemble_from_frame(frame, matrix)
        assert [e.name for e in evaluations] == ["1-out-of-2", "2-out-of-2"]
        union, intersection = evaluations
        assert union.sensitivity >= intersection.sensitivity
        assert intersection.specificity >= union.specificity

    def test_evaluate_ensemble_specific_ks(self):
        frame, matrix = self._setup()
        evaluations = evaluate_ensemble_from_frame(frame, matrix, ks=[2])
        assert len(evaluations) == 1
        for bad in ([0], [3]):
            with pytest.raises(AdjudicationError):
                evaluate_ensemble_from_frame(frame, matrix, ks=bad)

    def test_tradeoff_points_structure(self):
        frame, matrix = self._setup()
        points = [e.as_dict() for e in evaluate_ensemble_from_frame(frame, matrix)]
        assert len(points) == 2
        assert all({"name", "sensitivity", "specificity", "precision", "f1"} <= set(p) for p in points)

    def test_evaluations_require_labels(self):
        dataset = Dataset(make_records(3))
        frame = RecordFrame.from_dataset(dataset)
        matrix = make_alert_matrix(dataset, {"a": ["r0"]})
        for kernel in (evaluate_matrix_from_frame, evaluate_ensemble_from_frame):
            with pytest.raises(LabelError):
                kernel(frame, matrix)
        with pytest.raises(LabelError):
            per_actor_rates_from_frame(frame, matrix.column("a"))

    def test_adjudication_tradeoff_direction(self):
        """1-out-of-2 never has lower sensitivity, 2-out-of-2 never lower specificity."""
        frame, matrix = self._setup()
        single = evaluate_matrix_from_frame(frame, matrix)
        votes = matrix.votes_per_request()
        union = confusion_from_flags(frame.labels, k_out_of_n(votes, 1, 2)[1])
        both = confusion_from_flags(frame.labels, k_out_of_n(votes, 2, 2)[1])
        assert union.sensitivity() >= max(e.sensitivity for e in single)
        assert both.specificity() >= max(e.specificity for e in single)

    def test_per_actor_class_detection(self):
        frame = RecordFrame.from_dataset(make_labelled_dataset(["m0", "m1"], ["b0"]))
        rates = per_actor_rates_from_frame(frame, _flags(frame, {"m0"}))
        assert rates["aggressive_scraper"] == pytest.approx(0.5)
        assert rates["human"] == 0.0

    def test_per_actor_class_on_generated_traffic(self, small_dataset, pipeline_result):
        frame = RecordFrame.from_dataset(small_dataset)
        rates = per_actor_rates_from_frame(frame, pipeline_result.matrix.column("commercial"))
        assert rates["aggressive_scraper"] > 0.9
        assert rates["human"] < 0.1
