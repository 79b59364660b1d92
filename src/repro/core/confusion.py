"""Confusion matrices and derived classification rates.

The paper notes that once the data set is labelled, each tool (and each
adjudicated combination of tools) can be described "in terms of the usual
measures for binary classifiers (e.g. Sensitivity and Specificity)".
:class:`ConfusionMatrix` holds the four counts and derives the usual
rates; it is the common currency of the labelled extension experiments.
:func:`repro.core.framestats.confusion_from_flags` builds one from a
label column and a boolean alert column.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import AnalysisError


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of true/false positives/negatives for one detector or ensemble."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int

    def __post_init__(self) -> None:
        for field_name, value in (
            ("true_positives", self.true_positives),
            ("false_positives", self.false_positives),
            ("true_negatives", self.true_negatives),
            ("false_negatives", self.false_negatives),
        ):
            if value < 0:
                raise AnalysisError(f"{field_name} cannot be negative")

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Total number of classified requests."""
        return self.true_positives + self.false_positives + self.true_negatives + self.false_negatives

    @property
    def actual_positives(self) -> int:
        """Number of requests that are actually malicious."""
        return self.true_positives + self.false_negatives

    @property
    def actual_negatives(self) -> int:
        """Number of requests that are actually benign."""
        return self.true_negatives + self.false_positives

    @property
    def predicted_positives(self) -> int:
        """Number of requests the detector alerted on."""
        return self.true_positives + self.false_positives

    # ------------------------------------------------------------------
    def sensitivity(self) -> float:
        """True-positive rate (recall): detected fraction of malicious requests."""
        if self.actual_positives == 0:
            return 1.0
        return self.true_positives / self.actual_positives

    def specificity(self) -> float:
        """True-negative rate: fraction of benign requests left alone."""
        if self.actual_negatives == 0:
            return 1.0
        return self.true_negatives / self.actual_negatives

    def precision(self) -> float:
        """Fraction of alerts that were actually malicious."""
        if self.predicted_positives == 0:
            return 1.0
        return self.true_positives / self.predicted_positives

    def false_positive_rate(self) -> float:
        """Fraction of benign requests incorrectly alerted."""
        return 1.0 - self.specificity()

    def false_negative_rate(self) -> float:
        """Fraction of malicious requests missed."""
        return 1.0 - self.sensitivity()

    def accuracy(self) -> float:
        """Fraction of all requests classified correctly."""
        if self.total == 0:
            return 1.0
        return (self.true_positives + self.true_negatives) / self.total

    def f1_score(self) -> float:
        """Harmonic mean of precision and sensitivity."""
        precision = self.precision()
        recall = self.sensitivity()
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    def balanced_accuracy(self) -> float:
        """Mean of sensitivity and specificity (robust to class imbalance)."""
        return (self.sensitivity() + self.specificity()) / 2.0

    def matthews_correlation(self) -> float:
        """Matthews correlation coefficient."""
        tp, fp, tn, fn = self.true_positives, self.false_positives, self.true_negatives, self.false_negatives
        denominator: float = ((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)) ** 0.5
        if denominator == 0:
            return 0.0
        return (tp * tn - fp * fn) / denominator

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, float]:
        """Counts and derived rates keyed by name."""
        return {
            "tp": float(self.true_positives),
            "fp": float(self.false_positives),
            "tn": float(self.true_negatives),
            "fn": float(self.false_negatives),
            "sensitivity": self.sensitivity(),
            "specificity": self.specificity(),
            "precision": self.precision(),
            "f1": self.f1_score(),
            "accuracy": self.accuracy(),
            "balanced_accuracy": self.balanced_accuracy(),
        }
