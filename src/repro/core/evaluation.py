"""Labelled evaluation of detectors and ensembles.

This is the paper's stated next step: once ground truth exists, each
tool's alerts can be classified into true/false positives and the traffic
it left alone into true/false negatives, and the same can be done for
every adjudicated combination of tools.  The synthetic data set carries
ground truth, so these evaluations run as extension experiments; the
kernels in :mod:`repro.core.framestats` compute them from the frame's
label column.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.confusion import ConfusionMatrix


@dataclass(frozen=True)
class DetectorEvaluation:
    """Confusion matrix and derived rates for one detector or ensemble."""

    name: str
    confusion: ConfusionMatrix

    @property
    def sensitivity(self) -> float:
        """Detected fraction of malicious requests."""
        return self.confusion.sensitivity()

    @property
    def specificity(self) -> float:
        """Fraction of benign requests left alone."""
        return self.confusion.specificity()

    @property
    def precision(self) -> float:
        """Fraction of alerts that were truly malicious."""
        return self.confusion.precision()

    @property
    def f1(self) -> float:
        """F1 score."""
        return self.confusion.f1_score()

    def as_dict(self) -> dict[str, float]:
        """Name, counts and rates as a flat dictionary."""
        values = self.confusion.as_dict()
        values["name"] = self.name  # type: ignore[assignment]
        return values
