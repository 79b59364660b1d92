"""Naive-Bayes robot detector.

Follows the probabilistic-reasoning approach to web robot detection
(Stassopoulou & Dikaiakos 2009): binarise a handful of session indicators
(high rate, no assets, no referrers, wide coverage, error probing,
night-time activity, non-browser agent), learn per-class likelihoods and
classify sessions by posterior probability.  Training labels come from
the shared self-training pseudo-labeller
(:mod:`repro.detectors.pseudolabels`); when the pseudo-labels do not
contain both classes the detector degrades gracefully to alerting only on
the confidently automated sessions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.detectors.base import Detector
from repro.detectors.pseudolabels import PseudoLabelConfig, pseudo_label_matrix
from repro.ml.naive_bayes import BernoulliNaiveBayes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts

#: Names of the binary indicators, in vector order.
INDICATOR_NAMES: tuple[str, ...] = (
    "high_rate",
    "no_assets",
    "no_referrers",
    "wide_coverage",
    "error_probing",
    "night_activity",
    "non_browser_agent",
    "large_session",
)


def binarize_matrix(features: "FeatureMatrix") -> np.ndarray:
    """Every session's binary indicator vector, in :data:`INDICATOR_NAMES` order."""
    counts = features.counts
    return np.column_stack(
        [
            features.column("requests_per_minute") > 30.0,
            features.column("asset_fraction") < 0.05,
            features.column("referrer_fraction") < 0.2,
            (features.column("unique_path_ratio") > 0.85) & (counts >= 15),
            (features.column("error_rate") > 0.04)
            | (features.column("no_content_fraction") > 0.06)
            | (features.column("head_fraction") > 0.08),
            features.column("night_fraction") > 0.4,
            (features.column("scripted_agent") != 0.0)
            | (features.column("headless_agent") != 0.0),
            counts >= 30,
        ]
    ).astype(float)


class NaiveBayesRobotDetector(Detector):
    """Self-trained Bernoulli naive-Bayes session classifier."""

    def __init__(
        self,
        *,
        name: str = "naive-bayes",
        alert_probability: float = 0.7,
        pseudo_label_config: PseudoLabelConfig | None = None,
    ) -> None:
        if not 0.0 < alert_probability < 1.0:
            raise ValueError("alert_probability must be in (0, 1)")
        self.name = name
        self.alert_probability = alert_probability
        self.pseudo_label_config = pseudo_label_config
        self.model: BernoulliNaiveBayes | None = None

    # ------------------------------------------------------------------
    def alert_columns(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "DetectorAlerts":
        """Alert every session whose bot posterior reaches the threshold."""
        from repro.columns.alertframe import DetectorAlerts, threshold_session_alerts

        if len(features) == 0:
            return DetectorAlerts.empty(self.name, len(frame))

        indicator_matrix = binarize_matrix(features)
        indices, labels = pseudo_label_matrix(features, self.pseudo_label_config)

        if indices.size and np.unique(labels).size == 2:
            self.model = BernoulliNaiveBayes()
            self.model.fit(indicator_matrix[indices], labels)
            probabilities = self.model.predict_proba(indicator_matrix)
            bot_column = int(np.where(self.model.classes_ == 1)[0][0])
            bot_probability = probabilities[:, bot_column]
        else:
            # Degenerate pseudo-label population: fall back to flagging only
            # the sessions the pseudo-labeller itself is confident about.
            self.model = None
            bot_probability = np.zeros(len(features))
            bot_probability[indices[labels == 1]] = 1.0 if indices.size else 0.0

        return threshold_session_alerts(
            self.name,
            frame,
            sessions,
            bot_probability,
            self.alert_probability,
            "naive Bayes bot posterior",
        )
