"""Anomaly-based session detector.

Wraps any of the unsupervised models from :mod:`repro.anomaly` (isolation
forest, k-NN distance, Mahalanobis, robust z-score) into the common
detector interface: fit on the session feature matrix of the analysed
data set, score every session and alert on the most anomalous fraction
(the *contamination* parameter).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.anomaly.base import AnomalyModel
from repro.anomaly.isolation_forest import IsolationForestModel
from repro.detectors.base import Detector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts


def alert_anomalous_groups(
    model: AnomalyModel, matrix: np.ndarray, contamination: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[str, ...]]]:
    """Fit ``model`` on ``matrix`` and flag the top-``contamination`` rows.

    One row of ``matrix`` describes one session.  Returns the per-session
    verdicts ``(flags, scores, reason codes, reason table)``: a flagged
    session's score is its model score over the largest one (capped at
    1), and its one reason names the model and the raw score.  This is
    the single definition of the fit/threshold/normalise step, shared by
    the batch detector below (which scatters the verdicts onto the
    sessions' rows) and the streaming port
    (:class:`repro.stream.detectors.OnlineAnomalyDetector`, which files
    them as row spans) so their alerts can never drift apart.
    """
    # Imported lazily: repro.columns builds on the detectors package.
    from repro.columns.alertframe import ReasonEncoder

    scores = model.fit_score(matrix)
    threshold = model.threshold_for_contamination(scores, contamination)
    max_score = float(scores.max()) or 1.0
    count = len(scores)
    flags = np.zeros(count, dtype=bool)
    normalised = np.zeros(count, dtype=np.float64)
    codes = np.full(count, -1, dtype=np.int64)
    encoder = ReasonEncoder()
    model_name = model.__class__.__name__
    for index, score in enumerate(scores.tolist()):
        if score < threshold:
            continue
        flags[index] = True
        normalised[index] = min(1.0, score / max_score)
        codes[index] = encoder.code(
            (f"anomalous session ({model_name} score {score:.3f})",)
        )
    return flags, normalised, codes, encoder.table


class AnomalySessionDetector(Detector):
    """Alert on the most anomalous sessions according to an unsupervised model."""

    def __init__(
        self,
        model: AnomalyModel | None = None,
        *,
        name: str = "anomaly",
        contamination: float = 0.3,
    ) -> None:
        if not 0.0 < contamination < 1.0:
            raise ValueError("contamination must be in (0, 1)")
        self.name = name
        self.model = model or IsolationForestModel()
        self.contamination = contamination

    def alert_columns(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "DetectorAlerts":
        """Alert every session in the top ``contamination`` fraction of scores."""
        from repro.columns.alertframe import DetectorAlerts

        if len(features) < 2:
            return DetectorAlerts.empty(self.name, len(frame))
        # Copy so a model that standardises in place can never corrupt
        # the shared matrix for later detectors.
        verdicts = alert_anomalous_groups(
            self.model, features.values.copy(), self.contamination
        )
        return DetectorAlerts.from_sessions(self.name, frame, sessions, *verdicts)
