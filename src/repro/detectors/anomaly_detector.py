"""Anomaly-based session detector.

Wraps any of the unsupervised models from :mod:`repro.anomaly` (isolation
forest, k-NN distance, Mahalanobis, robust z-score) into the common
detector interface: fit on the session feature matrix of the analysed
data set, score every session and alert on the most anomalous fraction
(the *contamination* parameter).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.anomaly.base import AnomalyModel
from repro.anomaly.isolation_forest import IsolationForestModel
from repro.core.alerts import AlertSet
from repro.detectors.base import Detector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts


def alert_anomalous_groups(
    alert_set: AlertSet,
    model: AnomalyModel,
    matrix: np.ndarray,
    request_id_groups: Sequence[Sequence[str]],
    contamination: float,
) -> None:
    """Fit ``model`` on ``matrix`` and alert the top-``contamination`` rows.

    One row of ``matrix`` describes one session; ``request_id_groups``
    holds the session's request ids in the same row order.  This is the
    single definition of the fit/threshold/normalise/alert step, shared
    by the batch detector below and the streaming port
    (:class:`repro.stream.detectors.OnlineAnomalyDetector`) so their
    alert sets can never drift apart.
    """
    scores = model.fit_score(matrix)
    threshold = model.threshold_for_contamination(scores, contamination)
    max_score = float(scores.max()) or 1.0
    for request_ids, score in zip(request_id_groups, scores):
        if score < threshold:
            continue
        for request_id in request_ids:
            alert_set.add(
                request_id,
                score=min(1.0, float(score) / max_score),
                reasons=(f"anomalous session ({model.__class__.__name__} score {score:.3f})",),
            )


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

        alert_set = AlertSet(self.name)
        if len(features) >= 2:
            # Copy so a model that standardises in place can never corrupt
            # the shared matrix for later detectors.
            alert_anomalous_groups(
                alert_set,
                self.model,
                features.values.copy(),
                sessions.request_id_groups(),
                self.contamination,
            )
        return DetectorAlerts.from_alert_set(frame, alert_set)
