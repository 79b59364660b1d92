"""The batch anomaly detector's columns against the per-request specification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anomaly.isolation_forest import IsolationForestModel
from repro.anomaly.zscore import RobustZScoreModel
from repro.columns import FeatureMatrix, RecordFrame, sessionize_frame
from repro.columns.alertframe import DetectorAlerts
from repro.core.alerts import AlertSet
from repro.detectors.anomaly_detector import AnomalySessionDetector
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small


def per_request_alert_set(name, model, features, sessions, contamination) -> AlertSet:
    """The specification: alert every request of each top-scoring session."""
    alert_set = AlertSet(name)
    scores = model.fit_score(features.values.copy())
    threshold = model.threshold_for_contamination(scores, contamination)
    max_score = float(scores.max()) or 1.0
    for request_ids, score in zip(sessions.request_id_groups(), scores):
        if score < threshold:
            continue
        for request_id in request_ids:
            alert_set.add(
                request_id,
                score=min(1.0, float(score) / max_score),
                reasons=(f"anomalous session ({model.__class__.__name__} score {score:.3f})",),
            )
    return alert_set


@pytest.fixture(scope="module")
def columns():
    frame = RecordFrame.from_dataset(
        generate_dataset(balanced_small(total_requests=2000, seed=5))
    )
    sessions = sessionize_frame(frame)
    return frame, sessions, FeatureMatrix.from_frame(frame, sessions)


@pytest.mark.parametrize(
    "model_factory",
    [RobustZScoreModel, lambda: IsolationForestModel(seed=3)],
    ids=["zscore", "isolation-forest"],
)
def test_session_verdicts_scatter_to_the_per_request_alerts(columns, model_factory):
    frame, sessions, features = columns
    got = AnomalySessionDetector(model_factory(), contamination=0.2).alert_columns(
        frame, sessions, features
    )
    expected = DetectorAlerts.from_alert_set(
        frame, per_request_alert_set("anomaly", model_factory(), features, sessions, 0.2)
    )
    assert got.alert_count() > 0
    assert np.array_equal(got.flags, expected.flags)
    assert np.array_equal(got.scores, expected.scores)
    assert np.array_equal(got.reason_codes, expected.reason_codes)
    assert got.reason_table == expected.reason_table
