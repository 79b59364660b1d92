"""Tests for detector base classes, feature extraction and pseudo-labelling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columns.alertframe import DetectorAlerts
from repro.core.alerts import AlertSet
from repro.detectors.base import Detector
from repro.detectors.features import FEATURE_NAMES, extract_features, feature_matrix
from repro.detectors.heuristic import Rule
from repro.detectors.pseudolabels import PseudoLabelConfig, pseudo_label_matrix
from repro.logs.dataset import Dataset
from repro.logs.sessionization import Sessionizer
from tests.helpers import BROWSER_UA, SCRIPTED_UA, make_record, make_records, make_session, session_frame


def pseudo_label(records, config=None):
    """The pseudo-label of the one session ``records`` form (``None`` when ambiguous)."""
    _frame, _sessions, features = session_frame(records)
    indices, labels = pseudo_label_matrix(features, config)
    return int(labels[0]) if indices.size else None


class _AlwaysAlertDetector(Detector):
    """Toy detector flagging every session (used to test the base plumbing)."""

    name = "always"

    def __init__(self) -> None:
        self.seen_sessions: list[list[str]] = []

    def alert_columns(self, frame, sessions, features):
        self.seen_sessions = sessions.request_id_groups()
        n = len(sessions)
        return DetectorAlerts.from_sessions(
            self.name, frame, sessions, np.ones(n, bool), np.ones(n), np.zeros(n, np.int64), [("always",)]
        )


class _NeverAlertDetector(Detector):
    name = "never"

    def alert_columns(self, frame, sessions, features):
        return DetectorAlerts.empty(self.name, len(frame))


class TestSessionDetectorBase:
    def test_alerts_cover_all_requests_of_flagged_sessions(self):
        dataset = Dataset(make_records(6, gap_seconds=2))
        alerts = _AlwaysAlertDetector().analyze(dataset)
        assert alerts.request_ids() == set(dataset.request_ids)
        assert alerts.get("r0").reasons == ("always",)

    def test_never_alerting_detector_returns_empty_set(self):
        dataset = Dataset(make_records(6))
        alerts = _NeverAlertDetector().analyze(dataset)
        assert len(alerts) == 0
        assert isinstance(alerts, AlertSet)

    def test_analyze_judges_the_default_sessions(self):
        # Two visitors, and a gap beyond the 30-minute timeout for one.
        records = make_records(3) + [
            make_record("late", seconds=3600),
            make_record("other", seconds=5, ip="10.0.0.9"),
        ]
        detector = _AlwaysAlertDetector()
        detector.analyze(Dataset(records))
        assert detector.seen_sessions == [
            session.request_ids() for session in Sessionizer().sessionize(records)
        ]

    def test_describe_uses_docstring(self):
        assert "Toy detector" in _AlwaysAlertDetector().describe()

    def test_detector_is_abstract(self):
        with pytest.raises(TypeError):
            Detector()  # type: ignore[abstract]

    def test_subclasses_without_a_frame_judgement_cannot_be_instantiated(self):
        class RecordOnlyDetector(Detector):
            def analyze(self, dataset):
                return AlertSet("record-only")

        class RecordOnlyRule(Rule):
            def matches(self, session):
                return None

        with pytest.raises(TypeError, match="alert_columns"):
            RecordOnlyDetector()  # type: ignore[abstract]
        with pytest.raises(TypeError, match="matches_frame"):
            RecordOnlyRule()  # type: ignore[abstract]


class TestFeatureExtraction:
    def test_vector_matches_feature_names(self):
        session = make_session(make_records(5))
        features = extract_features(session)
        assert features.vector().shape == (len(FEATURE_NAMES),)
        assert set(features.as_dict()) == set(FEATURE_NAMES)

    def test_machine_timing_has_low_cv(self):
        session = make_session(make_records(20, gap_seconds=1.0))
        assert extract_features(session).interarrival_cv < 0.01

    def test_irregular_timing_has_high_cv(self):
        records = [make_record(f"r{i}", seconds=s) for i, s in enumerate([0, 1, 30, 31, 120, 121, 400])]
        assert extract_features(make_session(records)).interarrival_cv > 0.5

    def test_scripted_agent_flag(self):
        session = make_session(make_records(3, user_agent=SCRIPTED_UA))
        features = extract_features(session)
        assert features.scripted_agent
        assert not features.headless_agent

    def test_asset_and_referrer_fractions(self):
        records = [
            make_record("a", path="/static/css/app.css", referrer="https://shop.example.com/"),
            make_record("b", path="/search", seconds=1),
        ]
        features = extract_features(make_session(records))
        assert features.asset_fraction == pytest.approx(0.5)
        assert features.referrer_fraction == pytest.approx(0.5)

    def test_error_and_probe_fractions(self):
        records = [
            make_record("a", status=400),
            make_record("b", status=204, seconds=1),
            make_record("c", status=304, seconds=2),
            make_record("d", status=200, seconds=3),
        ]
        features = extract_features(make_session(records))
        assert features.error_rate == pytest.approx(0.25)
        assert features.no_content_fraction == pytest.approx(0.25)
        assert features.not_modified_fraction == pytest.approx(0.25)

    def test_mean_interarrival(self):
        features = extract_features(make_session(make_records(4, gap_seconds=5)))
        assert features.mean_interarrival == pytest.approx(5.0)

    def test_path_coverage_head_and_robots(self):
        records = [
            make_record("a", path="/robots.txt"),
            make_record("b", path="/offers/1", seconds=1, method="HEAD"),
            make_record("c", path="/offers/1", seconds=2),
            make_record("d", path="/offers/2", seconds=3),
        ]
        features = extract_features(make_session(records))
        assert features.unique_path_ratio == pytest.approx(0.75)
        assert features.head_fraction == pytest.approx(0.25)
        assert features.robots_hits == 1

    def test_peak_rate_sees_bursts_the_average_hides(self):
        # 20 requests in 19 seconds, then one more 25 minutes later.
        records = make_records(20) + [make_record("late", seconds=1500)]
        _frame, _sessions, features = session_frame(records)
        assert features.column("requests_per_minute")[0] < 1.0
        assert features.peak_rpm()[0] == pytest.approx(20.0)
        assert features.peak_rpm(window_seconds=10.0)[0] == pytest.approx(66.0)

    def test_night_fraction(self):
        # BASE_TIME is 12:00 UTC, so shifting by 13h lands between 01:00 and 02:00.
        night_records = [make_record(f"r{i}", seconds=13 * 3600 + i) for i in range(4)]
        assert extract_features(make_session(night_records)).night_fraction == 1.0

    def test_feature_matrix_shape(self):
        sessions = [make_session(make_records(3)), make_session(make_records(4, ip="10.0.0.9"))]
        matrix = feature_matrix(sessions)
        assert matrix.shape == (2, len(FEATURE_NAMES))
        assert np.isfinite(matrix).all()

    def test_feature_matrix_empty(self):
        assert feature_matrix([]).shape == (0, len(FEATURE_NAMES))

    def test_single_request_session_neutral_cv(self):
        features = extract_features(make_session([make_record()]))
        assert features.interarrival_cv == 1.0
        assert features.mean_interarrival == 0.0


class TestPseudoLabels:
    def test_scripted_agent_is_bot(self):
        assert pseudo_label(make_records(10, user_agent=SCRIPTED_UA)) == 1

    def test_fast_large_session_is_bot(self):
        assert pseudo_label(make_records(60, gap_seconds=0.3)) == 1

    def test_asset_loading_human_is_benign(self):
        records = []
        for i in range(12):
            records.append(
                make_record(
                    f"p{i}",
                    seconds=i * 20,
                    path="/static/css/app.css" if i % 2 else "/search",
                    referrer="https://shop.example.com/",
                )
            )
        assert pseudo_label(records) == 0

    def test_ambiguous_session_gets_no_label(self):
        # Browser UA, moderate rate, no assets, no referrers: ambiguous.
        assert pseudo_label(make_records(12, gap_seconds=8, user_agent=BROWSER_UA)) is None

    def test_pseudo_label_sessions_returns_indices_and_labels(self):
        _frame, _sessions, features = session_frame(
            make_records(10, user_agent=SCRIPTED_UA),
            make_records(12, gap_seconds=8),
        )
        indices, labels = pseudo_label_matrix(features)
        assert list(indices) == [0]
        assert list(labels) == [1]

    def test_custom_config_thresholds(self):
        config = PseudoLabelConfig(bot_rate_rpm=1.0, bot_min_requests=2)
        assert pseudo_label(make_records(5, gap_seconds=10), config) == 1
