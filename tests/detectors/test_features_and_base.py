"""Tests for detector base classes, feature extraction and pseudo-labelling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columns import FEATURE_NAMES, FeatureMatrix, FrameSessions, RecordFrame, sessionize_frame
from repro.columns.alertframe import DetectorAlerts
from repro.core.alerts import AlertSet
from repro.detectors.base import Detector
from repro.detectors.heuristic import Rule
from repro.detectors.pseudolabels import PseudoLabelConfig, pseudo_label_matrix
from repro.exceptions import ColumnsError
from repro.logs.dataset import Dataset
from tests.helpers import BROWSER_UA, SCRIPTED_UA, make_record, make_records, session_frame


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
        expected = sessionize_frame(RecordFrame.from_records(records)).request_id_groups()
        assert detector.seen_sessions == expected == [["r0", "r1", "r2"], ["other"], ["late"]]

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


def features_of(records):
    """The feature matrix of the one session ``records`` form."""
    return session_frame(records)[2]


def feature(records, name):
    """One feature of the one session ``records`` form."""
    return features_of(records).column(name)[0]


class TestFeatureExtraction:
    def test_row_matches_feature_names(self):
        features = features_of(make_records(5))
        assert features.values.shape == (1, len(FEATURE_NAMES))
        assert features.names == FEATURE_NAMES

    def test_machine_timing_has_low_cv(self):
        assert feature(make_records(20, gap_seconds=1.0), "interarrival_cv") < 0.01

    def test_irregular_timing_has_high_cv(self):
        records = [make_record(f"r{i}", seconds=s) for i, s in enumerate([0, 1, 30, 31, 120, 121, 400])]
        assert feature(records, "interarrival_cv") > 0.5

    def test_scripted_agent_flag(self):
        features = features_of(make_records(3, user_agent=SCRIPTED_UA))
        assert features.column("scripted_agent")[0] == 1.0
        assert features.column("headless_agent")[0] == 0.0

    def test_headless_agent_flag(self):
        agent = "Mozilla/5.0 (X11; Linux x86_64) HeadlessChrome/64.0.3282.186 Safari/537.36"
        features = features_of(make_records(3, user_agent=agent))
        assert features.column("headless_agent")[0] == 1.0
        assert features.column("scripted_agent")[0] == 0.0

    def test_crawler_claim_flag(self):
        agent = "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)"
        assert feature(make_records(3, user_agent=agent), "crawler_claim") == 1.0
        assert feature(make_records(3), "crawler_claim") == 0.0

    def test_requests_per_minute_over_the_session_duration(self):
        # The duration is floored at one second; one request counts as one.
        assert feature(make_records(7, gap_seconds=10), "requests_per_minute") == pytest.approx(7.0)
        assert feature(make_records(2, gap_seconds=0), "requests_per_minute") == pytest.approx(120.0)
        assert feature([make_record()], "requests_per_minute") == 1.0

    def test_asset_and_referrer_fractions(self):
        records = [
            make_record("a", path="/static/css/app.css", referrer="https://shop.example.com/"),
            make_record("b", path="/search", seconds=1),
        ]
        features = features_of(records)
        assert features.column("asset_fraction")[0] == pytest.approx(0.5)
        assert features.column("referrer_fraction")[0] == pytest.approx(0.5)

    def test_error_and_probe_fractions(self):
        records = [
            make_record("a", status=400),
            make_record("b", status=204, seconds=1),
            make_record("c", status=304, seconds=2),
            make_record("d", status=200, seconds=3),
        ]
        features = features_of(records)
        assert features.column("error_rate")[0] == pytest.approx(0.25)
        assert features.column("no_content_fraction")[0] == pytest.approx(0.25)
        assert features.column("not_modified_fraction")[0] == pytest.approx(0.25)

    def test_mean_interarrival(self):
        assert feature(make_records(4, gap_seconds=5), "mean_interarrival") == pytest.approx(5.0)

    def test_duration_and_request_count(self):
        features = features_of(make_records(7, gap_seconds=10))
        assert features.duration_seconds[0] == pytest.approx(60.0)
        assert features.column("request_count")[0] == 7

    def test_path_coverage_head_and_robots(self):
        records = [
            make_record("a", path="/robots.txt"),
            make_record("b", path="/offers/1", seconds=1, method="HEAD"),
            make_record("c", path="/offers/1", seconds=2),
            make_record("d", path="/offers/2", seconds=3),
        ]
        features = features_of(records)
        assert features.column("unique_path_ratio")[0] == pytest.approx(0.75)
        assert features.column("head_fraction")[0] == pytest.approx(0.25)
        assert features.column("robots_hits")[0] == 1

    def test_peak_rate_sees_bursts_the_average_hides(self):
        # 20 requests in 19 seconds, then one more 25 minutes later.
        features = features_of(make_records(20) + [make_record("late", seconds=1500)])
        assert features.column("requests_per_minute")[0] < 1.0
        assert features.peak_rpm()[0] == pytest.approx(20.0)
        assert features.peak_rpm(window_seconds=10.0)[0] == pytest.approx(66.0)

    def test_night_fraction(self):
        # BASE_TIME is 12:00 UTC, so shifting by 13h lands between 01:00 and 02:00.
        night_records = [make_record(f"r{i}", seconds=13 * 3600 + i) for i in range(4)]
        assert feature(night_records, "night_fraction") == 1.0

    def test_matrix_of_several_sessions(self):
        _frame, _sessions, features = session_frame(
            make_records(3), make_records(4, ip="10.0.0.9")
        )
        assert features.values.shape == (2, len(FEATURE_NAMES))
        assert np.isfinite(features.values).all()
        assert features.column("request_count").tolist() == [3, 4]

    def test_matrix_of_no_sessions(self):
        frame = RecordFrame.from_records([])
        features = FeatureMatrix.from_frame(frame, sessionize_frame(frame))
        assert features.values.shape == (0, len(FEATURE_NAMES))

    def test_empty_session_is_rejected(self):
        frame = RecordFrame.from_records(make_records(2))
        codes = np.zeros(2, dtype=np.int64)
        starts = np.array([0, 0, 2])
        sessions = FrameSessions.back_to_back(frame, starts, ["s0", "s1"], codes, codes)
        with pytest.raises(ColumnsError, match="without records"):
            FeatureMatrix.from_frame(frame, sessions)

    def test_single_request_session_neutral_cv(self):
        features = features_of([make_record()])
        assert features.column("interarrival_cv")[0] == 1.0
        assert features.column("mean_interarrival")[0] == 0.0


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
