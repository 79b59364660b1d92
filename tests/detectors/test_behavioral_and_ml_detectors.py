"""Tests for the behavioural, naive-Bayes, decision-tree and anomaly detectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anomaly import RobustZScoreModel
from repro.detectors.anomaly_detector import AnomalySessionDetector
from repro.detectors.behavioral import BehavioralSessionDetector, BehaviouralScoreConfig
from repro.detectors.crawler_ml import CrawlerDecisionTreeDetector
from repro.detectors.naive_bayes import INDICATOR_NAMES, NaiveBayesRobotDetector, binarize_matrix
from repro.logs.dataset import Dataset
from tests.helpers import (
    BROWSER_UA,
    SCRIPTED_UA,
    make_record,
    make_records,
    session_frame,
    session_verdict,
)


def _human_like_records(prefix: str, ip: str, count: int = 16) -> list:
    """A browsing session with assets, referrers and irregular think times."""
    gaps = [0, 7, 9, 31, 35, 36, 70, 95, 97, 140, 160, 161, 200, 260, 262, 300]
    records = []
    for i in range(count):
        if i % 3 == 1:
            path = "/static/css/app.css"
        elif i % 3 == 2:
            path = "/static/img/offer-3.jpg"
        else:
            path = f"/offers/{i}"
        records.append(
            make_record(
                f"{prefix}{i}",
                seconds=float(gaps[i % len(gaps)]) + (i // len(gaps)) * 400,
                ip=ip,
                path=path,
                referrer="https://shop.example.com/",
            )
        )
    return records


def _stealth_like_records(prefix: str, ip: str, count: int = 40) -> list:
    """A paced, machine-regular scraping session with no assets or referrers."""
    return [
        make_record(f"{prefix}{i}", seconds=i * 7.0, ip=ip, path=f"/offers/{i}", referrer="")
        for i in range(count)
    ]


class TestBehavioralDetector:
    def test_flags_stealth_scraping_session(self):
        dataset = Dataset(_stealth_like_records("s", "10.96.0.1"))
        alerts = BehavioralSessionDetector().analyze(dataset)
        assert len(alerts) == len(dataset)

    def test_ignores_human_like_session(self):
        dataset = Dataset(_human_like_records("h", "10.16.0.1"))
        alerts = BehavioralSessionDetector().analyze(dataset)
        assert len(alerts) == 0

    def test_score_session_reports_signals(self):
        verdict = session_verdict(BehavioralSessionDetector(), _stealth_like_records("s", "10.96.0.1"))
        assert verdict is not None
        score, signals = verdict
        # Evidence at or above the threshold normalises to at least 0.5.
        assert score >= 0.5
        assert any("assets" in signal for signal in signals)
        assert any("timing" in signal for signal in signals)

    def test_custom_config_threshold(self):
        config = BehaviouralScoreConfig(alert_threshold=100.0)
        dataset = Dataset(_stealth_like_records("s", "10.96.0.1"))
        assert len(BehavioralSessionDetector(config).analyze(dataset)) == 0

    def test_scripted_fingerprint_adds_evidence(self):
        detector = BehavioralSessionDetector()
        scripted = session_verdict(detector, make_records(12, gap_seconds=30, user_agent=SCRIPTED_UA))
        browser = session_verdict(detector, make_records(12, gap_seconds=30, user_agent=BROWSER_UA))
        assert scripted is not None and browser is not None
        assert scripted[0] > browser[0]
        assert "non-browser client fingerprint" in scripted[1]
        assert "non-browser client fingerprint" not in browser[1]


class TestNaiveBayesDetector:
    def test_binarize_features_shape(self):
        _frame, _sessions, features = session_frame(make_records(5), make_records(8, ip="10.0.0.9"))
        indicators = binarize_matrix(features)
        assert indicators.shape == (2, len(INDICATOR_NAMES))
        assert set(np.unique(indicators)) <= {0.0, 1.0}

    def test_alerts_on_obvious_bots_and_spares_humans(self):
        records = []
        records.extend(make_records(60, gap_seconds=0.4, ip="172.20.0.9", user_agent=SCRIPTED_UA))
        records.extend(_human_like_records("h", "10.16.0.1"))
        records.extend(_stealth_like_records("s", "10.96.0.5"))
        dataset = Dataset(records)
        alerts = NaiveBayesRobotDetector().analyze(dataset)
        assert all(rid in alerts for rid in [f"r{i}" for i in range(60)])
        assert not any(rid in alerts for rid in [f"h{i}" for i in range(16)])

    def test_degenerate_population_does_not_crash(self):
        # Only ambiguous sessions: detector should stay silent.
        dataset = Dataset(make_records(12, gap_seconds=8))
        alerts = NaiveBayesRobotDetector().analyze(dataset)
        assert len(alerts) == 0

    def test_invalid_probability_threshold(self):
        with pytest.raises(ValueError):
            NaiveBayesRobotDetector(alert_probability=1.5)


class TestDecisionTreeDetector:
    def test_self_trained_mode_flags_bots(self):
        records = []
        records.extend(make_records(60, gap_seconds=0.4, ip="172.20.0.9", user_agent=SCRIPTED_UA))
        records.extend(_human_like_records("h", "10.16.0.1"))
        dataset = Dataset(records)
        alerts = CrawlerDecisionTreeDetector().analyze(dataset)
        assert any(f"r{i}" in alerts for i in range(60))
        assert not any(f"h{i}" in alerts for i in range(16))

    def test_supervised_mode_uses_fitted_model(self):
        _frame, _sessions, features = session_frame(
            _stealth_like_records("s", "10.96.0.5"), _human_like_records("h", "10.16.0.1")
        )
        X = features.values
        y = np.array([1, 0])
        detector = CrawlerDecisionTreeDetector(min_leaf=1, alert_probability=0.5).fit(X, y)
        dataset = Dataset(_stealth_like_records("t", "10.96.0.7") + _human_like_records("u", "10.16.0.3"))
        alerts = detector.analyze(dataset)
        assert any(f"t{i}" in alerts for i in range(40))

    def test_silent_when_nothing_confident(self):
        dataset = Dataset(make_records(12, gap_seconds=8))
        assert len(CrawlerDecisionTreeDetector().analyze(dataset)) == 0

    def test_invalid_probability_threshold(self):
        with pytest.raises(ValueError):
            CrawlerDecisionTreeDetector(alert_probability=0.0)


class TestAnomalyDetector:
    def test_flags_roughly_the_contamination_fraction(self):
        records = []
        for visitor in range(20):
            records.extend(_human_like_records(f"h{visitor}_", f"10.16.0.{visitor + 1}"))
        records.extend(make_records(80, gap_seconds=0.3, ip="172.20.0.9", user_agent=SCRIPTED_UA))
        dataset = Dataset(records)
        detector = AnomalySessionDetector(RobustZScoreModel(), contamination=0.1)
        alerts = detector.analyze(dataset)
        # The single scripted blast session is by far the most anomalous.
        assert all(f"r{i}" in alerts for i in range(80))

    def test_handles_tiny_datasets(self):
        dataset = Dataset(make_records(3))
        assert len(AnomalySessionDetector().analyze(dataset)) == 0

    def test_invalid_contamination(self):
        with pytest.raises(ValueError):
            AnomalySessionDetector(contamination=0.0)

    def test_scores_bounded(self):
        records = _stealth_like_records("s", "10.96.0.5") + _human_like_records("h", "10.16.0.1")
        dataset = Dataset(records)
        alerts = AnomalySessionDetector(RobustZScoreModel(), contamination=0.5).analyze(dataset)
        assert all(0.0 <= alert.score <= 1.0 for alert in alerts.alerts())
