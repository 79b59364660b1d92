"""Tests for the composite detectors, the registry and the detection pipeline."""

from __future__ import annotations

import pytest

from repro.core.alerts import AlertMatrix
from repro.detectors.base import Detector
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.pipeline import DetectionPipeline, run_detectors
from repro.detectors.ratelimit import RateLimitDetector
from repro.detectors.registry import available_detectors, create_detector, register_detector
from repro.exceptions import DetectorError
from repro.logs.dataset import Dataset
from tests.helpers import SCRIPTED_UA, make_record, make_records

GOOGLEBOT_UA = "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)"


class TestCommercialDetector:
    def test_scripted_blast_alerted(self):
        dataset = Dataset(make_records(50, gap_seconds=0.4, ip="172.20.0.9", user_agent=SCRIPTED_UA))
        alerts = CommercialBotDefenceDetector().analyze(dataset)
        assert len(alerts) == 50

    def test_reasons_mention_layer(self):
        dataset = Dataset(make_records(50, gap_seconds=0.4, ip="172.20.0.9", user_agent=SCRIPTED_UA))
        alert = CommercialBotDefenceDetector().analyze(dataset).get("r0")
        assert alert is not None
        assert any(reason.startswith(("fingerprint:", "reputation:", "rate:", "behavioral:")) for reason in alert.reasons)

    def test_verified_crawler_whitelisted(self):
        records = [make_record("robots", path="/robots.txt", ip="192.168.66.7", user_agent=GOOGLEBOT_UA)]
        for i in range(30):
            records.append(
                make_record(f"c{i}", seconds=(i + 1) * 4, path=f"/offers/{i}", ip="192.168.66.7", user_agent=GOOGLEBOT_UA)
            )
        alerts = CommercialBotDefenceDetector().analyze(Dataset(records))
        assert len(alerts) == 0

    def test_detector_classes_on_realistic_traffic(self, small_dataset, pipeline_result):
        """On the generated data set the commercial stand-in detects stealth
        scrapers that the rule engine misses (the paper's Distil-only mass)."""
        truth = small_dataset.ground_truth
        matrix = pipeline_result.matrix
        commercial = matrix.alerted_by("commercial")
        inhouse = matrix.alerted_by("inhouse")
        stealth_ids = [
            record.request_id
            for record in small_dataset
            if truth.actor_class_of(record.request_id) == "stealth_scraper"
        ]
        assert stealth_ids, "the fixture scenario should contain stealth traffic"
        commercial_rate = sum(1 for rid in stealth_ids if rid in commercial) / len(stealth_ids)
        inhouse_rate = sum(1 for rid in stealth_ids if rid in inhouse) / len(stealth_ids)
        assert commercial_rate > 0.6
        assert inhouse_rate < 0.4


class TestInHouseDetector:
    def test_probing_traffic_caught_and_stealth_missed(self, small_dataset, pipeline_result):
        truth = small_dataset.ground_truth
        matrix = pipeline_result.matrix
        inhouse = matrix.alerted_by("inhouse")
        commercial = matrix.alerted_by("commercial")
        probing_ids = [
            record.request_id
            for record in small_dataset
            if truth.actor_class_of(record.request_id) == "probing_scraper"
        ]
        assert probing_ids, "the fixture scenario should contain probing traffic"
        inhouse_rate = sum(1 for rid in probing_ids if rid in inhouse) / len(probing_ids)
        commercial_rate = sum(1 for rid in probing_ids if rid in commercial) / len(probing_ids)
        assert inhouse_rate > 0.6
        assert commercial_rate < 0.4

    def test_aggressive_traffic_caught_by_both(self, small_dataset, pipeline_result):
        truth = small_dataset.ground_truth
        matrix = pipeline_result.matrix
        aggressive_ids = [
            record.request_id
            for record in small_dataset
            if truth.actor_class_of(record.request_id) == "aggressive_scraper"
        ]
        for name in ("commercial", "inhouse"):
            alerted = matrix.alerted_by(name)
            rate = sum(1 for rid in aggressive_ids if rid in alerted) / len(aggressive_ids)
            assert rate > 0.9

    def test_custom_rules_override_defaults(self):
        detector = InHouseHeuristicDetector([], rate_threshold_rpm=10) if False else InHouseHeuristicDetector(
            rules=None, rate_threshold_rpm=10
        )
        dataset = Dataset(make_records(20, gap_seconds=3))  # 20 req/min
        assert len(detector.analyze(dataset)) == 20


class TestRegistry:
    def test_builtins_available(self):
        names = available_detectors()
        assert {"commercial", "inhouse", "rate-limit", "ip-reputation", "behavioral", "naive-bayes", "decision-tree", "anomaly"} <= set(names)

    def test_create_detector_passes_kwargs(self):
        detector = create_detector("rate-limit", threshold_rpm=42.0)
        assert isinstance(detector, RateLimitDetector)
        assert detector.threshold_rpm == 42.0

    def test_unknown_name_raises(self):
        with pytest.raises(DetectorError, match="unknown detector"):
            create_detector("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DetectorError, match="already registered"):
            register_detector("commercial", CommercialBotDefenceDetector)

    def test_registration_with_overwrite(self):
        register_detector("commercial", CommercialBotDefenceDetector, overwrite=True)
        assert isinstance(create_detector("commercial"), CommercialBotDefenceDetector)


class TestDetectionPipeline:
    def test_requires_detectors(self):
        with pytest.raises(DetectorError):
            DetectionPipeline([])

    def test_requires_unique_names(self):
        with pytest.raises(DetectorError, match="unique"):
            DetectionPipeline([RateLimitDetector(), RateLimitDetector()])

    def test_produces_matrix_and_timings(self, small_dataset):
        result = run_detectors(small_dataset, [RateLimitDetector(name="fast", threshold_rpm=60)])
        assert isinstance(result.matrix, AlertMatrix)
        assert result.matrix.detector_names == ["fast"]
        assert "fast" in result.timings
        assert result.timings["fast"] >= 0

    def test_alert_set_lookup(self, pipeline_result):
        assert pipeline_result.alert_set("commercial").detector_name == "commercial"
        with pytest.raises(DetectorError):
            pipeline_result.alert_set("nope")

    def test_alert_set_unknown_detector_error_names_the_culprit(self, pipeline_result):
        with pytest.raises(DetectorError, match="no alert set for detector 'phantom'"):
            pipeline_result.alert_set("phantom")

    def test_sessionization_time_is_recorded(self, pipeline_result):
        assert "sessionization" in pipeline_result.timings
        assert pipeline_result.timings["sessionization"] >= 0
        # One entry per detector plus the shared sessionization and
        # batched feature-extraction steps of the columnar engine.
        assert set(pipeline_result.timings) == {
            "commercial",
            "inhouse",
            "sessionization",
            "features",
        }

    def test_matrix_columns_match_detector_order(self, pipeline_result):
        assert pipeline_result.matrix.detector_names == ["commercial", "inhouse"]

    def test_shared_sessions_equivalent_to_independent_runs(self, small_dataset, pipeline_result):
        # Running a detector stand-alone gives the same alerts as inside the
        # pipeline (the shared sessionization is an optimisation only).
        alone = InHouseHeuristicDetector().analyze(small_dataset)
        from_pipeline = pipeline_result.alert_set("inhouse")
        assert alone.request_ids() == from_pipeline.request_ids()


class _BoringDetector(Detector):
    """Alerts on nothing; used for registry round-trips."""

    name = "boring"

    def alert_columns(self, frame, sessions, features):
        from repro.columns.alertframe import DetectorAlerts

        return DetectorAlerts.empty(self.name, len(frame))


class TestCustomDetectorIntegration:
    def test_custom_detector_runs_in_pipeline(self, small_dataset):
        result = run_detectors(small_dataset, [_BoringDetector(), RateLimitDetector(threshold_rpm=60)])
        assert result.matrix.alert_counts()["boring"] == 0
