"""Tests for the heuristic rule engine and its rules."""

from __future__ import annotations

import pytest

from repro.detectors.heuristic import (
    ErrorProbeRule,
    HeuristicRuleDetector,
    PathRepetitionRule,
    RateRule,
    RobotsNoAssetRule,
    ScriptedAgentRule,
)
from repro.detectors.inhouse import InHouseHeuristicDetector, default_rules
from repro.logs.dataset import Dataset
from tests.helpers import BROWSER_UA, SCRIPTED_UA, make_record, make_records, rule_reason

GOOGLEBOT_UA = "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)"


class TestRateRule:
    def test_fires_on_fast_sessions(self):
        records = make_records(30, gap_seconds=0.5)
        assert rule_reason(RateRule(threshold_rpm=30), records) is not None

    def test_quiet_on_slow_sessions(self):
        records = make_records(30, gap_seconds=10)
        assert rule_reason(RateRule(threshold_rpm=30), records) is None

    def test_quiet_on_small_sessions(self):
        records = make_records(5, gap_seconds=0.1)
        assert rule_reason(RateRule(threshold_rpm=30, min_requests=10), records) is None

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            RateRule(threshold_rpm=0)


class TestScriptedAgentRule:
    def test_fires_on_scripted_agent(self):
        records = make_records(3, user_agent=SCRIPTED_UA)
        assert rule_reason(ScriptedAgentRule(), records) is not None

    def test_fires_on_empty_agent(self):
        records = make_records(3, user_agent="")
        assert rule_reason(ScriptedAgentRule(), records) is not None

    def test_quiet_on_browser(self):
        records = make_records(3, user_agent=BROWSER_UA)
        assert rule_reason(ScriptedAgentRule(), records) is None


class TestErrorProbeRule:
    def test_fires_on_error_heavy_session(self):
        records = [make_record(f"r{i}", seconds=i, status=400 if i % 4 == 0 else 200) for i in range(20)]
        assert rule_reason(ErrorProbeRule(), records) is not None

    def test_fires_on_204_heavy_session(self):
        records = [make_record(f"r{i}", seconds=i, status=204 if i % 5 == 0 else 200, path="/api/availability") for i in range(20)]
        assert rule_reason(ErrorProbeRule(), records) is not None

    def test_ignores_tracking_beacon_204s(self):
        records = [
            make_record(f"r{i}", seconds=i, status=204 if i % 3 == 0 else 200, path="/track/beacon?pg=/" if i % 3 == 0 else "/search")
            for i in range(20)
        ]
        assert rule_reason(ErrorProbeRule(), records) is None

    def test_fires_on_head_heavy_session(self):
        records = [make_record(f"r{i}", seconds=i, method="HEAD" if i % 5 == 0 else "GET") for i in range(20)]
        assert rule_reason(ErrorProbeRule(), records) is not None

    def test_quiet_on_clean_session(self):
        records = make_records(20)
        assert rule_reason(ErrorProbeRule(), records) is None

    def test_quiet_below_min_requests(self):
        records = [make_record("a", status=400), make_record("b", status=400, seconds=1)]
        assert rule_reason(ErrorProbeRule(min_requests=8), records) is None


class TestRobotsNoAssetRule:
    def test_fires_on_robots_without_assets(self):
        records = [make_record("robots", path="/robots.txt")] + make_records(12, gap_seconds=1)
        records = [records[0]] + [make_record(f"p{i}", seconds=i + 1, path=f"/offers/{i}") for i in range(12)]
        assert rule_reason(RobotsNoAssetRule(), records) is not None

    def test_quiet_when_assets_loaded(self):
        records = [make_record("robots", path="/robots.txt")]
        for i in range(12):
            path = "/static/css/app.css" if i % 3 == 0 else f"/offers/{i}"
            records.append(make_record(f"p{i}", seconds=i + 1, path=path))
        assert rule_reason(RobotsNoAssetRule(), records) is None

    def test_quiet_without_robots_fetch(self):
        records = [make_record(f"p{i}", seconds=i, path=f"/offers/{i}") for i in range(15)]
        assert rule_reason(RobotsNoAssetRule(), records) is None


class TestPathRepetitionRule:
    def test_fires_on_hammered_endpoint(self):
        records = [make_record(f"r{i}", seconds=i, path="/api/price?offer=1") for i in range(25)]
        assert rule_reason(PathRepetitionRule(), records) is not None

    def test_quiet_on_diverse_paths(self):
        records = [make_record(f"r{i}", seconds=i, path=f"/offers/{i}") for i in range(25)]
        assert rule_reason(PathRepetitionRule(), records) is None


class TestHeuristicRuleDetector:
    def test_requires_at_least_one_rule(self):
        with pytest.raises(ValueError):
            HeuristicRuleDetector([])

    def test_any_firing_rule_alerts_whole_session(self):
        detector = HeuristicRuleDetector([RateRule(threshold_rpm=30)], name="rules")
        dataset = Dataset(make_records(30, gap_seconds=0.5))
        assert len(detector.analyze(dataset)) == 30

    def test_score_grows_with_rule_count(self):
        detector = HeuristicRuleDetector([RateRule(threshold_rpm=30), ScriptedAgentRule()], name="rules")
        one_rule = Dataset(make_records(30, gap_seconds=0.5, user_agent=BROWSER_UA, ip="10.0.0.1"))
        two_rules = Dataset(make_records(30, gap_seconds=0.5, user_agent=SCRIPTED_UA, ip="10.0.0.2"))
        single = detector.analyze(one_rule).get("r0").score
        double = detector.analyze(two_rules).get("r0").score
        assert double > single

    def test_verified_crawler_whitelisted(self):
        detector = InHouseHeuristicDetector()
        # A verified crawler (crawler pool IP) crawling without assets.
        records = [make_record("robots", path="/robots.txt", ip="192.168.66.5", user_agent=GOOGLEBOT_UA)]
        for i in range(20):
            records.append(
                make_record(f"c{i}", seconds=(i + 1) * 2, path=f"/offers/{i}", ip="192.168.66.5", user_agent=GOOGLEBOT_UA)
            )
        assert len(detector.analyze(Dataset(records))) == 0

    def test_unverified_crawler_claim_not_whitelisted(self):
        detector = InHouseHeuristicDetector()
        records = [make_record("robots", path="/robots.txt", ip="172.20.0.5", user_agent=GOOGLEBOT_UA)]
        for i in range(20):
            records.append(
                make_record(f"c{i}", seconds=(i + 1) * 2, path=f"/offers/{i}", ip="172.20.0.5", user_agent=GOOGLEBOT_UA)
            )
        assert len(detector.analyze(Dataset(records))) > 0

    def test_reasons_recorded_per_alert(self):
        detector = InHouseHeuristicDetector()
        dataset = Dataset(make_records(40, gap_seconds=0.5, user_agent=SCRIPTED_UA))
        alert = detector.analyze(dataset).get("r0")
        assert alert is not None
        assert any("session-rate" in reason for reason in alert.reasons)
        assert any("scripted-agent" in reason for reason in alert.reasons)


class TestDefaultRules:
    def test_default_rule_set_composition(self):
        rules = default_rules()
        names = {rule.name for rule in rules}
        assert names == {"session-rate", "scripted-agent", "error-probe", "robots-no-assets", "path-repetition"}

    def test_rate_threshold_forwarded(self):
        rules = default_rules(rate_threshold_rpm=99.0)
        rate_rules = [rule for rule in rules if isinstance(rule, RateRule)]
        assert rate_rules[0].threshold_rpm == 99.0
