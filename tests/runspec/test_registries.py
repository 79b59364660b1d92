"""Tests for the shared registry layer and its did-you-mean lookup errors."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    DetectorError,
    ReproError,
    ScenarioError,
)
from repro.mitigation.actions import PolicyError
from repro.registry import Registry, suggest, unknown_name_message


class TestRegistry:
    def test_register_and_create(self):
        registry = Registry("widget", ReproError)
        registry.register("one", lambda **kw: ("one", kw))
        assert registry.names() == ["one"]
        assert "one" in registry
        assert registry.create("one", a=1) == ("one", {"a": 1})

    def test_duplicate_requires_overwrite(self):
        registry = Registry("widget", ReproError)
        registry.register("one", dict)
        with pytest.raises(ReproError, match="already registered"):
            registry.register("one", dict)
        registry.register("one", list, overwrite=True)
        assert registry.create("one") == []

    def test_empty_name_rejected(self):
        registry = Registry("widget", ReproError)
        with pytest.raises(ReproError, match="non-empty"):
            registry.register("", dict)

    def test_unknown_name_raises_registry_error_type(self):
        class WidgetError(ReproError):
            pass

        registry = Registry("widget", WidgetError)
        registry.register("sprocket", dict)
        with pytest.raises(WidgetError, match="did you mean 'sprocket'"):
            registry.get("sproket")

    def test_suggest_returns_none_for_distant_names(self):
        assert suggest("zzzzz", ["commercial", "inhouse"]) is None

    def test_unknown_name_message_lists_candidates(self):
        message = unknown_name_message("widget", "x", ["b", "a"])
        assert "available: ['a', 'b']" in message


class TestBuiltinRegistries:
    def test_detector_lookup_miss(self):
        from repro.detectors.registry import create_detector

        with pytest.raises(DetectorError, match="did you mean 'commercial'"):
            create_detector("comercial")

    def test_online_detector_lookup_miss(self):
        from repro.stream.detectors import create_online_detector

        with pytest.raises(DetectorError, match="did you mean 'anomaly'"):
            create_online_detector("anomoly")

    def test_online_detector_create(self):
        from repro.stream.detectors import available_online_detectors, create_online_detector

        assert {"rate-limit", "ua-fingerprint", "inhouse", "anomaly"} <= set(
            available_online_detectors()
        )
        detector = create_online_detector("anomaly", contamination=0.2)
        assert detector.name == "anomaly"

    def test_scenario_lookup_miss(self):
        from repro.traffic.scenarios import get_scenario

        with pytest.raises(ScenarioError, match="did you mean 'balanced_small'"):
            get_scenario("balanced_smol")

    def test_scenario_registration(self):
        from repro.traffic.scenarios import balanced_small, get_scenario, register_scenario

        register_scenario("tiny_custom", lambda **kw: balanced_small(total_requests=600, **kw))
        try:
            assert get_scenario("tiny_custom", seed=5).seed == 5
        finally:
            # The registry is module-global; leave no trace for other tests.
            from repro.traffic.scenarios import _SCENARIO_REGISTRY

            _SCENARIO_REGISTRY._factories.pop("tiny_custom")

    def test_policy_lookup_miss(self):
        from repro.mitigation.policy import get_policy

        with pytest.raises(PolicyError, match="did you mean 'standard'"):
            get_policy("standad")
