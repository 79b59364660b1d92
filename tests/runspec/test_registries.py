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


class WidgetError(ReproError):
    pass


def _widget(size, *, colour="red", threshold_rpm=60.0):
    return ("widget", size, colour, threshold_rpm)


class TestRegistryCheck:
    """``Registry.check`` resolves a name and binds params without building anything."""

    @pytest.fixture
    def registry(self):
        registry = Registry("widget", WidgetError)
        registry.register("widget", _widget)
        return registry

    def test_accepts_parameters_the_factory_takes(self, registry):
        registry.check("widget", {})
        registry.check("widget", {"size": 3, "colour": "blue", "threshold_rpm": 5.0})

    def test_does_not_call_the_factory(self):
        def refuse(**_kwargs):
            raise AssertionError("check built the component")

        registry = Registry("widget", WidgetError)
        registry.register("refuse", refuse)
        registry.check("refuse", {"anything": 1})

    def test_misspelled_parameter_names_the_nearest_one(self, registry):
        expected = r"'widget' parameter 'treshold_rpm' \(did you mean 'threshold_rpm'\?\)"
        with pytest.raises(WidgetError, match=expected):
            registry.check("widget", {"colour": "blue", "treshold_rpm": 5.0})

    def test_distant_parameter_lists_the_accepted_ones(self, registry):
        with pytest.raises(WidgetError) as caught:
            registry.check("widget", {"zzzz": 1})
        assert "did you mean" not in str(caught.value)
        assert "available: ['colour', 'size', 'threshold_rpm']" in str(caught.value)

    def test_unknown_name_is_resolved_first(self, registry):
        with pytest.raises(WidgetError, match="unknown widget 'widgt' \\(did you mean 'widget'"):
            registry.check("widgt", {"zzzz": 1})

    def test_var_keyword_factory_takes_any_parameter(self):
        registry = Registry("widget", WidgetError)
        registry.register("open", lambda **kwargs: kwargs)
        registry.check("open", {"any": 1, "name": 2})

    def test_positional_only_parameter_is_not_taken_by_keyword(self):
        def positional(size, /, *, colour="red"):
            return size, colour

        registry = Registry("widget", WidgetError)
        registry.register("positional", positional)
        with pytest.raises(WidgetError, match=r"parameter 'size'.*available: \['colour'\]"):
            registry.check("positional", {"size": 3})

    def test_factory_without_a_signature_is_not_checked(self):
        registry = Registry("widget", WidgetError)
        registry.register("mapping", dict)
        registry.check("mapping", {"anything": 1})


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
