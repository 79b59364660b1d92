"""Tests for the declarative RunSpec tree: round trips and validation."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import SpecError
from repro.runspec import (
    AdjudicationSpec,
    DetectorSpec,
    ExecutionSpec,
    PolicySpec,
    RunSpec,
    TrafficSpec,
    load_runspec,
)


def full_spec() -> RunSpec:
    """A spec exercising every field of the tree."""
    return RunSpec(
        mode="stream",
        traffic=TrafficSpec(
            scenario="balanced_small",
            seed=3,
            params={"total_requests": 2000},
            campaign="adaptive",
            identities_per_node=4,
        ),
        detectors=(
            DetectorSpec(name="rate-limit"),
            DetectorSpec(name="anomaly", params={"contamination": 0.2}),
        ),
        adjudication=AdjudicationSpec(mode="serial-confirm", k=2, window_seconds=120.0),
        execution=ExecutionSpec(workers=4, max_skew_seconds=5.0),
        policy=PolicySpec(name="strict"),
        label="everything",
    )


class TestRoundTrip:
    def test_default_spec_round_trips(self):
        spec = RunSpec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_full_spec_round_trips_through_json(self):
        spec = full_spec()
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_to_dict_is_json_serializable(self):
        json.dumps(full_spec().to_dict())

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = full_spec()
        spec.save(str(path))
        assert load_runspec(str(path)) == spec

    def test_detectors_list_becomes_tuple(self):
        data = RunSpec(detectors=(DetectorSpec(name="commercial"),)).to_dict()
        assert isinstance(data["detectors"], list)
        rebuilt = RunSpec.from_dict(data)
        assert isinstance(rebuilt.detectors, tuple)
        assert rebuilt.detectors[0].name == "commercial"

    def test_none_subspecs_round_trip(self):
        spec = RunSpec(adjudication=None, policy=None)
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt.adjudication is None and rebuilt.policy is None


class TestRejection:
    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="RunSpec key"):
            RunSpec.from_dict({"mode": "tables", "detektors": []})

    def test_unknown_key_suggests_correction(self):
        with pytest.raises(SpecError, match="did you mean 'detectors'"):
            RunSpec.from_dict({"detectord": []})

    def test_unknown_nested_key(self):
        with pytest.raises(SpecError, match="TrafficSpec key"):
            RunSpec.from_dict({"traffic": {"scenari": "balanced_small"}})

    def test_bad_mode_rejected_with_suggestion(self):
        with pytest.raises(SpecError, match="did you mean 'tables'"):
            RunSpec(mode="table")

    def test_bad_mode_rejected_via_from_dict(self):
        with pytest.raises(SpecError, match="unknown run mode"):
            RunSpec.from_dict({"mode": "streaming-fast"})

    def test_bad_campaign_rejected(self):
        with pytest.raises(SpecError, match="campaign"):
            TrafficSpec(campaign="sneaky")

    def test_bad_adjudication_mode_rejected(self):
        with pytest.raises(SpecError, match="adjudication mode"):
            AdjudicationSpec(mode="parallell")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": 0.0},
            {"scale": -1.0},
            {"total_requests": 0},
            {"identities_per_node": 0},
        ],
    )
    def test_traffic_bounds(self, kwargs):
        with pytest.raises(SpecError):
            TrafficSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"k": 0}, {"window_seconds": 0.0}])
    def test_adjudication_bounds(self, kwargs):
        with pytest.raises(SpecError):
            AdjudicationSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"workers": 0}, {"max_skew_seconds": -1.0}, {"progress_every": -5}]
    )
    def test_execution_bounds(self, kwargs):
        with pytest.raises(SpecError):
            ExecutionSpec(**kwargs)

    def test_empty_detector_name_rejected(self):
        with pytest.raises(SpecError):
            DetectorSpec(name="")

    def test_empty_policy_name_rejected(self):
        with pytest.raises(SpecError):
            PolicySpec(name="")

    def test_non_spec_detectors_rejected(self):
        with pytest.raises(SpecError):
            RunSpec(detectors=("rate-limit",))

    def test_non_mapping_rejected(self):
        with pytest.raises(SpecError):
            RunSpec.from_dict(["not", "a", "mapping"])

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="invalid spec JSON"):
            RunSpec.from_json("{not json")

    def test_missing_spec_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec file"):
            load_runspec(str(tmp_path / "nope.json"))


class TestScenarioKwargs:
    def test_scale_and_seed_merge_into_params(self):
        traffic = TrafficSpec(scale=0.01, seed=7, params={"extra": 1})
        assert traffic.scenario_kwargs() == {"extra": 1, "scale": 0.01, "seed": 7}

    def test_unset_fields_are_omitted(self):
        assert TrafficSpec().scenario_kwargs() == {}
