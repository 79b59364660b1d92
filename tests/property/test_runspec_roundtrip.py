"""Property-based tests: RunSpec serialization is a lossless bijection.

For any spec the strategies can build, ``from_dict(to_dict(spec))`` is
the identity -- including a full trip through JSON text, which is what a
config file on disk sees.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runspec import (
    ADJUDICATION_MODES,
    CAMPAIGNS,
    RUN_MODES,
    AdjudicationSpec,
    DetectorSpec,
    ExecutionSpec,
    PolicySpec,
    RunSpec,
    TrafficSpec,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_param_values = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(max_size=12),
)
_params = st.dictionaries(st.text(min_size=1, max_size=12), _param_values, max_size=3)

_traffic_specs = st.builds(
    TrafficSpec,
    scenario=st.one_of(
        st.none(),
        st.sampled_from(["amadeus_march_2018", "balanced_small", "stealth_heavy"]),
    ),
    scale=st.one_of(st.none(), st.floats(min_value=0.001, max_value=1.0, allow_nan=False)),
    seed=st.one_of(st.none(), st.integers(0, 2**31)),
    params=_params,
    log_file=st.one_of(st.none(), st.text(min_size=1, max_size=20)),
    campaign=st.sampled_from(CAMPAIGNS),
    total_requests=st.one_of(st.none(), st.integers(1, 10**6)),
    identities_per_node=st.integers(1, 64),
)

_detector_specs = st.builds(
    DetectorSpec,
    name=st.text(min_size=1, max_size=16),
    params=_params,
)

_adjudication_specs = st.builds(
    AdjudicationSpec,
    mode=st.sampled_from(ADJUDICATION_MODES),
    k=st.integers(1, 8),
    window_seconds=st.floats(min_value=1.0, max_value=86400.0, allow_nan=False),
)

_execution_specs = st.builds(
    ExecutionSpec,
    workers=st.integers(1, 16),
    max_skew_seconds=st.floats(min_value=0.0, max_value=3600.0, allow_nan=False),
    track_latency=st.booleans(),
    progress_every=st.integers(0, 10**6),
    compare_configurations=st.booleans(),
)

_policy_specs = st.builds(
    PolicySpec,
    name=st.text(min_size=1, max_size=16),
    params=_params,
)

_run_specs = st.builds(
    RunSpec,
    mode=st.sampled_from(RUN_MODES),
    traffic=_traffic_specs,
    detectors=st.lists(_detector_specs, max_size=4).map(tuple),
    adjudication=st.one_of(st.none(), _adjudication_specs),
    execution=_execution_specs,
    policy=st.one_of(st.none(), _policy_specs),
    label=st.text(max_size=20),
)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(_run_specs)
def test_from_dict_to_dict_is_identity(spec):
    assert RunSpec.from_dict(spec.to_dict()) == spec


@settings(max_examples=150, deadline=None)
@given(_run_specs)
def test_json_text_round_trip_is_identity(spec):
    assert RunSpec.from_json(json.dumps(spec.to_dict())) == spec


@settings(max_examples=50, deadline=None)
@given(_run_specs)
def test_to_dict_is_pure(spec):
    """Serializing twice gives equal dictionaries (no hidden state)."""
    assert spec.to_dict() == spec.to_dict()


@settings(max_examples=50, deadline=None)
@given(_traffic_specs)
def test_traffic_sub_spec_round_trips(traffic):
    assert TrafficSpec.from_dict(traffic.to_dict()) == traffic
