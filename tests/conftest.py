"""Shared pytest fixtures.

The fixtures build small, deterministic data sets once per session so the
many tests that need "a realistic labelled data set with both tools run
over it" do not regenerate traffic repeatedly.
"""

from __future__ import annotations

import os
import sys

import pytest

# Allow running the tests without installing the package (e.g. straight
# from a source checkout) by putting ``src/`` on the path.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import sharding  # noqa: E402
from repro.core.experiment import PaperExperiment  # noqa: E402
from repro.detectors.commercial import CommercialBotDefenceDetector  # noqa: E402
from repro.detectors.inhouse import InHouseHeuristicDetector  # noqa: E402
from repro.detectors.pipeline import DetectionPipeline  # noqa: E402
from repro.traffic.generator import generate_dataset  # noqa: E402
from repro.traffic.scenarios import amadeus_march_2018, balanced_small  # noqa: E402


@pytest.fixture(scope="session")
def small_dataset():
    """A small balanced labelled data set (a few thousand requests)."""
    return generate_dataset(balanced_small(total_requests=4000, seed=7))


@pytest.fixture(scope="session")
def calibrated_dataset():
    """A small-scale version of the calibrated March-2018 scenario."""
    return generate_dataset(amadeus_march_2018(scale=0.005, seed=2018))


@pytest.fixture(scope="session")
def pipeline_result(small_dataset):
    """Both stand-in tools run over the small data set."""
    pipeline = DetectionPipeline([CommercialBotDefenceDetector(), InHouseHeuristicDetector()])
    return pipeline.run(small_dataset)


@pytest.fixture(scope="session")
def experiment_result(calibrated_dataset):
    """The full paper experiment on the small calibrated data set."""
    return PaperExperiment().run_on(calibrated_dataset)


@pytest.fixture(params=["process", "serial"])
def shard_path(request, monkeypatch):
    """Each execution path of :func:`repro.sharding.run_shards`.

    ``"process"`` forks one worker per shard; ``"serial"`` is the no-fork
    fallback, forced through the executor's fork check, with ``os.fork``
    made to fail so the test also proves no child process was forked.
    """
    if request.param == "serial":

        def no_fork():  # pragma: no cover - called means regression
            raise AssertionError("the in-process fallback forked a worker")

        monkeypatch.setattr(sharding, "fork_available", lambda: False)
        monkeypatch.setattr(os, "fork", no_fork)
    return request.param
