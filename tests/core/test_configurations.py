"""Tests for the parallel vs serial deployment configurations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columns.alertframe import DetectorAlerts
from repro.core.configurations import (
    ConfigurationComparison,
    ParallelConfiguration,
    SerialConfiguration,
    compare_configurations,
)
from repro.detectors.base import Detector
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.exceptions import ConfigurationError
from repro.logs.dataset import Dataset
from tests.helpers import make_labelled_dataset, make_records


class _FixedDetector(Detector):
    """Alerts on a fixed set of request ids (ignores the traffic)."""

    def __init__(self, name: str, alerted: set[str]):
        self.name = name
        self.alerted = alerted

    def alert_columns(self, frame, sessions, features) -> DetectorAlerts:
        flags = np.array([request_id in self.alerted for request_id in frame.request_ids], bool)
        return DetectorAlerts(self.name, flags, flags * 1.0, np.where(flags, 0, -1), [()])


def _fixture():
    dataset = make_labelled_dataset(["m0", "m1", "m2", "m3"], ["b0", "b1", "b2", "b3"])
    first = _FixedDetector("first", {"m0", "m1", "m2", "b0"})
    second = _FixedDetector("second", {"m1", "m2", "m3"})
    return dataset, first, second


class TestParallelConfiguration:
    def test_union_and_intersection(self):
        dataset, first, second = _fixture()
        union = ParallelConfiguration([first, second], k=1).run(dataset)
        both = ParallelConfiguration([first, second], k=2).run(dataset)
        assert union.alerted_ids == frozenset({"m0", "m1", "m2", "m3", "b0"})
        assert both.alerted_ids == frozenset({"m1", "m2"})

    def test_workload_is_full_traffic_per_tool(self):
        dataset, first, second = _fixture()
        outcome = ParallelConfiguration([first, second], k=1).run(dataset)
        assert outcome.workload == {"first": 8, "second": 8}
        assert outcome.total_workload == 16

    def test_confusion_attached_when_labelled(self):
        dataset, first, second = _fixture()
        outcome = ParallelConfiguration([first, second], k=1).run(dataset)
        assert outcome.confusion is not None
        assert outcome.confusion.sensitivity() == pytest.approx(1.0)

    def test_invalid_parameters(self):
        _, first, second = _fixture()
        with pytest.raises(ConfigurationError):
            ParallelConfiguration([], k=1)
        with pytest.raises(ConfigurationError):
            ParallelConfiguration([first, second], k=3)


class TestSerialConfiguration:
    def test_confirm_mode_requires_both(self):
        dataset, first, second = _fixture()
        outcome = SerialConfiguration(first, second, mode="confirm").run(dataset)
        assert outcome.alerted_ids == frozenset({"m1", "m2"})
        # The second tool only saw what the first alerted on.
        assert outcome.workload["second"] == 4
        assert outcome.workload["first"] == 8

    def test_escalate_mode_is_union_with_reduced_workload(self):
        dataset, first, second = _fixture()
        outcome = SerialConfiguration(first, second, mode="escalate").run(dataset)
        assert outcome.alerted_ids == frozenset({"m0", "m1", "m2", "m3", "b0"})
        assert outcome.workload["second"] == 4  # only the 4 unalerted requests

    def test_confirm_reduces_false_positives(self):
        dataset, first, second = _fixture()
        solo = ParallelConfiguration([first], k=1).run(dataset)
        confirmed = SerialConfiguration(first, second, mode="confirm").run(dataset)
        assert confirmed.confusion.false_positive_rate() <= solo.confusion.false_positive_rate()

    def test_unknown_mode_rejected(self):
        _, first, second = _fixture()
        with pytest.raises(ConfigurationError):
            SerialConfiguration(first, second, mode="sideways")

    def test_order_matters_for_workload(self):
        dataset, first, second = _fixture()
        forward = SerialConfiguration(first, second, mode="confirm").run(dataset)
        backward = SerialConfiguration(second, first, mode="confirm").run(dataset)
        assert forward.workload["second"] == 4
        assert backward.workload["first"] == 3
        # But the confirmed alerts are the same set (intersection).
        assert forward.alerted_ids == backward.alerted_ids

    def test_empty_forwarded_traffic_handled(self):
        dataset = Dataset(make_records(4))
        nothing = _FixedDetector("nothing", set())
        outcome = SerialConfiguration(nothing, _FixedDetector("x", {"r0"}), mode="confirm").run(dataset)
        assert outcome.alert_count == 0
        assert outcome.workload["x"] == 0


class TestComparison:
    def test_compare_configurations_names(self):
        dataset, first, second = _fixture()
        comparison = compare_configurations(dataset, first, second)
        names = comparison.names()
        assert "parallel-1oo2" in names
        assert "parallel-2oo2" in names
        assert any(name.startswith("serial-confirm") for name in names)
        assert any(name.startswith("serial-escalate") for name in names)
        assert len(names) == 6

    def test_by_name_and_best_by(self):
        dataset, first, second = _fixture()
        comparison = compare_configurations(dataset, first, second, include_reversed=False)
        assert comparison.by_name("parallel-1oo2").alert_count >= comparison.by_name("parallel-2oo2").alert_count
        best = comparison.best_by("sensitivity")
        assert best.confusion.sensitivity() == max(
            outcome.confusion.sensitivity() for outcome in comparison.outcomes
        )
        with pytest.raises(ConfigurationError):
            comparison.by_name("nope")

    def test_best_by_requires_labels(self):
        comparison = ConfigurationComparison(outcomes=[])
        with pytest.raises(ConfigurationError):
            comparison.best_by("f1")

    def test_workload_fraction(self):
        dataset, first, second = _fixture()
        parallel = ParallelConfiguration([first, second], k=1).run(dataset)
        serial = SerialConfiguration(first, second, mode="confirm").run(dataset)
        assert parallel.workload_fraction() == pytest.approx(1.0)
        assert serial.workload_fraction() < 1.0

    def test_realistic_tools_serial_vs_parallel(self, small_dataset):
        """With the real stand-in tools the serial-confirm deployment cuts the
        second tool's workload dramatically while keeping specificity."""
        comparison = compare_configurations(
            small_dataset,
            CommercialBotDefenceDetector(),
            InHouseHeuristicDetector(),
            include_reversed=False,
        )
        parallel_union = comparison.by_name("parallel-1oo2")
        serial_confirm = comparison.by_name("serial-confirm(commercial->inhouse)")
        assert serial_confirm.total_workload < parallel_union.total_workload
        assert serial_confirm.confusion.specificity() >= parallel_union.confusion.specificity()
        assert parallel_union.confusion.sensitivity() >= serial_confirm.confusion.sensitivity()
