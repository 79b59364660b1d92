"""Tests for the parallel vs serial deployment configurations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columns import RecordFrame
from repro.columns.alertframe import DetectorAlerts
from repro.core.configurations import compare_configurations
from repro.core.framestats import confusion_from_flags
from repro.detectors.base import Detector
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.pipeline import DetectionPipeline
from repro.exceptions import AnalysisError, ConfigurationError
from repro.logs.dataset import Dataset
from tests.helpers import make_labelled_dataset, make_records


class _FixedDetector(Detector):
    """Alerts on a fixed set of request ids (ignores the traffic).

    ``judged`` records the request ids of every frame it was asked to
    judge, so the tests can see what a serial deployment forwarded.
    """

    def __init__(self, name: str, alerted: set[str]):
        self.name = name
        self.alerted = alerted
        self.judged: list[list[str]] = []

    def alert_columns(self, frame, sessions, features) -> DetectorAlerts:
        self.judged.append(list(frame.request_ids))
        flags = np.array([request_id in self.alerted for request_id in frame.request_ids], bool)
        return DetectorAlerts(self.name, flags, flags * 1.0, np.where(flags, 0, -1), [()])


def _compare(dataset: Dataset, first: Detector, second: Detector):
    """Run both tools over the data set's frame, then compare configurations."""
    frame = RecordFrame.from_dataset(dataset)
    matrix = DetectionPipeline([first, second]).run_frame(frame).matrix
    return frame, matrix, compare_configurations(frame, matrix, first, second)


def _alerted(frame, outcome) -> set[str]:
    return {request_id for request_id, flag in zip(frame.request_ids, outcome.flags) if flag}


def _fixture():
    dataset = make_labelled_dataset(["m0", "m1", "m2", "m3"], ["b0", "b1", "b2", "b3"])
    first = _FixedDetector("first", {"m0", "m1", "m2", "b0"})
    second = _FixedDetector("second", {"m1", "m2", "m3"})
    return dataset, first, second


class TestParallelConfiguration:
    def test_union_and_intersection(self):
        frame, _, comparison = _compare(*_fixture())
        union = comparison.by_name("parallel-1oo2")
        both = comparison.by_name("parallel-2oo2")
        assert _alerted(frame, union) == {"m0", "m1", "m2", "m3", "b0"}
        assert _alerted(frame, both) == {"m1", "m2"}
        assert union.alert_count == 5
        assert both.alert_count == 2

    def test_workload_is_full_traffic_per_tool(self):
        _, _, comparison = _compare(*_fixture())
        outcome = comparison.by_name("parallel-1oo2")
        assert outcome.workload == {"first": 8, "second": 8}
        assert outcome.total_workload == 16

    def test_confusion_attached_when_labelled(self):
        _, _, comparison = _compare(*_fixture())
        outcome = comparison.by_name("parallel-1oo2")
        assert outcome.confusion is not None
        assert outcome.confusion.sensitivity() == pytest.approx(1.0)

    def test_invalid_parameters(self):
        """A tool without a column in the matrix cannot be compared."""
        dataset, first, second = _fixture()
        frame, matrix, _ = _compare(dataset, first, second)
        with pytest.raises(AnalysisError, match="unknown detector"):
            compare_configurations(frame, matrix, first, _FixedDetector("stranger", set()))


class TestSerialConfiguration:
    def test_confirm_mode_requires_both(self):
        frame, _, comparison = _compare(*_fixture())
        outcome = comparison.by_name("serial-confirm(first->second)")
        assert _alerted(frame, outcome) == {"m1", "m2"}
        # The second tool only saw what the first alerted on.
        assert outcome.workload["second"] == 4
        assert outcome.workload["first"] == 8

    def test_escalate_mode_is_union_with_reduced_workload(self):
        frame, _, comparison = _compare(*_fixture())
        outcome = comparison.by_name("serial-escalate(first->second)")
        assert _alerted(frame, outcome) == {"m0", "m1", "m2", "m3", "b0"}
        assert outcome.workload["second"] == 4  # only the 4 unalerted requests

    def test_forwarded_rows_are_what_the_second_tool_judges(self):
        dataset, first, second = _fixture()
        _compare(dataset, first, second)
        # Pipeline run, then confirm (first's alerts) and escalate (the rest).
        assert second.judged[1:3] == [
            ["m0", "m1", "m2", "b0"],
            ["m3", "b1", "b2", "b3"],
        ]

    def test_confirm_reduces_false_positives(self):
        _, matrix, comparison = _compare(*_fixture())
        labels = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        solo = confusion_from_flags(labels, matrix.column("first"))
        confirmed = comparison.by_name("serial-confirm(first->second)").confusion
        assert confirmed.false_positive_rate() <= solo.false_positive_rate()

    def test_order_matters_for_workload(self):
        frame, _, comparison = _compare(*_fixture())
        forward = comparison.by_name("serial-confirm(first->second)")
        backward = comparison.by_name("serial-confirm(second->first)")
        assert forward.workload == {"first": 8, "second": 4}
        assert backward.workload == {"second": 8, "first": 3}
        assert comparison.by_name("serial-escalate(second->first)").workload == {
            "second": 8,
            "first": 5,
        }
        # But the confirmed alerts are the same set (intersection).
        assert _alerted(frame, forward) == _alerted(frame, backward)

    def test_empty_forwarded_traffic_handled(self):
        dataset = Dataset(make_records(4))
        nothing = _FixedDetector("nothing", set())
        x = _FixedDetector("x", {"r0"})
        _, _, comparison = _compare(dataset, nothing, x)
        outcome = comparison.by_name("serial-confirm(nothing->x)")
        assert outcome.alert_count == 0
        assert outcome.workload["x"] == 0
        # Unlabelled traffic carries no confusion matrix.
        assert outcome.confusion is None
        # x judged the full frame in the pipeline and the four rows
        # nothing->x escalates; the empty confirm forward never ran it.
        assert [len(ids) for ids in x.judged] == [4, 4]
        assert [len(ids) for ids in nothing.judged] == [4, 1, 3]


class TestComparison:
    def test_compare_configurations_names(self):
        _, _, comparison = _compare(*_fixture())
        assert comparison.names() == [
            "parallel-1oo2",
            "parallel-2oo2",
            "serial-confirm(first->second)",
            "serial-escalate(first->second)",
            "serial-confirm(second->first)",
            "serial-escalate(second->first)",
        ]
        assert (
            comparison.by_name("parallel-1oo2").alert_count
            >= comparison.by_name("parallel-2oo2").alert_count
        )
        with pytest.raises(ConfigurationError):
            comparison.by_name("nope")

    def test_realistic_tools_serial_vs_parallel(self, small_dataset):
        """With the real stand-in tools the serial-confirm deployment cuts the
        second tool's workload dramatically while keeping specificity."""
        _, _, comparison = _compare(
            small_dataset, CommercialBotDefenceDetector(), InHouseHeuristicDetector()
        )
        parallel_union = comparison.by_name("parallel-1oo2")
        serial_confirm = comparison.by_name("serial-confirm(commercial->inhouse)")
        assert serial_confirm.total_workload < parallel_union.total_workload
        assert serial_confirm.confusion.specificity() >= parallel_union.confusion.specificity()
        assert parallel_union.confusion.sensitivity() >= serial_confirm.confusion.sensitivity()
