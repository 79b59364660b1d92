"""Tests for the windowed online adjudicator."""

from __future__ import annotations

import pytest

from repro.exceptions import AdjudicationError
from repro.stream.adjudicator import WindowedAdjudicator
from repro.stream.events import OnlineVerdict
from tests.helpers import make_record


def _votes(record, **alerted_by_name):
    return {
        name: OnlineVerdict(request_id=record.request_id, alerted=alerted)
        for name, alerted in alerted_by_name.items()
    }


class TestParallelAdjudication:
    def test_one_out_of_two_alerts_on_any_vote(self):
        adjudicator = WindowedAdjudicator(["a", "b"], k=1)
        record = make_record("r0")
        verdict = adjudicator.observe(record, _votes(record, a=True, b=False))
        assert verdict.alerted
        assert verdict.votes == 1
        assert adjudicator.name == "1-out-of-2"

    def test_two_out_of_two_requires_both(self):
        adjudicator = WindowedAdjudicator(["a", "b"], k=2)
        first = make_record("r0")
        second = make_record("r1", seconds=1)
        assert not adjudicator.observe(first, _votes(first, a=True, b=False)).alerted
        assert adjudicator.observe(second, _votes(second, a=True, b=True)).alerted
        assert adjudicator.alerted_ids == frozenset({"r1"})

    def test_votes_count_each_request_on_its_own(self):
        adjudicator = WindowedAdjudicator(["a", "b"], k=1)
        for index in range(3):
            record = make_record(f"r{index}", seconds=index)
            verdict = adjudicator.observe(record, _votes(record, a=True, b=False))
            assert (verdict.votes, verdict.detectors) == (1, 2)
        assert adjudicator.alerted_ids == frozenset({"r0", "r1", "r2"})

    def test_missing_vote_raises(self):
        adjudicator = WindowedAdjudicator(["a", "b"])
        record = make_record("r0")
        with pytest.raises(AdjudicationError):
            adjudicator.observe(record, _votes(record, a=True))


class TestSerialAdjudication:
    def test_confirm_requires_first_then_second(self):
        adjudicator = WindowedAdjudicator(["first", "second"], mode="serial-confirm")
        r0, r1, r2 = (make_record(f"r{i}", seconds=i) for i in range(3))
        assert not adjudicator.observe(r0, _votes(r0, first=False, second=True)).alerted
        assert not adjudicator.observe(r1, _votes(r1, first=True, second=False)).alerted
        assert adjudicator.observe(r2, _votes(r2, first=True, second=True)).alerted
        # The second tool was only consulted when the first alerted.
        assert adjudicator.workload() == {"first": 3, "second": 2}

    def test_escalate_is_union_with_reduced_second_workload(self):
        adjudicator = WindowedAdjudicator(["first", "second"], mode="serial-escalate")
        r0, r1, r2 = (make_record(f"r{i}", seconds=i) for i in range(3))
        assert adjudicator.observe(r0, _votes(r0, first=True, second=False)).alerted
        assert adjudicator.observe(r1, _votes(r1, first=False, second=True)).alerted
        assert not adjudicator.observe(r2, _votes(r2, first=False, second=False)).alerted
        assert adjudicator.workload() == {"first": 3, "second": 2}

    def test_serial_needs_two_detectors(self):
        with pytest.raises(AdjudicationError):
            WindowedAdjudicator(["only"], mode="serial-confirm")


class TestWindowAndResult:
    def test_window_evicts_old_decisions(self):
        adjudicator = WindowedAdjudicator(["a"], window_seconds=60)
        early = make_record("r0", seconds=0)
        late = make_record("r1", seconds=300)
        adjudicator.observe(early, _votes(early, a=True))
        adjudicator.observe(late, _votes(late, a=False))
        alerted, total = adjudicator.window_counts()
        assert (alerted, total) == (0, 1)
        assert adjudicator.window_alert_rate() == 0.0

    def test_to_result_is_a_batch_style_adjudication(self):
        adjudicator = WindowedAdjudicator(["a", "b"], k=1)
        record = make_record("r0")
        adjudicator.observe(record, _votes(record, a=True, b=False))
        result = adjudicator.to_result(total_requests=10)
        assert result.alerted_ids == frozenset({"r0"})
        assert "r0" in result and "r1" not in result
        assert result.total_requests == 10
        assert result.alert_rate() == pytest.approx(0.1)

    def test_reset_clears_everything(self):
        adjudicator = WindowedAdjudicator(["a"], k=1)
        record = make_record("r0")
        adjudicator.observe(record, _votes(record, a=True))
        adjudicator.reset()
        assert adjudicator.processed == 0
        assert adjudicator.alerted_ids == frozenset()
        assert adjudicator.workload() == {"a": 0}

    def test_invalid_parameters(self):
        with pytest.raises(AdjudicationError):
            WindowedAdjudicator([])
        with pytest.raises(AdjudicationError):
            WindowedAdjudicator(["a", "a"])
        with pytest.raises(AdjudicationError):
            WindowedAdjudicator(["a"], k=2)
        with pytest.raises(AdjudicationError):
            WindowedAdjudicator(["a"], mode="nope")
        with pytest.raises(AdjudicationError):
            WindowedAdjudicator(["a"], window_seconds=0)
