"""Tests for the streaming (online) detection components."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columns import FeatureMatrix, RecordFrame, sessionize_frame
from repro.columns.alertframe import DetectorAlerts
from repro.core.alerts import Alert
from repro.detectors.ratelimit import RateLimitDetector
from repro.detectors.streaming import StreamingDetector, StreamingRateLimiter
from repro.logs.dataset import Dataset
from repro.stream import OnlineRequestRateLimiter, OnlineVerdict, StreamEngine
from repro.stream.sources import dataset_replay
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small
from tests.helpers import BROWSER_UA, SCRIPTED_UA, make_record, make_records


class TestStreamingRateLimiter:
    def test_slow_visitor_never_flagged(self):
        limiter = StreamingRateLimiter(max_requests=30, window_seconds=60)
        verdicts = limiter.observe_stream(make_records(20, gap_seconds=10))
        assert not any(verdict.alerted for verdict in verdicts)

    def test_fast_visitor_flagged_once_budget_exceeded(self):
        limiter = StreamingRateLimiter(max_requests=10, window_seconds=60, penalty_seconds=0)
        verdicts = limiter.observe_stream(make_records(20, gap_seconds=1))
        assert not verdicts[5].alerted  # still under budget
        assert verdicts[11].alerted  # 12th request within the window
        assert "exceeds" in verdicts[11].reason

    def test_penalty_period_keeps_visitor_flagged(self):
        limiter = StreamingRateLimiter(max_requests=5, window_seconds=60, penalty_seconds=600)
        records = make_records(8, gap_seconds=1) + [make_record("late", seconds=120)]
        verdicts = limiter.observe_stream(records)
        assert verdicts[-1].alerted
        assert "penalty" in verdicts[-1].reason

    def test_scripted_agents_flagged_immediately(self):
        limiter = StreamingRateLimiter()
        verdict = limiter.observe(make_record(user_agent=SCRIPTED_UA))
        assert verdict.alerted
        assert "scripted" in verdict.reason

    def test_visitors_tracked_independently(self):
        limiter = StreamingRateLimiter(max_requests=5, window_seconds=60)
        fast = make_records(10, gap_seconds=1, ip="172.20.0.1")
        slow = [make_record(f"s{i}", seconds=i * 30, ip="10.16.0.1") for i in range(10)]
        merged = sorted(fast + slow, key=lambda r: r.timestamp)
        verdicts = {v.request_id: v for v in limiter.observe_stream(merged)}
        assert any(verdicts[f"r{i}"].alerted for i in range(10))
        assert not any(verdicts[f"s{i}"].alerted for i in range(10))

    def test_reset_clears_state(self):
        limiter = StreamingRateLimiter(max_requests=3, window_seconds=60)
        limiter.observe_stream(make_records(6, gap_seconds=1))
        limiter.reset()
        verdict = limiter.observe(make_record("fresh", seconds=100))
        assert not verdict.alerted

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StreamingRateLimiter(max_requests=0)
        with pytest.raises(ValueError):
            StreamingRateLimiter(window_seconds=0)

    def test_record_alerts_opt_out_bounds_memory(self):
        limiter = StreamingRateLimiter(max_requests=3, window_seconds=60, record_alerts=False)
        verdicts = limiter.observe_stream(make_records(10, gap_seconds=1))
        assert any(verdict.alerted for verdict in verdicts)
        assert len(limiter.final_alert_set()) == 0

    def test_batch_adapter_works_with_alert_free_limiter(self):
        # analyze() must return the alerts even when the limiter was
        # configured alert-free for live deployments.
        limiter = StreamingRateLimiter(max_requests=10, window_seconds=60, record_alerts=False)
        dataset = Dataset(make_records(40, gap_seconds=0.5, user_agent=BROWSER_UA))
        alerts = StreamingDetector(limiter).analyze(dataset)
        assert len(alerts) > 0
        assert limiter.record_alerts is False  # restored afterwards


class TestStreamingDetector:
    def test_batch_adapter_flags_fast_traffic(self):
        dataset = Dataset(make_records(40, gap_seconds=0.5, user_agent=BROWSER_UA))
        alerts = StreamingDetector(StreamingRateLimiter(max_requests=20, window_seconds=60)).analyze(dataset)
        assert len(alerts) > 0
        assert len(alerts) < len(dataset)  # the ramp-up requests pass

    def test_replays_in_time_order(self):
        # Records supplied out of order must still be judged chronologically.
        records = list(reversed(make_records(30, gap_seconds=1)))
        dataset = Dataset(records)
        alerts = StreamingDetector(StreamingRateLimiter(max_requests=10, window_seconds=60)).analyze(dataset)
        assert "r29" in alerts or len(alerts) > 0

    def test_agrees_with_batch_rate_detector_on_aggressive_traffic(self, small_dataset):
        """Online and offline rate limiting should broadly agree on which
        requests belong to fast automation (they use the same signal)."""
        streaming = StreamingDetector(StreamingRateLimiter(max_requests=45, window_seconds=60, flag_scripted_agents=False))
        batch = RateLimitDetector(threshold_rpm=45)
        streaming_ids = streaming.analyze(small_dataset).request_ids()
        batch_ids = batch.analyze(small_dataset).request_ids()
        if not batch_ids:
            pytest.skip("no fast sessions in fixture")
        overlap = len(streaming_ids & batch_ids) / len(batch_ids)
        assert overlap > 0.5

    def test_participates_in_diversity_analysis(self, small_dataset):
        from repro.core.diversity import diversity_breakdown
        from repro.detectors.inhouse import InHouseHeuristicDetector
        from repro.detectors.pipeline import run_detectors

        result = run_detectors(small_dataset, [StreamingDetector(), InHouseHeuristicDetector()])
        breakdown = diversity_breakdown(result.matrix, "streaming-rate", "inhouse")
        assert breakdown.total == len(small_dataset)


class TestStreamingDetectorColumns:
    """The batch adapter maps the replay's alert columns onto frame rows, building no ``Alert``."""

    @pytest.fixture(scope="class")
    def balanced_frame(self):
        frame = RecordFrame.from_dataset(
            generate_dataset(balanced_small(total_requests=3000, seed=7))
        )
        spans = sessionize_frame(frame)
        return frame, spans, FeatureMatrix.from_frame(frame, spans)

    @staticmethod
    def _specification(frame, limiter, name):
        """The replay's alert set, columnarised over the frame."""
        result = StreamEngine([limiter]).run(dataset_replay(frame.to_dataset()))
        expected = DetectorAlerts.from_alert_set(frame, result.alert_sets[0])
        expected.detector_name = name
        return expected

    @staticmethod
    def _assert_equal(alerts, expected):
        assert alerts.detector_name == expected.detector_name
        assert np.array_equal(alerts.flags, expected.flags)
        assert np.array_equal(alerts.scores, expected.scores)
        rows = np.flatnonzero(expected.flags).tolist()
        assert [alerts.reasons_of(row) for row in rows] == [expected.reasons_of(row) for row in rows]

    def test_no_alert_is_built(self, balanced_frame, monkeypatch):
        built: list[str] = []
        original = Alert.__post_init__

        def counting(self) -> None:
            built.append(self.request_id)
            original(self)

        monkeypatch.setattr(Alert, "__post_init__", counting)
        alerts = StreamingDetector().alert_columns(*balanced_frame)
        assert built == []
        assert alerts.flags.sum() > 100
        monkeypatch.undo()
        frame = balanced_frame[0]
        self._assert_equal(alerts, self._specification(frame, StreamingRateLimiter(), "streaming-rate"))

    def test_a_row_alerted_twice_merges_as_the_alert_set_does(self, balanced_frame):
        alerts = StreamingDetector(_TwiceAlerting(), name="twice").alert_columns(*balanced_frame)
        expected = self._specification(balanced_frame[0], _TwiceAlerting(), "twice")
        assert expected.reasons_of(0) == ("first", "shared", "second")
        self._assert_equal(alerts, expected)


class _TwiceAlerting(OnlineRequestRateLimiter):
    """Files two alerts with overlapping reasons on every request."""

    name = "twice"

    def observe(self, record, session=None):
        self._alert(record, 0.25, ("first", "shared"))
        self._alert(record, 0.75 if record.request_id.endswith("1") else 0.1, ("shared", "second"))
        return OnlineVerdict(request_id=record.request_id, alerted=True)
