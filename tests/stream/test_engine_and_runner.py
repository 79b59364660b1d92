"""Tests for the stream engine and the sharded runner."""

from __future__ import annotations

import pytest

from repro import sharding
from repro.exceptions import DetectorError, ShardError
from repro.stream import (
    ShardedStreamRunner,
    StreamEngine,
    WindowedAdjudicator,
    default_online_detectors,
    shard_of,
)
from repro.stream.detectors import OnlineRequestRateLimiter
from repro.stream.sources import dataset_replay
from tests.helpers import SCRIPTED_UA, make_record, make_records


class TestStreamEngine:
    def test_emits_one_verdict_per_record_without_skew(self):
        engine = StreamEngine([OnlineRequestRateLimiter()])
        verdicts = engine.process(make_record("r0", user_agent=SCRIPTED_UA))
        assert len(verdicts) == 1
        assert verdicts[0].alerted
        assert verdicts[0].votes["streaming-rate"].alerted
        assert verdicts[0].session_id == "s0"

    def test_skew_buffer_releases_in_timestamp_order(self):
        engine = StreamEngine([OnlineRequestRateLimiter()], max_skew_seconds=30.0)
        engine.process(make_record("late", seconds=10))
        engine.process(make_record("early", seconds=0))
        released = engine.process(make_record("far", seconds=100))
        assert [verdict.request_id for verdict in released] == ["early", "late"]

    def test_finish_flushes_buffer_and_sessions(self):
        engine = StreamEngine(default_online_detectors(), max_skew_seconds=3600.0)
        for record in make_records(30, gap_seconds=1, user_agent=SCRIPTED_UA):
            engine.process(record)
        result = engine.finish()
        assert result.stats.records == 30
        assert result.stats.sessions_closed == 1
        assert len(result.alert_set("ua-fingerprint")) == 30

    def test_stats_track_online_alerts_and_throughput(self):
        engine = StreamEngine([OnlineRequestRateLimiter(max_requests=5, window_seconds=60)])
        result = engine.run(make_records(20, gap_seconds=1))
        assert result.stats.records == 20
        assert result.stats.online_alerts["streaming-rate"] > 0
        assert result.stats.ensemble_alerts == result.stats.online_alerts["streaming-rate"]
        assert result.stats.records_per_second() > 0

    def test_latency_tracking_produces_percentiles(self):
        engine = StreamEngine([OnlineRequestRateLimiter()], track_latency=True)
        result = engine.run(make_records(50, gap_seconds=1))
        percentiles = result.latency_percentiles()
        assert set(percentiles) == {"p50", "p95", "p99", "max"}
        assert 0 <= percentiles["p50"] <= percentiles["p99"] <= percentiles["max"]

    def test_finished_engine_refuses_more_records(self):
        engine = StreamEngine([OnlineRequestRateLimiter()])
        engine.run(make_records(3))
        with pytest.raises(DetectorError):
            engine.process(make_record("r99"))
        engine.reset()
        assert engine.process(make_record("r99"))

    def test_adjudicated_engine_reports_ensemble_result(self):
        detectors = default_online_detectors()
        adjudicator = WindowedAdjudicator([d.name for d in detectors], k=2)
        engine = StreamEngine(detectors, adjudicator=adjudicator)
        result = engine.run(make_records(40, gap_seconds=0.2, user_agent=SCRIPTED_UA))
        assert result.adjudication is not None
        assert result.adjudication.scheme_name == "2-out-of-4"
        assert result.adjudication.alert_count > 0

    def test_alert_set_unknown_detector_error_names_the_culprit(self):
        engine = StreamEngine([OnlineRequestRateLimiter()])
        result = engine.run(make_records(3))
        assert result.alert_set("streaming-rate").detector_name == "streaming-rate"
        with pytest.raises(DetectorError, match="no alert set for detector 'phantom'"):
            result.alert_set("phantom")

    def test_invalid_construction(self):
        with pytest.raises(DetectorError):
            StreamEngine([])
        with pytest.raises(DetectorError):
            StreamEngine([OnlineRequestRateLimiter(), OnlineRequestRateLimiter()])
        with pytest.raises(DetectorError):
            StreamEngine([OnlineRequestRateLimiter()], max_skew_seconds=-1)


class TestShardedStreamRunner:
    def test_shard_of_is_stable_and_in_range(self):
        assert shard_of("10.0.0.1", 4) == shard_of("10.0.0.1", 4)
        assert all(0 <= shard_of(f"10.0.{i}.1", 4) < 4 for i in range(64))

    def test_backends_match_single_engine(self, shard_path, small_dataset):
        def factory():
            return StreamEngine(default_online_detectors())

        single = factory().run(dataset_replay(small_dataset))
        runner = ShardedStreamRunner(factory, workers=2)
        sharded = runner.run(dataset_replay(small_dataset))
        assert sharded.stats.records == single.stats.records
        for single_set, sharded_set in zip(single.alert_sets, sharded.alert_sets):
            assert single_set.detector_name == sharded_set.detector_name
            assert single_set.request_ids() == sharded_set.request_ids()

    def test_adjudication_merges_across_shards(self, small_dataset):
        def factory():
            detectors = default_online_detectors()
            return StreamEngine(
                detectors,
                adjudicator=WindowedAdjudicator([d.name for d in detectors], k=1),
            )

        runner = ShardedStreamRunner(factory, workers=2)
        result = runner.run(dataset_replay(small_dataset))
        assert result.adjudication is not None
        union = set()
        for alert_set in result.alert_sets:
            union.update(alert_set.request_ids())
        # 1-out-of-n live adjudication must cover at least the final alerts
        # of the request-level detectors (which never change at close).
        fingerprint = result.alert_set("ua-fingerprint").request_ids()
        assert fingerprint <= result.adjudication.alerted_ids

    def test_worker_errors_propagate(self):
        class ExplodingDetector(OnlineRequestRateLimiter):
            def observe(self, record, session=None):
                raise RuntimeError("boom")

        runner = ShardedStreamRunner(lambda: StreamEngine([ExplodingDetector()]), workers=2)
        with pytest.raises(ShardError, match="boom"):
            runner.run(make_records(10))

    def test_error_during_shard_finish_does_not_deadlock(self):
        # finish_shard() raising after the last record must still fail
        # the run, not leave the parent waiting for the export.
        class ExplodingFinishDetector(OnlineRequestRateLimiter):
            def export_state(self):
                raise RuntimeError("finish boom")

        runner = ShardedStreamRunner(
            lambda: StreamEngine([ExplodingFinishDetector()]), workers=2
        )
        with pytest.raises(ShardError, match="finish boom"):
            runner.run(make_records(10))

    def test_engine_factory_error_propagates(self):
        def broken_factory():
            raise OSError("no resources")

        runner = ShardedStreamRunner(broken_factory, workers=2)
        with pytest.raises(ShardError, match="no resources"):
            runner.run(make_records(10))

    def test_serial_backend_throughput_accounts_for_sequential_shards(
        self, small_dataset, monkeypatch
    ):
        def factory():
            return StreamEngine(default_online_detectors())

        monkeypatch.setattr(sharding, "fork_available", lambda: False)
        single = factory().run(dataset_replay(small_dataset))
        sharded = ShardedStreamRunner(factory, workers=4).run(dataset_replay(small_dataset))
        # In-process shards run back to back: total busy time must be in the
        # same ballpark as one engine over the whole stream, not a quarter of it.
        assert sharded.stats.busy_seconds == pytest.approx(
            single.stats.busy_seconds, rel=0.75
        )

    def test_invalid_construction(self):
        def factory():
            return StreamEngine([OnlineRequestRateLimiter()])

        with pytest.raises(DetectorError):
            ShardedStreamRunner(factory, workers=0)
