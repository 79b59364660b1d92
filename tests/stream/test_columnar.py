"""The stream's columnar session views and the batch kernels behind them."""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest

from repro.columns import FeatureMatrix, FrameSessions
from repro.detectors import features as record_features
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.ratelimit import RateLimitDetector
from repro.exceptions import ColumnsError
from repro.logs.sessionization import Session, Sessionizer
from repro.stream import StreamEngine
from repro.stream.columnar import SessionColumns, session_columns
from repro.stream.detectors import (
    OnlineDetector,
    OnlineFingerprintDetector,
    OnlineRequestRateLimiter,
)
from repro.stream.events import OnlineVerdict
from repro.stream.sessionizer import IncrementalSessionizer
from repro.stream.sources import dataset_replay
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small
from tests.helpers import make_record, make_records, make_session


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(balanced_small(total_requests=2000, seed=5))


@pytest.fixture(scope="module")
def sessions(dataset):
    return Sessionizer().sessionize(dataset.records)


class TestFrameSessionsFromSessions:
    def test_round_trips_through_to_sessions(self, sessions):
        spans = FrameSessions.from_sessions(sessions)
        rebuilt = spans.to_sessions()
        assert [s.session_id for s in rebuilt] == [s.session_id for s in sessions]
        for original, copy in zip(sessions, rebuilt):
            assert (copy.client_ip, copy.user_agent) == (original.client_ip, original.user_agent)
            assert copy.request_ids() == original.request_ids()
            assert copy.records == original.records

    def test_features_match_the_record_path_bit_for_bit(self, sessions):
        spans = FrameSessions.from_sessions(sessions)
        matrix = FeatureMatrix.from_frame(spans.frame, spans)
        expected = record_features.feature_matrix(sessions)
        assert np.array_equal(matrix.values, expected)

    def test_empty_session_is_rejected(self):
        with pytest.raises(ColumnsError):
            FrameSessions.from_sessions([Session("s0", "10.0.0.1", "agent")])


class TestSessionColumns:
    def test_verdicts_match_the_batch_judgement(self, dataset, sessions):
        columns = SessionColumns(sessions)
        for detector in (InHouseHeuristicDetector(), RateLimitDetector()):
            batch = detector.analyze(dataset)
            for index, session in enumerate(sessions):
                verdict = columns.verdict(detector, index)
                alerts = [batch.get(request_id) for request_id in session.request_ids()]
                if verdict is None:
                    assert alerts == [None] * len(alerts)
                else:
                    assert all(alert is not None for alert in alerts)
                    assert {(alert.score, alert.reasons) for alert in alerts} == {verdict}

    def test_memoised_per_request_count(self):
        session = make_session(make_records(5))
        first, index = session_columns(session)
        assert session_columns(session) == (first, index)
        session.add(make_record("r9", seconds=9))
        second, _ = session_columns(session)
        assert second is not first
        assert len(second.spans.frame) == 6

    def test_group_build_is_shared_by_its_sessions(self):
        group = [make_session(make_records(3, ip=f"10.0.0.{i}"), f"s{i}") for i in range(3)]
        columns = SessionColumns(group)
        assert [session_columns(session) for session in group] == [
            (columns, 0),
            (columns, 1),
            (columns, 2),
        ]


class _CloseSpy(OnlineDetector):
    """Records which columnar build each closed session carries."""

    name = "spy"

    def __init__(self) -> None:
        super().__init__()
        self.builds: list[tuple[str, int]] = []

    def observe(self, record, session=None):
        return OnlineVerdict(request_id=record.request_id, alerted=False)

    def on_session_close(self, session):
        self.builds.append((session.session_id, id(session_columns(session)[0])))


def test_sessions_closed_together_share_one_frame():
    spy = _CloseSpy()
    engine = StreamEngine([spy])
    engine.sessionizer = IncrementalSessionizer(timedelta(minutes=30), eviction_interval=4)
    records = [make_record(f"r{i}", seconds=i, ip=f"10.0.0.{i}") for i in range(3)]
    records.append(make_record("late", seconds=7200, ip="10.0.9.9"))
    for record in records:
        engine.process(record)
    closed = dict(spy.builds)
    assert sorted(closed) == ["s0", "s1", "s2"]
    assert len(set(closed.values())) == 1
    engine.finish()


def test_an_engine_whose_detectors_read_no_session_columns_builds_none(dataset, monkeypatch):
    # A closing record's sessions are gathered only when a detector asks.
    builds = []
    build = SessionColumns.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(SessionColumns, "__init__", counting)
    engine = StreamEngine([OnlineRequestRateLimiter(), OnlineFingerprintDetector()])
    result = engine.run(dataset_replay(dataset))
    assert result.stats.sessions_closed > 50
    assert builds == []
