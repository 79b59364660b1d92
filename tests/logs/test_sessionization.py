"""Tests for :mod:`repro.logs.sessionization`."""

from __future__ import annotations

from datetime import timedelta

import pytest

from repro.logs.sessionization import Sessionizer
from tests.helpers import BROWSER_UA, make_record, make_records, make_session


class TestSessionizer:
    def test_single_visitor_single_session(self):
        records = make_records(5, gap_seconds=10)
        sessions = Sessionizer().sessionize(records)
        assert len(sessions) == 1
        assert sessions[0].request_count == 5

    def test_gap_longer_than_timeout_splits_sessions(self):
        records = make_records(2, gap_seconds=1)
        records.append(make_record("r9", seconds=60 * 60))  # an hour later
        sessions = Sessionizer().sessionize(records)
        assert len(sessions) == 2
        assert sessions[0].request_count == 2
        assert sessions[1].request_count == 1

    def test_distinct_ips_get_distinct_sessions(self):
        records = [
            make_record("a", ip="10.0.0.1"),
            make_record("b", ip="10.0.0.2", seconds=1),
        ]
        sessions = Sessionizer().sessionize(records)
        assert len(sessions) == 2

    def test_distinct_agents_get_distinct_sessions(self):
        records = [
            make_record("a", user_agent=BROWSER_UA),
            make_record("b", user_agent="curl/7.58.0", seconds=1),
        ]
        assert len(Sessionizer().sessionize(records)) == 2

    def test_records_sorted_before_grouping(self):
        records = [make_record("late", seconds=50), make_record("early", seconds=0)]
        sessions = Sessionizer().sessionize(records)
        assert sessions[0].records[0].request_id == "early"

    def test_custom_timeout(self):
        records = make_records(2, gap_seconds=120)
        sessions = Sessionizer(timeout=timedelta(minutes=1)).sessionize(records)
        assert len(sessions) == 2

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Sessionizer(timeout=timedelta(seconds=0))

    def test_sessions_sorted_by_start(self):
        records = [
            make_record("b0", ip="10.0.0.2", seconds=100),
            make_record("a0", ip="10.0.0.1", seconds=0),
        ]
        sessions = Sessionizer().sessionize(records)
        assert sessions[0].client_ip == "10.0.0.1"

    def test_sessionize_by_ip(self):
        records = [
            make_record("a", ip="10.0.0.1"),
            make_record("b", ip="10.0.0.1", seconds=1),
            make_record("c", ip="10.0.0.2", seconds=2),
        ]
        by_ip = Sessionizer().sessionize_by_ip(records)
        assert set(by_ip) == {"10.0.0.1", "10.0.0.2"}
        assert by_ip["10.0.0.1"][0].request_count == 2

    def test_session_ids_unique(self):
        records = [make_record(f"r{i}", ip=f"10.0.0.{i}", seconds=i) for i in range(5)]
        sessions = Sessionizer().sessionize(records)
        ids = [session.session_id for session in sessions]
        assert len(set(ids)) == len(ids)


class TestSessionMetrics:
    def test_duration(self):
        session = make_session(make_records(7, gap_seconds=10))
        assert session.duration_seconds == pytest.approx(60.0)
        assert session.request_count == 7

    def test_request_ids_order(self):
        session = make_session(make_records(3))
        assert session.request_ids() == ["r0", "r1", "r2"]
