"""Tests for :mod:`repro.logs.sessionization`."""

from __future__ import annotations

from datetime import timedelta

from repro.logs.sessionization import DEFAULT_TIMEOUT
from tests.helpers import make_record, make_records, make_session


class TestSession:
    def test_request_ids_order(self):
        session = make_session(make_records(3))
        assert session.request_ids() == ["r0", "r1", "r2"]
        assert len(session) == 3

    def test_start_and_end_are_the_first_and_last_timestamps(self):
        session = make_session(make_records(4, gap_seconds=10))
        assert session.start == make_record(seconds=0).timestamp
        assert session.end == make_record(seconds=30).timestamp


def test_default_timeout_is_thirty_minutes():
    assert DEFAULT_TIMEOUT == timedelta(minutes=30)
