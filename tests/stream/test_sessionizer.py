"""Tests for the incremental sessionizer."""

from __future__ import annotations

from datetime import timedelta

import pytest

from repro.columns import RecordFrame, sessionize_frame
from repro.stream.sessionizer import IncrementalSessionizer
from tests.helpers import make_record, make_records


def _partition(sessions):
    """Sessions as a comparable set of request-id tuples."""
    return {tuple(session.request_ids()) for session in sessions}


class TestIncrementalSessionizer:
    def test_single_visitor_single_session(self):
        sessionizer = IncrementalSessionizer()
        for record in make_records(10, gap_seconds=5):
            update = sessionizer.observe(record)
            assert not update.closed
        assert sessionizer.open_sessions == 1
        (session,) = sessionizer.flush()
        assert len(session) == 10
        assert session.session_id == "s0"

    def test_gap_beyond_timeout_starts_new_session(self):
        sessionizer = IncrementalSessionizer(timeout=timedelta(minutes=30))
        sessionizer.observe(make_record("a", seconds=0))
        update = sessionizer.observe(make_record("b", seconds=31 * 60))
        assert update.opened
        assert [s.request_ids() for s in update.closed] == [["a"]]
        assert update.session.session_id == "s1"

    def test_gap_equal_to_timeout_stays_in_session(self):
        sessionizer = IncrementalSessionizer(timeout=timedelta(minutes=30), eviction_interval=1)
        sessionizer.observe(make_record("a", seconds=0))
        update = sessionizer.observe(make_record("b", seconds=30 * 60))
        assert not update.opened
        assert not update.closed
        assert update.session.request_ids() == ["a", "b"]

    def test_eviction_closes_idle_sessions_of_other_visitors(self):
        sessionizer = IncrementalSessionizer(timeout=timedelta(minutes=30), eviction_interval=1)
        sessionizer.observe(make_record("idle", seconds=0, ip="10.0.0.1"))
        update = sessionizer.observe(make_record("fresh", seconds=45 * 60, ip="10.0.0.2"))
        closed_ids = [s.request_ids() for s in update.closed]
        assert ["idle"] in closed_ids
        assert sessionizer.open_sessions == 1

    def test_eviction_never_closes_active_sessions(self):
        sessionizer = IncrementalSessionizer(timeout=timedelta(minutes=30), eviction_interval=1)
        sessionizer.observe(make_record("a", seconds=0))
        update = sessionizer.observe(make_record("b", seconds=60))
        assert not update.closed
        assert sessionizer.open_sessions == 1

    def test_explicit_evict_idle_uses_watermark(self):
        sessionizer = IncrementalSessionizer(timeout=timedelta(minutes=30), eviction_interval=10_000)
        sessionizer.observe(make_record("a", seconds=0, ip="10.0.0.1"))
        sessionizer.observe(make_record("b", seconds=45 * 60, ip="10.0.0.2"))
        evicted = sessionizer.evict_idle()
        assert [s.request_ids() for s in evicted] == [["a"]]

    def test_out_of_order_record_inserted_in_timestamp_order(self):
        sessionizer = IncrementalSessionizer()
        sessionizer.observe(make_record("a", seconds=0))
        sessionizer.observe(make_record("c", seconds=20))
        update = sessionizer.observe(make_record("b", seconds=10))
        assert update.session.request_ids() == ["a", "b", "c"]

    def test_matches_batch_partition_on_sorted_stream(self, small_dataset):
        records = sorted(small_dataset.records, key=lambda r: r.timestamp)
        batch = sessionize_frame(RecordFrame.from_records(records))

        incremental = IncrementalSessionizer()
        closed = []
        for record in records:
            closed.extend(incremental.observe(record).closed)
        closed.extend(incremental.flush())

        groups = batch.request_id_groups()
        assert _partition(closed) == {tuple(group) for group in groups}
        # Session ids are assigned in the same creation order as the batch scan.
        by_requests_batch = {tuple(group): s for group, s in zip(groups, batch.session_ids)}
        by_requests_stream = {tuple(s.request_ids()): s.session_id for s in closed}
        assert by_requests_batch == by_requests_stream

    def test_reset_clears_all_state(self):
        sessionizer = IncrementalSessionizer()
        sessionizer.observe(make_record("a"))
        sessionizer.reset()
        assert sessionizer.open_sessions == 0
        assert sessionizer.sessions_started == 0
        assert sessionizer.watermark is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            IncrementalSessionizer(timeout=timedelta(seconds=0))
        with pytest.raises(ValueError):
            IncrementalSessionizer(eviction_interval=0)
