"""Vectorized sessionization: the rule it implements, and the stream's agreement with it."""

from __future__ import annotations

from datetime import timedelta
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columns import RecordFrame, sessionize_frame
from repro.logs.sessionization import DEFAULT_TIMEOUT
from repro.stream.sessionizer import IncrementalSessionizer
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small
from tests.helpers import BROWSER_UA, make_record, make_records


def reference_sessions(records, timeout=DEFAULT_TIMEOUT):
    """The sessionization rule, as one scan over the records in stable timestamp order.

    A record joins its visitor's open session unless the gap to that
    session's last record exceeds the timeout; a new session's id counts
    the sessions opened before it.  A session is finished when its
    visitor opens the next one, every visitor's last session at the end
    in visitor-first-seen order, and the finished sessions are stably
    sorted by start time.  Returns ``(session_id, records)`` pairs.
    """
    numbers = count()
    open_sessions: dict = {}
    finished = []
    for record in sorted(records, key=lambda record: record.timestamp):
        key = record.actor_key()
        current = open_sessions.get(key)
        if current is not None and record.timestamp - current[1][-1].timestamp > timeout:
            finished.append(current)
            current = None
        if current is None:
            current = open_sessions[key] = (f"s{next(numbers)}", [])
        current[1].append(record)
    finished.extend(open_sessions.values())
    finished.sort(key=lambda session: session[1][0].timestamp)
    return finished


def assert_matches_reference(records, timeout=DEFAULT_TIMEOUT):
    """``sessionize_frame`` gives the reference scan's sessions, ids and order."""
    spans = sessionize_frame(RecordFrame.from_records(records), timeout=timeout)
    expected = reference_sessions(records, timeout)
    assert spans.session_ids == [session_id for session_id, _ in expected]
    for index, (_session_id, members) in enumerate(expected):
        assert spans.client_ip(index) == members[0].client_ip
        assert spans.user_agent(index) == members[0].user_agent
        got = [records[row].request_id for row in spans.span(index)]
        assert got == [record.request_id for record in members]


def assert_stream_matches(records, timeout=DEFAULT_TIMEOUT, eviction_interval=256):
    """The stream sessionizer, fed the records in time order, opens the batch sessions."""
    spans = sessionize_frame(RecordFrame.from_records(records), timeout=timeout)
    sessionizer = IncrementalSessionizer(timeout, eviction_interval=eviction_interval)
    closed = []
    for record in sorted(records, key=lambda record: record.timestamp):
        closed.extend(sessionizer.observe(record).closed)
    closed.extend(sessionizer.flush())
    assert len(closed) == len(spans)
    assert {session.session_id: session.request_ids() for session in closed} == {
        session_id: [records[row].request_id for row in spans.span(index)]
        for index, session_id in enumerate(spans.session_ids)
    }


def _frame_sessions(records, **kwargs):
    spans = sessionize_frame(RecordFrame.from_records(records), **kwargs)
    return [[records[row].request_id for row in spans.span(j)] for j in range(len(spans))]


class TestSessionizeFrame:
    def test_single_visitor_single_session(self):
        assert _frame_sessions(make_records(5, gap_seconds=10)) == [["r0", "r1", "r2", "r3", "r4"]]

    def test_gap_longer_than_timeout_splits_sessions(self):
        records = make_records(2) + [make_record("r9", seconds=60 * 60)]
        assert _frame_sessions(records) == [["r0", "r1"], ["r9"]]

    def test_distinct_ips_get_distinct_sessions(self):
        records = [make_record("a", ip="10.0.0.1"), make_record("b", ip="10.0.0.2", seconds=1)]
        assert _frame_sessions(records) == [["a"], ["b"]]

    def test_distinct_agents_get_distinct_sessions(self):
        records = [
            make_record("a", user_agent=BROWSER_UA),
            make_record("b", user_agent="curl/7.58.0", seconds=1),
        ]
        assert _frame_sessions(records) == [["a"], ["b"]]

    def test_unsorted_input_is_grouped_in_time_order(self):
        records = [make_record("late", seconds=50), make_record("early", seconds=0)]
        assert _frame_sessions(records) == [["early", "late"]]

    def test_interleaved_visitors_keep_their_own_time_order(self):
        records = [
            make_record("b1", ip="10.0.0.2", seconds=3),
            make_record("a0", ip="10.0.0.1", seconds=0),
            make_record("b0", ip="10.0.0.2", seconds=1),
            make_record("a1", ip="10.0.0.1", seconds=2),
        ]
        assert _frame_sessions(records) == [["a0", "a1"], ["b0", "b1"]]

    def test_custom_timeout(self):
        records = make_records(2, gap_seconds=120)
        assert _frame_sessions(records, timeout=timedelta(minutes=1)) == [["r0"], ["r1"]]

    def test_gap_equal_to_timeout_stays_in_session(self):
        records = make_records(3, gap_seconds=60)
        assert _frame_sessions(records, timeout=timedelta(minutes=1)) == [["r0", "r1", "r2"]]

    def test_default_timeout_is_thirty_idle_minutes(self):
        records = [
            make_record("a", seconds=0),
            make_record("b", seconds=30 * 60),
            make_record("c", seconds=60 * 60 + 1),
        ]
        assert _frame_sessions(records) == [["a", "b"], ["c"]]

    @pytest.mark.parametrize("seconds", [0, -60])
    def test_non_positive_timeout_rejected(self, seconds):
        frame = RecordFrame.from_records(make_records(2))
        with pytest.raises(ValueError, match="positive"):
            sessionize_frame(frame, timeout=timedelta(seconds=seconds))

    def test_sessions_ordered_by_start(self):
        records = [
            make_record("b0", ip="10.0.0.2", seconds=100),
            make_record("a0", ip="10.0.0.1", seconds=0),
        ]
        spans = sessionize_frame(RecordFrame.from_records(records))
        assert [spans.client_ip(j) for j in range(len(spans))] == ["10.0.0.1", "10.0.0.2"]

    def test_session_ids_unique(self):
        records = [make_record(f"r{i}", ip=f"10.0.0.{i}", seconds=i) for i in range(5)]
        ids = sessionize_frame(RecordFrame.from_records(records)).session_ids
        assert len(set(ids)) == len(ids) == 5


class TestScenarioEquivalence:
    def test_generated_scenario(self):
        records = generate_dataset(balanced_small(total_requests=4_000, seed=5)).records
        assert_matches_reference(records)
        assert_stream_matches(records)

    def test_empty(self):
        frame = RecordFrame.from_records([])
        spans = sessionize_frame(frame)
        assert len(spans) == 0
        assert spans.request_id_groups() == []

    def test_single_record(self):
        assert_matches_reference([make_record("only")])


VISITORS = [
    ("10.0.0.1", "agent-a"),
    ("10.0.0.1", "agent-b"),
    ("10.0.0.2", "agent-a"),
    ("192.168.7.9", "other"),
]


@st.composite
def tied_records(draw):
    """Up to 40 records of four visitors, with duplicate timestamps across
    and within visitors and gaps that straddle any timeout."""
    data = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # visitor index
                st.integers(min_value=0, max_value=7_200),  # offset seconds
            ),
            min_size=1,
            max_size=40,
        )
    )
    records = []
    for index, (visitor, offset) in enumerate(data):
        ip, agent = VISITORS[visitor]
        records.append(make_record(f"r{index}", seconds=float(offset), ip=ip, user_agent=agent))
    return records


@settings(max_examples=120, deadline=None)
@given(records=tied_records(), timeout_minutes=st.integers(min_value=1, max_value=45))
def test_hypothesis_adversarial_ties_and_timeouts(records, timeout_minutes):
    # The scan's tie-breaking (stable time sort, visitor-first-seen
    # order, stable final sort) must survive vectorization.
    assert_matches_reference(records, timedelta(minutes=timeout_minutes))


@settings(max_examples=120, deadline=None)
@given(
    records=tied_records(),
    timeout_minutes=st.integers(min_value=1, max_value=45),
    eviction_interval=st.integers(min_value=1, max_value=20),
)
def test_hypothesis_stream_opens_the_batch_sessions(records, timeout_minutes, eviction_interval):
    # Fed the same records in time order, the stream must open the batch
    # sessions under the same ids at any eviction cadence.
    assert_stream_matches(records, timedelta(minutes=timeout_minutes), eviction_interval)


@settings(max_examples=40, deadline=None)
@given(
    offsets=st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=20)
)
def test_hypothesis_identical_timestamps_keep_arrival_order(offsets):
    # Many records sharing one timestamp: span order must equal the
    # original arrival order (both sorts are stable).
    records = [
        make_record(f"r{index}", seconds=float(offset // 10)) for index, offset in enumerate(offsets)
    ]
    assert_matches_reference(records)
    assert_stream_matches(records)
