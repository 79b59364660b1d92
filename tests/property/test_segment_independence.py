"""A session's judgement does not depend on the frame it is built in, bit for bit.

The stream judges a live session in a frame of its own and the sessions
one record closes in one shared frame; the batch judges every session
of a data set in one frame whose rows are in time order, not session
order.  The frame kernels must give each session the same feature row,
rate-window peak, distinct-path count, duration and detector verdicts
in all three, down to the last bit.  These tests build random groups of
sessions each of the three ways and compare every session's values with
``tobytes()``.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columns import FeatureMatrix, RecordFrame, sessionize_frame
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.ratelimit import RateLimitDetector
from repro.logs.record import LogRecord, RequestMethod
from repro.logs.sessionization import Session
from repro.stream.columnar import SessionColumns, StreamEncoder
from repro.traffic.useragents import CRAWLER_AGENTS, HEADLESS_AGENTS, SCRIPTED_AGENTS
from tests.helpers import BROWSER_UA

KERNELS = (InHouseHeuristicDetector(), RateLimitDetector())

#: (user agent, client IP prefix): browsers, scripted and headless
#: clients, a verified crawler (its operator's range) and a crawler
#: agent from a data-centre range.
VISITORS = (
    (BROWSER_UA, "10.16.0."),
    (SCRIPTED_AGENTS[0], "172.20.0."),
    (HEADLESS_AGENTS[0], "10.96.0."),
    (CRAWLER_AGENTS[0], "192.168.66."),
    (CRAWLER_AGENTS[1], "172.21.0."),
)

PATHS = (
    "/",
    "/search?o=PAR&d=LIS",
    "/search?o=LIS&d=PAR",
    "/fares/PAR-LIS",
    "/robots.txt",
    "/static/app.css",
    "/img/logo.PNG",
    "/track?event=view",
    "/beacon",
    "/api/pixel.gif",
)

#: Gaps between a session's requests, in seconds: a burst (ties
#: included), or bursts mixed with pauses up to just under the 30-minute
#: session timeout.
TEMPOS = ((0.0, 0.0, 0.25, 1.0), (0.0, 0.25, 1.0, 2.5, 7.0, 61.0, 600.0, 1799.0))

ZONES = (timezone.utc, timezone(timedelta(hours=1)), timezone(timedelta(hours=-5)))

BASE = datetime(2018, 3, 11, tzinfo=timezone.utc)


@st.composite
def session_groups(draw):
    """1-6 sessions of 1-40 records each, one visitor per session."""
    groups = []
    n_sessions = draw(st.integers(min_value=1, max_value=6))
    for index in range(n_sessions):
        agent, prefix = draw(st.sampled_from(VISITORS))
        ip = f"{prefix}{index + 1}"
        zone = draw(st.sampled_from(ZONES))
        moment = BASE + timedelta(minutes=draw(st.integers(min_value=0, max_value=24 * 60)))
        # A narrow path pool makes sessions that hammer a few resources.
        pool = draw(
            st.sampled_from((PATHS[:1], PATHS[1:3], PATHS[2:5], PATHS, PATHS + ("/item/{n}",)))
        )
        gaps = draw(st.sampled_from(TEMPOS))
        records = []
        for position in range(draw(st.integers(min_value=1, max_value=40))):
            if position:
                moment += timedelta(seconds=draw(st.sampled_from(gaps)))
            path = draw(st.sampled_from(pool)).format(n=position)
            records.append(
                LogRecord(
                    request_id=f"g{index}-r{position}",
                    timestamp=moment.astimezone(zone),
                    client_ip=ip,
                    method=draw(
                        st.sampled_from((RequestMethod.GET, RequestMethod.GET, RequestMethod.HEAD))
                    ),
                    path=path,
                    protocol="HTTP/1.1",
                    status=draw(st.sampled_from((200, 200, 204, 304, 404))),
                    response_size=draw(st.integers(min_value=0, max_value=4096)),
                    referrer=draw(st.sampled_from(("", "-", "https://www.example.com/"))),
                    user_agent=agent,
                )
            )
        groups.append(records)
    return groups


def _session(records: list[LogRecord], session_id: str) -> Session:
    first = records[0]
    session = Session(session_id=session_id, client_ip=first.client_ip, user_agent=first.user_agent)
    session.records = list(records)
    return session


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _verdict_bits(verdict) -> tuple | None:
    if verdict is None:
        return None
    score, reasons = verdict
    return _bits(score), tuple(reasons)


def _stream_judgement(columns: SessionColumns, index: int) -> tuple:
    """One session's values in a stream build (a group, or the session alone)."""
    features = columns.features
    return (
        features.values[index].tobytes(),
        _bits(features.peak_rpm()[index]),
        np.asarray(features.unique_paths[index], dtype=np.int64).tobytes(),
        _bits(features.duration_seconds[index]),
        tuple(_verdict_bits(columns.verdict(kernel, index)) for kernel in KERNELS),
    )


def _batch_judgements(groups: list[list[LogRecord]]) -> dict[str, tuple]:
    """Every session's values through the batch path, keyed by its first request id."""
    frame = RecordFrame.from_records([record for records in groups for record in records])
    spans = sessionize_frame(frame)
    assert len(spans) == len(groups)
    features = FeatureMatrix.from_frame(frame, spans)
    peaks = features.peak_rpm()
    alerts = [kernel.alert_columns(frame, spans, features) for kernel in KERNELS]
    judgements = {}
    for index in range(len(spans)):
        rows = spans.span(index)
        verdicts = []
        for kernel_alerts in alerts:
            # A session verdict covers every row of the session.
            assert len(set(kernel_alerts.flags[rows].tolist())) == 1
            row = int(rows[0])
            verdicts.append(
                (_bits(kernel_alerts.scores[row]), kernel_alerts.reasons_of(row))
                if kernel_alerts.flags[row]
                else None
            )
        judgements[frame.request_ids[int(rows[0])]] = (
            features.values[index].tobytes(),
            _bits(peaks[index]),
            np.asarray(features.unique_paths[index], dtype=np.int64).tobytes(),
            _bits(features.duration_seconds[index]),
            tuple(verdicts),
        )
    return judgements


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups=session_groups())
def test_each_session_judges_the_same_in_a_group_alone_and_in_the_batch(groups):
    sessions = [_session(records, f"s{index}") for index, records in enumerate(groups)]
    group = SessionColumns(sessions, StreamEncoder())
    in_group = [_stream_judgement(group, index) for index in range(len(sessions))]
    alone = [
        _stream_judgement(SessionColumns((session,), StreamEncoder()), 0) for session in sessions
    ]
    batch = _batch_judgements(groups)
    for index, records in enumerate(groups):
        assert in_group[index] == alone[index]
        assert in_group[index] == batch[records[0].request_id]
