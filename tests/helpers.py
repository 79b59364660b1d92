"""Small factories shared across the test suite."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Sequence

import numpy as np

from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
from repro.core.alerts import AlertMatrix, AlertSet
from repro.logs.dataset import BENIGN, MALICIOUS, Dataset, GroundTruth
from repro.logs.record import LogRecord, RequestMethod
from repro.logs.sessionization import Session

BASE_TIME = datetime(2018, 3, 11, 12, 0, 0, tzinfo=timezone.utc)

BROWSER_UA = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36"
)
SCRIPTED_UA = "python-requests/2.18.4"


def make_record(
    request_id: str = "r0",
    *,
    seconds: float = 0.0,
    ip: str = "10.16.0.1",
    method: str = "GET",
    path: str = "/search?o=PAR&d=LIS",
    status: int = 200,
    size: int = 1024,
    referrer: str = "",
    user_agent: str = BROWSER_UA,
) -> LogRecord:
    """Build one log record with sensible defaults."""
    return LogRecord(
        request_id=request_id,
        timestamp=BASE_TIME + timedelta(seconds=seconds),
        client_ip=ip,
        method=RequestMethod(method),
        path=path,
        protocol="HTTP/1.1",
        status=status,
        response_size=size,
        referrer=referrer,
        user_agent=user_agent,
    )


def make_records(count: int, *, gap_seconds: float = 1.0, **kwargs) -> list[LogRecord]:
    """Build ``count`` records with consecutive ids and fixed inter-arrival gaps."""
    return [
        make_record(request_id=f"r{i}", seconds=i * gap_seconds, **kwargs)
        for i in range(count)
    ]


def make_session(records: Sequence[LogRecord], session_id: str = "s0") -> Session:
    """Wrap records (assumed same visitor) into a session."""
    first = records[0]
    return Session(session_id, first.client_ip, first.user_agent, list(records))


def session_frame(
    *record_groups: Sequence[LogRecord],
) -> tuple[RecordFrame, FrameSessions, FeatureMatrix]:
    """The frame, session spans and feature rows of one session per record group.

    Each group (assumed one visitor, in time order) becomes one session,
    in the order given -- the triple a detector's ``alert_columns`` and a
    rule's ``matches_frame`` judge.  The frame holds the groups back to
    back, as the stream's session frames do.
    """
    frame = RecordFrame.from_records([record for records in record_groups for record in records])
    starts = np.cumsum([0, *map(len, record_groups)])
    firsts = starts[:-1]
    sessions = FrameSessions.back_to_back(
        frame,
        starts,
        [f"s{index}" for index in range(len(record_groups))],
        frame.codes["client_ip"][firsts],
        frame.codes["user_agent"][firsts],
    )
    return frame, sessions, FeatureMatrix.from_frame(frame, sessions)


def rule_reason(rule, records: Sequence[LogRecord]) -> str | None:
    """A rule's verdict on the one session ``records`` form."""
    return rule.matches_frame(*session_frame(records))[0]


def session_verdict(detector, records: Sequence[LogRecord]) -> tuple[float, tuple[str, ...]] | None:
    """A detector's ``(score, reasons)`` on the one session ``records`` form, or ``None``."""
    alerts = detector.alert_columns(*session_frame(records))
    if not alerts.flags[0]:
        return None
    return float(alerts.scores[0]), alerts.reasons_of(0)


def make_labelled_dataset(
    malicious_ids: Sequence[str],
    benign_ids: Sequence[str],
    *,
    status_for: dict[str, int] | None = None,
) -> Dataset:
    """A labelled data set with one record per id (statuses optionally overridden)."""
    status_for = status_for or {}
    records = []
    truth = GroundTruth()
    for index, request_id in enumerate(list(malicious_ids) + list(benign_ids)):
        records.append(
            make_record(
                request_id=request_id,
                seconds=float(index),
                status=status_for.get(request_id, 200),
            )
        )
    for request_id in malicious_ids:
        truth.set(request_id, MALICIOUS, "aggressive_scraper")
    for request_id in benign_ids:
        truth.set(request_id, BENIGN, "human")
    return Dataset(records, ground_truth=truth)


def make_alert_matrix(
    dataset: Dataset,
    alerted_by_detector: dict[str, Sequence[str]],
) -> AlertMatrix:
    """Build an alert matrix from explicit per-detector alerted id lists."""
    alert_sets = []
    for detector_name, request_ids in alerted_by_detector.items():
        alert_set = AlertSet(detector_name)
        for request_id in request_ids:
            alert_set.add(request_id)
        alert_sets.append(alert_set)
    return AlertMatrix.from_alert_sets(dataset, alert_sets)
