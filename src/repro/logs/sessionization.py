"""Grouping requests into visitor sessions.

Most scraping detectors (both commercial products and in-house rule
engines) reason about *sessions* -- bursts of activity from one visitor --
rather than isolated requests.  A session here is the classic web-analytics
definition: consecutive requests sharing the same (client IP, user agent)
pair with no gap longer than an inactivity timeout (30 minutes by
default).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from datetime import timedelta
from typing import Any, Iterable, Iterator

from repro.logs.record import LogRecord

#: Default session inactivity timeout (the conventional 30 minutes).
DEFAULT_TIMEOUT = timedelta(minutes=30)


@dataclass
class Session:
    """A sequence of requests from one visitor with no long gaps."""

    session_id: str
    client_ip: str
    user_agent: str
    records: list[LogRecord] = field(default_factory=list)
    #: The stream's memoised columnar view of this session,
    #: ``(request count, view, session index)``; see
    #: :func:`repro.stream.columnar.session_columns`.
    columns: tuple[int, Any, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The stream's encoding of :attr:`records`, in the same order (a
    #: :class:`repro.stream.columnar.EncodedRecords`); the engine fills
    #: it at ingest and drops it when the session closes.
    encoded: Any = field(default=None, init=False, repr=False, compare=False)
    #: The stream rows (ingest sequence numbers) of :attr:`records`, in
    #: the same order; kept by the stream's incremental sessionizer and
    #: empty for sessions built any other way.
    rows: array = field(
        default_factory=lambda: array("q"), init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def add(self, record: LogRecord) -> None:
        """Append a record to the session (records must arrive in time order)."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------
    # Derived metrics (detector features live in repro.columns.features)
    # ------------------------------------------------------------------
    @property
    def start(self):
        """Timestamp of the first request."""
        return self.records[0].timestamp

    @property
    def end(self):
        """Timestamp of the last request."""
        return self.records[-1].timestamp

    @property
    def duration_seconds(self) -> float:
        """Wall-clock duration of the session in seconds."""
        return (self.end - self.start).total_seconds()

    @property
    def request_count(self) -> int:
        """Number of requests in the session."""
        return len(self.records)

    def request_ids(self) -> list[str]:
        """The request ids of the session, in order."""
        return [r.request_id for r in self.records]


class Sessionizer:
    """Split a record stream into :class:`Session` objects.

    Parameters
    ----------
    timeout:
        Maximum inactivity gap within one session; a larger gap starts a
        new session for the same visitor key.
    """

    def __init__(self, timeout: timedelta = DEFAULT_TIMEOUT):
        if timeout.total_seconds() <= 0:
            raise ValueError("session timeout must be positive")
        self.timeout = timeout

    def sessionize(self, records: Iterable[LogRecord]) -> list[Session]:
        """Group ``records`` into sessions.

        Records are sorted by timestamp first, so callers may pass data in
        any order.  The result is sorted by session start time.
        """
        ordered = sorted(records, key=lambda record: record.timestamp)
        open_sessions: dict[tuple[str, str], Session] = {}
        finished: list[Session] = []
        counter = 0

        for record in ordered:
            key = record.actor_key()
            current = open_sessions.get(key)
            if current is not None and (record.timestamp - current.end) > self.timeout:
                finished.append(current)
                current = None
            if current is None:
                current = Session(
                    session_id=f"s{counter}",
                    client_ip=record.client_ip,
                    user_agent=record.user_agent,
                )
                counter += 1
                open_sessions[key] = current
            current.add(record)

        finished.extend(open_sessions.values())
        finished.sort(key=lambda session: session.start)
        return finished

    def sessionize_frame(self, frame):
        """Vectorized sessionization of a :class:`~repro.columns.RecordFrame`.

        Returns a :class:`~repro.columns.FrameSessions` index (session
        spans over the frame's rows) equivalent record for record and id
        for id to :meth:`sessionize` over the same data -- see
        :func:`repro.columns.sessions.sessionize_frame`.
        """
        # Imported lazily: repro.columns builds on this module.
        from repro.columns import sessionize_frame

        return sessionize_frame(frame, timeout=self.timeout)

    def sessionize_by_ip(self, records: Iterable[LogRecord]) -> dict[str, list[Session]]:
        """Group sessions by client IP (used by IP-centric detectors)."""
        by_ip: dict[str, list[Session]] = {}
        for session in self.sessionize(records):
            by_ip.setdefault(session.client_ip, []).append(session)
        return by_ip
