"""Grouping requests into visitor sessions.

Most scraping detectors (both commercial products and in-house rule
engines) reason about *sessions* -- bursts of activity from one visitor --
rather than isolated requests.  A session here is the classic web-analytics
definition: consecutive requests sharing the same (client IP, user agent)
pair with no gap longer than an inactivity timeout (30 minutes by
default).
"""

from __future__ import annotations

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

    # ------------------------------------------------------------------
    def add(self, record: LogRecord) -> None:
        """Append a record to the session (records must arrive in time order)."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------
    # Derived metrics (the raw material for detector features)
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

    def requests_per_minute(self) -> float:
        """Average request rate; single-request sessions count as 1 req/min."""
        if self.request_count <= 1:
            return float(self.request_count)
        minutes = max(self.duration_seconds / 60.0, 1.0 / 60.0)
        return self.request_count / minutes

    def peak_requests_per_minute(self, window_seconds: float = 60.0) -> float:
        """Maximum number of requests in any sliding window, per minute.

        Average session rate hides bursty behaviour: a scraper that fires
        300 requests in three minutes and then sleeps for an hour averages
        under 5 requests/minute.  Rate rules therefore look at the busiest
        window instead.
        """
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.request_count <= 1:
            return float(self.request_count)
        times = [record.timestamp for record in self.records]
        best = 1
        start = 0
        for end in range(len(times)):
            while (times[end] - times[start]).total_seconds() > window_seconds:
                start += 1
            best = max(best, end - start + 1)
        return best * (60.0 / window_seconds)

    def mean_interarrival_seconds(self) -> float:
        """Mean gap between consecutive requests (0 for single-request sessions)."""
        if self.request_count <= 1:
            return 0.0
        gaps = [
            (b.timestamp - a.timestamp).total_seconds()
            for a, b in zip(self.records, self.records[1:])
        ]
        return sum(gaps) / len(gaps)

    def interarrival_seconds(self) -> list[float]:
        """All gaps between consecutive requests, in seconds."""
        return [
            (b.timestamp - a.timestamp).total_seconds()
            for a, b in zip(self.records, self.records[1:])
        ]

    def error_rate(self) -> float:
        """Fraction of 4xx/5xx responses in the session."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.is_error) / len(self.records)

    def status_fraction(self, status: int) -> float:
        """Fraction of requests with the given status code."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.status == status) / len(self.records)

    def asset_fraction(self) -> float:
        """Fraction of requests for static assets (images/CSS/JS/fonts)."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.is_asset_request) / len(self.records)

    def referrer_fraction(self) -> float:
        """Fraction of requests carrying a Referer header."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.has_referrer) / len(self.records)

    def unique_paths(self) -> int:
        """Number of distinct URL paths requested."""
        return len({r.url_path for r in self.records})

    def path_repetition(self) -> float:
        """Requests per distinct path (1.0 means every path requested once)."""
        unique = self.unique_paths()
        if unique == 0:
            return 0.0
        return self.request_count / unique

    def head_fraction(self) -> float:
        """Fraction of HEAD requests (bots probe with HEAD far more than humans)."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.method.value == "HEAD") / len(self.records)

    def robots_txt_hits(self) -> int:
        """Number of requests for ``/robots.txt`` (a strong bot indicator)."""
        return sum(1 for r in self.records if r.url_path == "/robots.txt")

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
