"""Visitor sessions.

Most scraping detectors (both commercial products and in-house rule
engines) reason about *sessions* -- bursts of activity from one visitor --
rather than isolated requests.  A session here is the classic web-analytics
definition: consecutive requests sharing the same (client IP, user agent)
pair with no gap longer than an inactivity timeout (30 minutes by
default).

Sessions are built in one of two places: batch runs group a whole frame
at once with :func:`repro.columns.sessions.sessionize_frame` (session
spans over the frame's rows), and the stream builds a :class:`Session`
per live visitor with
:class:`repro.stream.sessionizer.IncrementalSessionizer`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from datetime import timedelta
from typing import Any

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
    def __len__(self) -> int:
        return len(self.records)

    @property
    def start(self):
        """Timestamp of the first request."""
        return self.records[0].timestamp

    @property
    def end(self):
        """Timestamp of the last request."""
        return self.records[-1].timestamp

    def request_ids(self) -> list[str]:
        """The request ids of the session, in order."""
        return [r.request_id for r in self.records]

