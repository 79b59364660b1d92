"""Incremental sessionization with timeout-based eviction.

Batch runs group the whole log at once
(:func:`~repro.columns.sessions.sessionize_frame`); a streaming
deployment never sees "the whole log".
:class:`IncrementalSessionizer` maintains the open session of every
visitor key and closes sessions in two ways:

* **gap close** -- a new record from the same visitor arrives more than
  ``timeout`` after the session's last request (exactly the batch rule);
* **eviction** -- the stream's watermark (latest timestamp observed)
  moves more than ``timeout`` past a session's last request, so no
  in-order record can ever extend it again.  Eviction is what bounds the
  engine's *session* state on an infinite stream (the final alerts the
  detectors accumulate still grow with the stream, as columns; see
  :mod:`repro.stream.alerts`).

Fed the same records in timestamp order, the incremental sessionizer
produces exactly the partition (and the same ``s<n>`` session ids) as
:func:`~repro.columns.sessions.sessionize_frame` -- the property the
batch-equivalence bridge relies on.
Mildly out-of-order records (timestamps earlier than the visitor's
current session end, e.g. from multi-worker log shipping) are inserted in
timestamp order within the open session, so the session's derived metrics
stay correct.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from repro.logs.record import LogRecord
from repro.logs.sessionization import DEFAULT_TIMEOUT, Session


@dataclass
class SessionUpdate:
    """What one observed record did to the session state."""

    #: The live session the record was appended to.
    session: Session
    #: True when the record opened a new session.
    opened: bool
    #: Sessions closed by this record (its visitor's previous session
    #: when the inactivity gap was exceeded, plus any evicted sessions).
    closed: list[Session] = field(default_factory=list)
    #: The record's position in :attr:`session`'s records (``None``: the end).
    index: int | None = None


def _timestamp(record: LogRecord) -> datetime:
    return record.timestamp


class IncrementalSessionizer:
    """Maintain per-visitor open sessions over a live record stream.

    Parameters
    ----------
    timeout:
        Maximum inactivity gap within one session (the batch default of
        30 minutes).
    eviction_interval:
        Idle sessions are searched for (and evicted) every this many
        observed records.  Eviction timing never changes which session a
        record belongs to -- once a visitor's gap exceeds the timeout the
        next record starts a new session regardless -- it only bounds how
        long finished sessions linger in memory.
    """

    def __init__(
        self,
        timeout: timedelta = DEFAULT_TIMEOUT,
        *,
        eviction_interval: int = 256,
    ) -> None:
        if timeout.total_seconds() <= 0:
            raise ValueError("session timeout must be positive")
        if eviction_interval < 1:
            raise ValueError("eviction_interval must be at least 1")
        self.timeout = timeout
        self.eviction_interval = eviction_interval
        self._open: dict[tuple[str, str], Session] = {}
        self._counter = 0
        self._observed = 0
        self._watermark: datetime | None = None
        #: Total sessions closed by idle eviction (vs. gap close); read
        #: by the stream engine's telemetry export.
        self.sessions_evicted = 0

    # ------------------------------------------------------------------
    @property
    def open_sessions(self) -> int:
        """Number of currently open sessions."""
        return len(self._open)

    @property
    def sessions_started(self) -> int:
        """Total number of sessions opened so far."""
        return self._counter

    @property
    def watermark(self) -> datetime | None:
        """The latest timestamp observed (``None`` before any record)."""
        return self._watermark

    # ------------------------------------------------------------------
    def observe(self, record: LogRecord, row: int | None = None) -> SessionUpdate:
        """Attribute one record to its session and advance the watermark.

        ``row`` is the record's stream row, kept in the session's
        :attr:`~repro.logs.sessionization.Session.rows`; it defaults to
        the number of records observed before this one, which is the
        engine's row numbering too.
        """
        if row is None:
            row = self._observed
        self._observed += 1
        if self._watermark is None or record.timestamp > self._watermark:
            self._watermark = record.timestamp

        closed: list[Session] = []
        key = record.actor_key()
        current = self._open.get(key)
        if current is not None and (record.timestamp - current.end) > self.timeout:
            closed.append(self._open.pop(key))
            current = None

        opened = current is None
        if current is None:
            current = Session(
                session_id=f"s{self._counter}",
                client_ip=record.client_ip,
                user_agent=record.user_agent,
            )
            self._counter += 1
            self._open[key] = current
            current.records.append(record)
            current.rows.append(row)
            index = 0
        elif record.timestamp >= current.end:
            index = len(current.records)
            current.records.append(record)
            current.rows.append(row)
        else:
            # Late arrival within the open session: keep records sorted so
            # rate/interarrival metrics match a batch run over sorted input.
            index = bisect_right(current.records, record.timestamp, key=_timestamp)
            current.records.insert(index, record)
            current.rows.insert(index, row)

        if self._observed % self.eviction_interval == 0:
            closed.extend(self.evict_idle())
        return SessionUpdate(session=current, opened=opened, closed=closed, index=index)

    def evict_idle(self, now: datetime | None = None) -> list[Session]:
        """Close every open session idle for longer than the timeout.

        ``now`` defaults to the watermark; an in-order stream can never
        extend a session whose gap to the watermark exceeds the timeout,
        so eviction is safe (and identical to what the batch scan does).
        """
        now = now or self._watermark
        if now is None:
            return []
        evicted = [
            session for session in self._open.values() if (now - session.end) > self.timeout
        ]
        for session in evicted:
            del self._open[(session.client_ip, session.user_agent)]
        self.sessions_evicted += len(evicted)
        return evicted

    def flush(self) -> list[Session]:
        """Close and return all remaining open sessions (end of stream)."""
        remaining = list(self._open.values())
        self._open.clear()
        return remaining

    def reset(self) -> None:
        """Drop all state (start of a new stream)."""
        self._open.clear()
        self._counter = 0
        self._observed = 0
        self._watermark = None
        self.sessions_evicted = 0
