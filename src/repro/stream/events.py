"""Event and verdict types of the streaming engine.

The streaming engine communicates in three currencies:

* :class:`OnlineVerdict` -- one online detector's immediate decision on
  one request (the streaming counterpart of an
  :class:`~repro.core.alerts.Alert`, but emitted *before* the visitor's
  session is complete, so it may later be refined at session close).
* :class:`RequestVerdict` -- the engine's combined decision for one
  request: every detector's vote plus the (optionally adjudicated)
  ensemble decision.  This is what a production deployment would act on
  (block, challenge, or let through).
* :class:`EngineStats` -- live counters a dashboard or the CLI can poll
  while the stream is running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Mapping, NamedTuple


@dataclass(slots=True)
class OnlineVerdict:
    """One online detector's decision for one request.

    This type intentionally matches the historical
    ``repro.detectors.streaming.StreamingVerdict`` layout so the legacy
    batch-facing adapters can re-export it unchanged.
    """

    request_id: str
    alerted: bool
    reason: str = ""
    score: float = 0.0


class RequestVerdict(NamedTuple):
    """The engine's combined online decision for one request.

    An immutable named tuple: the engine builds one per request, so it
    is kept as cheap to build as a tuple.

    Parameters
    ----------
    request_id, timestamp:
        Identity of the judged request.
    alerted:
        The ensemble decision: the adjudicator's verdict when the engine
        has one, otherwise "any detector alerted".
    votes:
        Each detector's individual :class:`OnlineVerdict`, keyed by
        detector name.
    session_id:
        The live session the request was attributed to.
    """

    request_id: str
    timestamp: datetime
    alerted: bool
    votes: Mapping[str, OnlineVerdict]
    session_id: str = ""

    @property
    def vote_count(self) -> int:
        """Number of detectors alerting on this request."""
        return sum(1 for verdict in self.votes.values() if verdict.alerted)

    def reasons(self) -> tuple[str, ...]:
        """The non-empty reasons of the alerting detectors."""
        return tuple(
            verdict.reason for verdict in self.votes.values() if verdict.alerted and verdict.reason
        )


@dataclass
class EngineStats:
    """Live counters maintained by the engine while the stream runs."""

    records: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    #: Requests each detector has alerted on *online* (provisional votes).
    online_alerts: dict[str, int] = field(default_factory=dict)
    #: Requests the ensemble (adjudicated when configured) alerted on.
    ensemble_alerts: int = 0
    #: Wall-clock seconds spent inside the engine (processing only).
    busy_seconds: float = 0.0

    def records_per_second(self) -> float:
        """Observed processing throughput (0.0 before any work was done)."""
        if self.busy_seconds <= 0.0:
            return 0.0
        return self.records / self.busy_seconds

    def as_dict(self) -> dict[str, object]:
        """A JSON-friendly snapshot (used by the CLI progress output)."""
        return {
            "records": self.records,
            "sessions_open": self.sessions_opened - self.sessions_closed,
            "sessions_closed": self.sessions_closed,
            "online_alerts": dict(self.online_alerts),
            "ensemble_alerts": self.ensemble_alerts,
        }
