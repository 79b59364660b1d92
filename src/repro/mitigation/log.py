"""The enforcement log.

Where the streaming engine's verdict stream answers "what did we
*think*?", the enforcement log answers "what did we *do*?".  One
:class:`EnforcementRecord` is appended per handled request; the
:class:`EnforcementLog` offers the aggregations the Table-5-style report
and the live CLI output are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterator

from repro.mitigation.actions import Action, is_served


@dataclass(frozen=True)
class EnforcementRecord:
    """What the gateway did with one request."""

    request_id: str
    timestamp: datetime
    client_ip: str
    visitor_key: str
    action: Action
    #: Name of the rule / mechanism behind the action.
    reason: str
    #: The adjudicated ensemble verdict the action was based on.
    alerted: bool
    delay_seconds: float = 0.0
    #: Challenge outcome (``None`` unless ``action`` is ``CHALLENGE``).
    challenge_passed: bool | None = None
    #: Size the response would have had (the bytes a denial saves).
    response_size: int = 0

    @property
    def served(self) -> bool:
        """True when the request was actually served to the client."""
        return is_served(self.action, self.challenge_passed)

    @property
    def denied(self) -> bool:
        """True when the request was rejected (including failed challenges)."""
        return not self.served


@dataclass
class EnforcementLog:
    """Append-only record of every enforcement decision of a run."""

    records: list[EnforcementRecord] = field(default_factory=list)

    def append(self, record: EnforcementRecord) -> None:
        """Append one enforcement record."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[EnforcementRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------
    def action_counts(self) -> dict[str, int]:
        """Requests per enforcement action (all actions present, even at 0)."""
        counts = {action.value: 0 for action in Action}
        for record in self.records:
            counts[record.action.value] += 1
        return counts

    def served_count(self) -> int:
        """Requests that were actually served."""
        return sum(1 for record in self.records if record.served)

    def denied_count(self) -> int:
        """Requests rejected outright or behind a failed challenge."""
        return sum(1 for record in self.records if record.denied)

    def challenge_counts(self) -> tuple[int, int]:
        """(passed, failed) challenge outcomes."""
        passed = sum(1 for r in self.records if r.challenge_passed is True)
        failed = sum(1 for r in self.records if r.challenge_passed is False)
        return passed, failed

    def bytes_saved(self) -> int:
        """Response bytes never served because the request was denied."""
        return sum(record.response_size for record in self.records if record.denied)

    def summary(self) -> dict[str, object]:
        """A JSON-friendly aggregate snapshot (used by the CLI)."""
        passed, failed = self.challenge_counts()
        return {
            "requests": len(self.records),
            "served": self.served_count(),
            "denied": self.denied_count(),
            "actions": self.action_counts(),
            "challenges_passed": passed,
            "challenges_failed": failed,
            "bytes_saved": self.bytes_saved(),
        }
