"""Diurnal (time-of-day) arrival model.

Human traffic to a travel e-commerce site follows a strong daily cycle --
quiet at night, building through the morning, peaking in the evening.
Scrapers, by contrast, run around the clock.  The :class:`DiurnalProfile`
turns a per-day request budget into concrete arrival timestamps following
the chosen cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Sequence

from repro.traffic.draws import WeightedDraw

#: Relative human activity per hour of day (00:00 .. 23:00), roughly the
#: shape observed on European consumer e-commerce sites.
HUMAN_HOURLY_WEIGHTS: Sequence[float] = (
    0.25, 0.15, 0.10, 0.08, 0.08, 0.12, 0.25, 0.45,
    0.70, 0.90, 1.00, 1.05, 1.00, 0.95, 0.95, 1.00,
    1.05, 1.10, 1.20, 1.30, 1.25, 1.05, 0.75, 0.45,
)

#: Flat profile for around-the-clock automation.
FLAT_HOURLY_WEIGHTS: Sequence[float] = tuple(1.0 for _ in range(24))


@dataclass
class DiurnalProfile:
    """Hour-of-day weighting used to place session start times."""

    hourly_weights: Sequence[float] = field(default_factory=lambda: tuple(HUMAN_HOURLY_WEIGHTS))

    def __post_init__(self) -> None:
        if len(self.hourly_weights) != 24:
            raise ValueError("a diurnal profile needs exactly 24 hourly weights")
        if any(weight < 0 for weight in self.hourly_weights):
            raise ValueError("hourly weights must be non-negative")
        if sum(self.hourly_weights) <= 0:
            raise ValueError("at least one hourly weight must be positive")
        self._hours = WeightedDraw(range(24), self.hourly_weights)

    @classmethod
    def human(cls) -> "DiurnalProfile":
        """The default human activity cycle."""
        return cls(tuple(HUMAN_HOURLY_WEIGHTS))

    @classmethod
    def flat(cls) -> "DiurnalProfile":
        """A flat, around-the-clock profile (automation)."""
        return cls(tuple(FLAT_HOURLY_WEIGHTS))

    def random_time_in_day(self, day_start: datetime, rng: random.Random) -> datetime:
        """Draw one timestamp within the day starting at ``day_start``."""
        hour = self._hours.draw(rng)
        second = rng.uniform(0, 3600)
        return day_start + timedelta(hours=hour, seconds=second)

    def sample_times(self, day_start: datetime, count: int, rng: random.Random) -> list[datetime]:
        """Draw ``count`` timestamps within one day, sorted ascending."""
        times = [self.random_time_in_day(day_start, rng) for _ in range(count)]
        times.sort()
        return times
