"""Actor framework for the traffic generator.

An *actor* is anything that issues HTTP requests against the site: a
human visitor, a legitimate crawler or a scraping bot.  Each actor turns
its behaviour profile into a list of :class:`RequestEvent` objects over
the simulated time window; the generator merges all events, orders them
by time and builds a labelled frame of log records from them.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Iterable, Iterator, Sequence

from repro.traffic.draws import WeightedDraw
from repro.traffic.site import SiteModel


@dataclass
class RequestEvent:
    """One HTTP request produced by an actor (pre-log-record form)."""

    timestamp: datetime
    client_ip: str
    method: str
    path: str
    status: int
    response_size: int
    referrer: str
    user_agent: str
    actor_id: str
    actor_class: str
    protocol: str = "HTTP/1.1"


@dataclass
class TimeWindow:
    """The simulated time window (start plus a whole number of days)."""

    start: datetime
    days: int

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("a time window must span at least one day")

    @property
    def end(self) -> datetime:
        """The exclusive end of the window."""
        return self.start + timedelta(days=self.days)

    def day_starts(self) -> list[datetime]:
        """The midnight timestamps of each simulated day."""
        return [self.start + timedelta(days=offset) for offset in range(self.days)]

    def contains(self, timestamp: datetime) -> bool:
        """True when ``timestamp`` falls inside the window."""
        return self.start <= timestamp < self.end

    def clamp(self, timestamp: datetime) -> datetime:
        """Clamp ``timestamp`` into the window (used to keep sessions in range)."""
        if timestamp < self.start:
            return self.start
        if timestamp >= self.end:
            return self.end - timedelta(seconds=1)
        return timestamp


class Actor(abc.ABC):
    """Base class for all traffic-producing actors.

    Subclasses implement :meth:`generate`, which must be deterministic
    given the supplied random generator: the scenario seeds one child
    generator per actor so whole data sets are reproducible.
    """

    #: Actor-class label recorded in the ground truth (overridden by subclasses).
    actor_class: str = "actor"

    def __init__(self, actor_id: str, site: SiteModel):
        self.actor_id = actor_id
        self.site = site

    @abc.abstractmethod
    def generate(self, window: TimeWindow, rng: random.Random) -> list[RequestEvent]:
        """Produce this actor's requests for the whole window."""

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------
    def _event(
        self,
        timestamp: datetime,
        client_ip: str,
        user_agent: str,
        *,
        method: str = "GET",
        path: str,
        status: int,
        size: int,
        referrer: str = "",
    ) -> RequestEvent:
        """Build a :class:`RequestEvent` attributed to this actor."""
        return RequestEvent(
            timestamp=timestamp,
            client_ip=client_ip,
            method=method,
            path=path,
            status=status,
            response_size=size,
            referrer=referrer,
            user_agent=user_agent,
            actor_id=self.actor_id,
            actor_class=self.actor_class,
        )


@dataclass
class ActorPopulation:
    """A named collection of actors, with per-class accounting."""

    actors: list[Actor] = field(default_factory=list)

    def add(self, actor: Actor) -> None:
        """Add one actor to the population."""
        self.actors.append(actor)

    def extend(self, actors: Iterable[Actor]) -> None:
        """Add several actors to the population."""
        self.actors.extend(actors)

    def __len__(self) -> int:
        return len(self.actors)

    def __iter__(self) -> Iterator[Actor]:
        return iter(self.actors)

    def class_counts(self) -> dict[str, int]:
        """Number of actors per actor class."""
        counts: dict[str, int] = {}
        for actor in self.actors:
            counts[actor.actor_class] = counts.get(actor.actor_class, 0) + 1
        return counts


def split_budget(total: int, parts: int, rng: random.Random, *, jitter: float = 0.2) -> list[int]:
    """Split a request budget over ``parts`` actors with multiplicative jitter.

    The returned list sums to approximately ``total`` (exact up to
    rounding); every part is at least 1 when ``total >= parts``.
    """
    if parts <= 0:
        return []
    if total <= 0:
        return [0] * parts
    weights = [max(0.05, 1.0 + rng.uniform(-jitter, jitter)) for _ in range(parts)]
    weight_sum = sum(weights)
    shares = [max(1, round(total * weight / weight_sum)) for weight in weights]
    return shares


def spread_session_starts(
    window: TimeWindow,
    sessions: int,
    rng: random.Random,
    *,
    hourly_weights: Sequence[float] | None = None,
) -> list[datetime]:
    """Draw ``sessions`` start times across the window.

    When ``hourly_weights`` is given, the hour of day follows that profile;
    otherwise starts are uniform over the window.
    """
    starts: list[datetime] = []
    day_starts = window.day_starts()
    hours = None if hourly_weights is None else WeightedDraw(range(24), hourly_weights)
    for _ in range(sessions):
        day_start = rng.choice(day_starts)
        if hours is None:
            offset = rng.uniform(0, 24 * 3600)
            starts.append(day_start + timedelta(seconds=offset))
        else:
            hour = hours.draw(rng)
            starts.append(day_start + timedelta(hours=hour, seconds=rng.uniform(0, 3600)))
    starts.sort()
    return starts
