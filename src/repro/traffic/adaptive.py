"""Adaptive attacker models for the closed-loop simulation.

The scripted scraper families in :mod:`repro.traffic.scrapers` decide
their whole trace before the first request is sent, so an enforcement
gateway defeats them trivially: once their IP is blocked, every further
request bounces off the edge.  Real campaigns are not that polite.  An
:class:`AdaptiveScraperNode` plays the evasion game the literature (and
the paper's "commercial tools see an arms race" discussion) describes:

* **identity rotation** -- after being blocked (or failing a challenge)
  the node moves to a fresh exit IP and a fresh spoofed user agent,
  resetting every per-visitor signal the defense keyed on;
* **session splitting** -- rotation comes with a lie-low pause long
  enough for the old session to time out, so the behavioural detectors
  meet a brand-new session instead of a continuation;
* **rate backoff** -- throttling is interpreted as "you are above a
  threshold": the node multiplies its inter-request gap and only creeps
  back up while requests flow freely.

Each evasion has a cost the Table-5-style report accounts for: rotations
burn proxy capacity, backoff burns time, and a node that exhausts its
identity pool gives up entirely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta

from repro.traffic.actors import RequestEvent, TimeWindow, split_budget
from repro.traffic.draws import WeightedDraw
from repro.traffic.ipspace import IPSpace
from repro.traffic.site import SiteModel
from repro.traffic.stepping import Feedback, SteppedActor, SteppedPopulation
from repro.traffic.useragents import UserAgentCatalog

#: Endpoint mix of a price-scraping node (same targets as the scripted
#: :class:`~repro.traffic.scrapers.AggressiveScraper`).
_SCRAPE_ENDPOINTS = WeightedDraw(
    ("search", "offer", "price_api", "availability"), (38, 40, 14, 8)
)


class AdaptiveScraperNode(SteppedActor):
    """A price-scraping node that reacts to enforcement feedback.

    Parameters
    ----------
    site, ip_space, agents:
        The shared world models (requests, exit addresses, identities).
    request_budget:
        Requests the node wants to land (served or not, emission stops
        once the budget is spent or the node gives up).
    requests_per_minute:
        Initial request rate; throttling feedback backs it off.
    identities:
        Size of the node's proxy/identity pool, counting the identity it
        starts with: an ``n``-identity node can rotate ``n - 1`` times
        and gives up at the first denial after its pool is exhausted.
    challenge_skill:
        Probability of solving a challenge (headless browsers with a
        solver service have a non-zero but mediocre success rate).
    backoff_factor / recovery_factor:
        Gap multiplier applied on throttle feedback, and the per-served-
        request decay back towards the original pace.
    """

    actor_class = "adaptive_scraper"

    def __init__(
        self,
        actor_id: str,
        site: SiteModel,
        *,
        ip_space: IPSpace,
        agents: UserAgentCatalog,
        request_budget: int = 4_000,
        requests_per_minute: float = 90.0,
        identities: int = 8,
        challenge_skill: float = 0.25,
        backoff_factor: float = 1.8,
        recovery_factor: float = 0.98,
        min_lie_low_seconds: float = 35 * 60.0,
        max_lie_low_seconds: float = 90 * 60.0,
    ) -> None:
        super().__init__(actor_id)
        if identities < 1:
            raise ValueError("an adaptive node needs at least one identity")
        if not 0.0 <= challenge_skill <= 1.0:
            raise ValueError("challenge_skill must be within [0, 1]")
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be at least 1.0")
        self.site = site
        self.ip_space = ip_space
        self.agents = agents
        self.request_budget = max(30, request_budget)
        self.requests_per_minute = max(10.0, requests_per_minute)
        self.identities = identities
        self.challenge_skill = challenge_skill
        self.backoff_factor = backoff_factor
        self.recovery_factor = recovery_factor
        self.min_lie_low_seconds = min_lie_low_seconds
        self.max_lie_low_seconds = max_lie_low_seconds
        # Campaign-cost accounting, read by the mitigation metrics.
        self.rotations = 0
        self.gave_up = False
        self.produced = 0

    # ------------------------------------------------------------------
    def begin(self, window: TimeWindow, rng: random.Random) -> None:
        self._window = window
        self._rng = rng
        self.rotations = 0
        self.gave_up = False
        self.produced = 0
        self._slowdown = 1.0
        self._client_ip = self.ip_space.datacenter.random_address(rng)
        self._user_agent = self.agents.random_browser(rng)
        # Nodes do not all start at midnight; stagger over the first hours.
        offset = rng.uniform(0, min(6 * 3600.0, window.days * 86_400.0 / 4))
        self._next_time: datetime | None = window.start + timedelta(seconds=offset)

    def peek(self) -> datetime | None:
        if self.gave_up or self.produced >= self.request_budget:
            return None
        if self._next_time is None or self._next_time >= self._window.end:
            return None
        return self._next_time

    def emit(self) -> RequestEvent:
        rng = self._rng
        endpoint = _SCRAPE_ENDPOINTS.draw(rng)
        path = self.site.build_path(endpoint, rng)
        status, size = self.site.respond(endpoint, rng)
        event = RequestEvent(
            timestamp=self._next_time,
            client_ip=self._client_ip,
            method="GET",
            path=path,
            status=status,
            response_size=size,
            referrer="",
            user_agent=self._user_agent,
            actor_id=self.actor_id,
            actor_class=self.actor_class,
        )
        self.produced += 1
        gap = (60.0 / self.requests_per_minute) * self._slowdown
        self._next_time = self._next_time + timedelta(
            seconds=max(0.05, rng.gauss(gap, gap * 0.1))
        )
        return event

    def solve_challenge(self, rng: random.Random) -> bool:
        return rng.random() < self.challenge_skill

    # ------------------------------------------------------------------
    def feedback(self, event: RequestEvent, feedback: Feedback, rng: random.Random) -> None:
        if feedback.denied:
            self._rotate_or_give_up(rng)
        elif feedback.action == "throttle":
            # Read throttling as "slow down until the pressure stops".
            self._slowdown = min(16.0, self._slowdown * self.backoff_factor)
        elif feedback.served:
            # Creep back towards the intended pace while nothing pushes back.
            self._slowdown = max(1.0, self._slowdown * self.recovery_factor)

    def _rotate_or_give_up(self, rng: random.Random) -> None:
        if self.rotations + 1 >= self.identities:
            self.gave_up = True
            self._next_time = None
            return
        self.rotations += 1
        self._client_ip = self.ip_space.datacenter.random_address(rng)
        self._user_agent = self.agents.random_browser(rng)
        self._slowdown = max(1.0, self._slowdown * 0.75)
        # Lie low long enough for the blocked session to time out, so the
        # fresh identity also starts a fresh behavioural slate.
        if self._next_time is not None:
            self._next_time = self._next_time + timedelta(
                seconds=rng.uniform(self.min_lie_low_seconds, self.max_lie_low_seconds)
            )


@dataclass
class AdaptiveCampaign:
    """A fleet of adaptive scraping nodes sharing one request budget."""

    name: str
    total_requests: int
    nodes: int
    identities_per_node: int = 8
    challenge_skill: float = 0.25

    def __post_init__(self) -> None:
        if self.total_requests < 0:
            raise ValueError("total_requests must be non-negative")
        if self.nodes <= 0:
            raise ValueError("a campaign needs at least one node")

    def build_actors(
        self,
        site: SiteModel,
        ip_space: IPSpace,
        agents: UserAgentCatalog,
        rng: random.Random,
    ) -> list[AdaptiveScraperNode]:
        """Instantiate the campaign's nodes as adaptive stepped actors."""
        budgets = split_budget(self.total_requests, self.nodes, rng)
        return [
            AdaptiveScraperNode(
                f"{self.name}-node{index}",
                site,
                ip_space=ip_space,
                agents=agents,
                request_budget=budget,
                requests_per_minute=rng.uniform(45, 200),
                identities=self.identities_per_node,
                challenge_skill=self.challenge_skill,
            )
            for index, budget in enumerate(budgets)
        ]

    def build_population(
        self,
        site: SiteModel,
        ip_space: IPSpace,
        agents: UserAgentCatalog,
        rng: random.Random,
    ) -> SteppedPopulation:
        """The campaign's nodes as a stand-alone stepped population."""
        population = SteppedPopulation()
        population.extend(self.build_actors(site, ip_space, agents, rng))
        return population
