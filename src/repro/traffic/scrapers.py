"""Malicious scraper behaviour models.

Three scraper families are modelled, chosen to reproduce the coverage
asymmetries the paper observed between the commercial and the in-house
tool (see DESIGN.md §5):

* :class:`AggressiveScraper` -- classic price-scraping botnet nodes.
  High request rates from datacenter IPs, half of them with scripted
  user agents, no asset loading.  Both tools detect these; they are the
  bulk of the paper's "alerted by both" mass.
* :class:`StealthScraper` -- paced, browser-impersonating scrapers behind
  residential proxies.  Their request *rates* and headers look human, but
  their session behaviour (no assets, no beacons, machine-regular timing,
  exhaustive coverage of offer pages) betrays them to a behavioural
  detector while rule thresholds miss them.  These produce the
  "commercial-only" mass (dominated by status 200/302).
* :class:`ProbingScraper` -- reconnaissance scrapers mapping the pricing
  API.  They blend in behaviourally (some assets, referrers, irregular
  timing) but leave a tell-tale trail of 204/400/304 responses and HEAD
  probes that rule-based error/probe heuristics catch.  These produce the
  "in-house-only" mass, rich in 204/400/304 -- exactly the asymmetry of
  the paper's Table 4.
"""

from __future__ import annotations

import random
from datetime import timedelta

from repro.traffic.actors import Actor, RequestEvent, TimeWindow, spread_session_starts
from repro.traffic.draws import WeightedDraw
from repro.traffic.site import SiteModel

# Each scraper's endpoint mix.
_AGGRESSIVE_ENDPOINTS = WeightedDraw(
    ("search", "offer", "price_api", "availability"), (38, 40, 14, 8)
)
_STEALTH_ENDPOINTS = WeightedDraw(("search", "offer", "price_api"), (30, 58, 12))
_PROBING_ENDPOINTS = WeightedDraw(("offer", "search", "price_api"), (52, 34, 14))

SITE_ORIGIN = "https://shop.example.com"


class AggressiveScraper(Actor):
    """A price-scraping botnet node hammering search and offer pages."""

    actor_class = "aggressive_scraper"

    def __init__(
        self,
        actor_id: str,
        site: SiteModel,
        *,
        client_ip: str,
        user_agent: str,
        request_budget: int = 12_000,
        requests_per_minute: float = 90.0,
    ) -> None:
        super().__init__(actor_id, site)
        self.client_ip = client_ip
        self.user_agent = user_agent
        self.request_budget = max(50, request_budget)
        self.requests_per_minute = max(35.0, requests_per_minute)

    def generate(self, window: TimeWindow, rng: random.Random) -> list[RequestEvent]:
        events: list[RequestEvent] = []
        # The node scrapes in bursts around the clock; size each burst from
        # the configured rate and spread bursts uniformly over the window.
        burst_size = max(40, int(self.requests_per_minute * rng.uniform(2.0, 5.0)))
        bursts = max(1, -(-self.request_budget // burst_size))  # ceil division
        starts = spread_session_starts(window, bursts, rng)
        produced = 0
        for start in starts:
            if produced >= self.request_budget:
                break
            now = window.clamp(start)
            this_burst = min(burst_size, self.request_budget - produced)
            gap = 60.0 / self.requests_per_minute
            for _ in range(this_burst):
                endpoint = _AGGRESSIVE_ENDPOINTS.draw(rng)
                path = self.site.build_path(endpoint, rng)
                malformed = rng.random() < 0.0015
                status, size = self.site.respond(endpoint, rng, malformed=malformed)
                events.append(
                    self._event(
                        now,
                        self.client_ip,
                        self.user_agent,
                        path=path,
                        status=status,
                        size=size,
                        referrer="",
                    )
                )
                produced += 1
                # Machine-fast, near-constant pacing.
                now += timedelta(seconds=max(0.05, rng.gauss(gap, gap * 0.1)))
        return events


class StealthScraper(Actor):
    """A paced, browser-impersonating scraper behind rotating proxy IPs."""

    actor_class = "stealth_scraper"

    def __init__(
        self,
        actor_id: str,
        site: SiteModel,
        *,
        client_ips: list[str],
        user_agent: str,
        request_budget: int = 2_000,
        requests_per_minute: float = 8.0,
        evasive_fraction: float = 0.1,
    ) -> None:
        super().__init__(actor_id, site)
        if not client_ips:
            raise ValueError("a stealth scraper needs at least one client IP")
        self.client_ips = client_ips
        self.user_agent = user_agent
        self.request_budget = max(30, request_budget)
        self.requests_per_minute = min(max(2.0, requests_per_minute), 20.0)
        self.evasive_fraction = evasive_fraction

    def generate(self, window: TimeWindow, rng: random.Random) -> list[RequestEvent]:
        events: list[RequestEvent] = []
        session_size = max(25, int(self.requests_per_minute * rng.uniform(6, 12)))
        sessions = max(1, -(-self.request_budget // session_size))  # ceil division
        starts = spread_session_starts(window, sessions, rng)
        produced = 0
        for index, start in enumerate(starts):
            if produced >= self.request_budget:
                break
            now = window.clamp(start)
            client_ip = self.client_ips[index % len(self.client_ips)]
            this_session = min(session_size, self.request_budget - produced)
            # A small share of sessions actively mimic humans (load assets,
            # jitter their timing); these evade the behavioural model too
            # and end up detected by neither tool.
            evasive = rng.random() < self.evasive_fraction
            gap = 60.0 / self.requests_per_minute
            current_page = "/search"
            for step in range(this_session):
                endpoint = _STEALTH_ENDPOINTS.draw(rng)
                path = self.site.build_path(endpoint, rng)
                status, size = self.site.respond(endpoint, rng)
                referrer = f"{SITE_ORIGIN}{current_page}" if (evasive or rng.random() < 0.1) else ""
                events.append(
                    self._event(
                        now,
                        client_ip,
                        self.user_agent,
                        path=path,
                        status=status,
                        size=size,
                        referrer=referrer,
                    )
                )
                produced += 1
                current_page = path.split("?")[0]
                if evasive and rng.random() < 0.3:
                    asset = rng.choice(["asset_css", "asset_img"])
                    astatus, asize = self.site.respond(asset, rng)
                    events.append(
                        self._event(
                            now + timedelta(seconds=rng.uniform(0.2, 1.0)),
                            client_ip,
                            self.user_agent,
                            path=self.site.build_path(asset, rng, item_id=rng.randrange(40)),
                            status=astatus,
                            size=asize,
                            referrer=f"{SITE_ORIGIN}{current_page}",
                        )
                    )
                    produced += 1
                if evasive:
                    # Human-like, irregular pacing.
                    now += timedelta(seconds=rng.uniform(3.0, 45.0))
                else:
                    # Paced but machine-regular: the behavioural tell.
                    now += timedelta(seconds=max(0.5, rng.gauss(gap, gap * 0.05)))
        return events


class ProbingScraper(Actor):
    """A reconnaissance scraper mapping the pricing API and its error space."""

    actor_class = "probing_scraper"

    def __init__(
        self,
        actor_id: str,
        site: SiteModel,
        *,
        client_ip: str,
        user_agent: str,
        request_budget: int = 900,
        requests_per_minute: float = 10.0,
    ) -> None:
        super().__init__(actor_id, site)
        self.client_ip = client_ip
        self.user_agent = user_agent
        self.request_budget = max(30, request_budget)
        self.requests_per_minute = min(max(3.0, requests_per_minute), 24.0)

    def generate(self, window: TimeWindow, rng: random.Random) -> list[RequestEvent]:
        events: list[RequestEvent] = []
        session_size = max(20, int(self.requests_per_minute * rng.uniform(4, 9)))
        sessions = max(1, -(-self.request_budget // session_size))  # ceil division
        starts = spread_session_starts(window, sessions, rng)
        produced = 0
        current_page = "/"
        for start in starts:
            if produced >= self.request_budget:
                break
            now = window.clamp(start)
            this_session = min(session_size, self.request_budget - produced)
            for _ in range(this_session):
                roll = rng.random()
                referrer = f"{SITE_ORIGIN}{current_page}" if rng.random() < 0.55 else ""
                if roll < 0.12:
                    # Probe the API with fabricated parameters -> 204 heavy.
                    endpoint = "availability"
                    path = self.site.build_path(endpoint, rng)
                    status, size = self.site.respond(endpoint, rng)
                    if rng.random() < 0.55:
                        status, size = 204, 0
                    method = "GET"
                elif roll < 0.17:
                    # Malformed parameter fuzzing -> 400.
                    endpoint = rng.choice(["search", "price_api"])
                    path = self.site.build_path(endpoint, rng, query=self.site.malformed_query(rng))
                    status, size = self.site.respond(endpoint, rng, malformed=True)
                    method = "GET"
                elif roll < 0.21:
                    # HEAD probes and conditional re-checks -> 304 / empty 200.
                    endpoint = rng.choice(["offer", "asset_js"])
                    conditional = rng.random() < 0.4
                    path = self.site.build_path(endpoint, rng)
                    status, size = self.site.respond(endpoint, rng, conditional=conditional)
                    method = "HEAD" if not conditional else "GET"
                    if method == "HEAD":
                        size = 0
                elif roll < 0.24:
                    # Occasional asset fetch keeps the session looking browser-like.
                    endpoint = rng.choice(["asset_css", "asset_img"])
                    path = self.site.build_path(endpoint, rng, item_id=rng.randrange(40))
                    status, size = self.site.respond(endpoint, rng)
                    method = "GET"
                else:
                    # Ordinary-looking offer/search traffic.
                    endpoint = _PROBING_ENDPOINTS.draw(rng)
                    path = self.site.build_path(endpoint, rng)
                    status, size = self.site.respond(endpoint, rng)
                    method = "GET"
                events.append(
                    self._event(
                        now,
                        self.client_ip,
                        self.user_agent,
                        method=method,
                        path=path,
                        status=status,
                        size=size,
                        referrer=referrer,
                    )
                )
                produced += 1
                current_page = path.split("?")[0]
                # Irregular, human-ish pacing (the behavioural model's blind spot).
                now += timedelta(seconds=rng.uniform(1.5, 14.0))
        return events
