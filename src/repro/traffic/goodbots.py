"""Legitimate bot behaviour models.

Two kinds of benign automation visit the site:

* **Search-engine crawlers** (Googlebot and friends): polite crawlers that
  fetch ``robots.txt``, walk the public pages at a modest, rate-limited
  pace from their operators' well-known IP ranges and never execute
  JavaScript (so no beacons, few assets).
* **Monitoring bots** (Pingdom/UptimeRobot style): hit a couple of
  endpoints every few minutes from a fixed set of probe IPs.

Both are labelled benign; how detectors treat them is an interesting part
of the diversity analysis (a rule engine that does not verify crawler
identity will alert on them, a commercial tool usually whitelists them).
"""

from __future__ import annotations

import random
from datetime import timedelta

from repro.traffic.actors import Actor, RequestEvent, TimeWindow, spread_session_starts
from repro.traffic.draws import WeightedDraw
from repro.traffic.site import SiteModel

#: The crawler's page mix.
_CRAWL_ENDPOINTS = WeightedDraw(("home", "search", "offer"), (10, 30, 60))


class SearchEngineCrawler(Actor):
    """A polite, verified search-engine crawler."""

    actor_class = "search_crawler"

    def __init__(
        self,
        actor_id: str,
        site: SiteModel,
        *,
        client_ip: str,
        user_agent: str,
        request_budget: int = 600,
    ) -> None:
        super().__init__(actor_id, site)
        self.client_ip = client_ip
        self.user_agent = user_agent
        self.request_budget = max(10, request_budget)

    def generate(self, window: TimeWindow, rng: random.Random) -> list[RequestEvent]:
        events: list[RequestEvent] = []
        # The crawler visits in several crawl waves spread over the window.
        waves = max(2, min(window.days * 2, self.request_budget // 50))
        starts = spread_session_starts(window, waves, rng)
        per_wave = max(5, self.request_budget // waves)
        for start in starts:
            now = window.clamp(start)
            # Every wave begins with robots.txt, as a polite crawler should.
            status, size = self.site.respond("robots", rng)
            events.append(
                self._event(now, self.client_ip, self.user_agent, path="/robots.txt", status=status, size=size)
            )
            now += timedelta(seconds=rng.uniform(1.0, 4.0))
            if rng.random() < 0.5:
                status, size = self.site.respond("sitemap", rng)
                events.append(
                    self._event(now, self.client_ip, self.user_agent, path="/sitemap.xml", status=status, size=size)
                )
                now += timedelta(seconds=rng.uniform(1.0, 4.0))
            for _ in range(per_wave):
                if len(events) >= self.request_budget:
                    break
                endpoint = _CRAWL_ENDPOINTS.draw(rng)
                conditional = rng.random() < 0.12  # crawlers re-validate known pages
                path = self.site.build_path(endpoint, rng)
                status, size = self.site.respond(endpoint, rng, conditional=conditional)
                if conditional:
                    status, size = 304, 0
                events.append(
                    self._event(now, self.client_ip, self.user_agent, path=path, status=status, size=size)
                )
                # Polite crawl delay of a few seconds keeps the rate low.
                now += timedelta(seconds=rng.uniform(3.0, 12.0))
        return events


class MonitoringBot(Actor):
    """An uptime-monitoring probe hitting the site on a fixed cadence."""

    actor_class = "monitoring_bot"

    def __init__(
        self,
        actor_id: str,
        site: SiteModel,
        *,
        client_ip: str,
        user_agent: str,
        interval_minutes: int = 15,
    ) -> None:
        super().__init__(actor_id, site)
        self.client_ip = client_ip
        self.user_agent = user_agent
        self.interval_minutes = max(1, interval_minutes)

    def generate(self, window: TimeWindow, rng: random.Random) -> list[RequestEvent]:
        events: list[RequestEvent] = []
        now = window.start + timedelta(seconds=rng.uniform(0, 60))
        while now < window.end:
            # A probe is a HEAD to the home page, occasionally a GET.
            use_head = rng.random() < 0.7
            status, size = self.site.respond("home", rng)
            if use_head:
                size = 0
            events.append(
                self._event(
                    now,
                    self.client_ip,
                    self.user_agent,
                    method="HEAD" if use_head else "GET",
                    path="/",
                    status=status,
                    size=size,
                )
            )
            now += timedelta(minutes=self.interval_minutes, seconds=rng.uniform(-20, 20))
        return events
