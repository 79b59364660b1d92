"""Rule-based heuristic detection.

In-house scraping detectors are typically transparent rule engines: a set
of operational heuristics, each encoding one observation the security team
made about scraper behaviour ("nobody legitimate makes 50 search requests
a minute", "browsers load stylesheets", "humans don't generate 10% 400s").
This module provides the rule engine plus the individual rules; the
Arcane-like composite in :mod:`repro.detectors.inhouse` is a particular
configuration of it.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.detectors.base import SessionDetector
from repro.traffic.ipspace import IPPool, IPSpace
from repro.traffic.useragents import is_known_crawler_agent, is_scripted_agent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import SessionVerdicts


class Rule(abc.ABC):
    """One heuristic rule evaluated against every session of a frame."""

    #: Short rule name (shows up as an alert reason prefix).
    name: str = "rule"

    @abc.abstractmethod
    def matches_frame(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> list[str | None]:
        """Evaluate the rule for every session of a frame at once.

        Returns one entry per session: a human-readable reason when the
        rule fires, else ``None``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}()"


class RateRule(Rule):
    """Sessions faster than a human could sustain.

    The rule fires on either the session's average rate or its busiest
    one-minute window (:meth:`~repro.columns.features.FeatureMatrix.peak_rpm`),
    so bursty scrapers cannot hide behind long idle gaps.
    """

    name = "session-rate"

    def __init__(self, threshold_rpm: float = 30.0, min_requests: int = 10):
        if threshold_rpm <= 0:
            raise ValueError("threshold_rpm must be positive")
        self.threshold_rpm = threshold_rpm
        self.min_requests = min_requests

    def matches_frame(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> list[str | None]:
        out: list[str | None] = [None] * len(features)
        eligible = features.sessions_with(self.min_requests)
        if not eligible:
            return out
        rates = features.column("requests_per_minute")
        peaks = features.peak_rpm()
        threshold = self.threshold_rpm
        for index in eligible:
            rate = float(rates[index])
            if rate > threshold:
                out[index] = f"{self.name}: {rate:.0f} req/min > {threshold:.0f}"
                continue
            peak = float(peaks[index])
            if peak > threshold:
                out[index] = f"{self.name}: peak {peak:.0f} req/min > {threshold:.0f}"
        return out


class ScriptedAgentRule(Rule):
    """Obvious scripted-client user agents (requests/curl/Scrapy/...)."""

    name = "scripted-agent"

    def matches_frame(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> list[str | None]:
        # The verdict depends only on the user-agent string: evaluate it
        # once per distinct agent and gather per session.
        per_agent = frame.table_values(
            ("scripted_agent_reason", self.name), frame.tables["user_agent"], self._reason
        )
        return [per_agent[code] for code in sessions.agent_codes.tolist()]

    def _reason(self, agent: str) -> str | None:
        if is_scripted_agent(agent):
            return f"{self.name}: {agent.split('/')[0]}"
        if not agent.strip():
            return f"{self.name}: empty user agent"
        return None


class ErrorProbeRule(Rule):
    """Sessions that probe the application's error space.

    Scrapers that map an API or fuzz query parameters leave a trail of
    400/404 responses, empty ``204`` responses and HEAD probes at rates no
    organic visitor produces.  The application's own tracking beacons also
    answer ``204``, so paths matching ``tracking_path_markers`` are
    excluded from the 204 computation -- an in-house tool knows its own
    telemetry endpoints.
    """

    name = "error-probe"

    def __init__(
        self,
        *,
        min_requests: int = 8,
        error_rate_threshold: float = 0.04,
        no_content_threshold: float = 0.06,
        head_threshold: float = 0.08,
        tracking_path_markers: Sequence[str] = ("/track", "/beacon", "/pixel"),
    ) -> None:
        self.min_requests = min_requests
        self.error_rate_threshold = error_rate_threshold
        self.no_content_threshold = no_content_threshold
        self.head_threshold = head_threshold
        self.tracking_path_markers = tuple(tracking_path_markers)

    def _is_tracking_path(self, path: str) -> bool:
        lowered = path.lower()
        return any(marker in lowered for marker in self.tracking_path_markers)

    def matches_frame(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> list[str | None]:
        out: list[str | None] = [None] * len(features)
        eligible = features.sessions_with(self.min_requests)
        if not eligible:
            return out
        error_rate = features.column("error_rate")
        head_fraction = features.column("head_fraction")

        # 204 fraction over non-tracking paths: tracking status is a
        # property of the (distinct) URL path; both counts are one
        # stacked segment sum over the rows in session order.
        tracking_table = frame.table_flags(
            ("tracking_path", self.tracking_path_markers),
            frame.url_path_table(),
            self._is_tracking_path,
        )
        url_path_codes, statuses = sessions.grouped(frame.url_path_codes(), frame.statuses)
        relevant = ~tracking_table[url_path_codes]
        no_content_hits = relevant & (statuses == 204)
        relevant_counts, no_content_counts = np.add.reduceat(
            np.array([relevant, no_content_hits]), sessions.starts[:-1], axis=1, dtype=np.int64
        ).tolist()

        for index in eligible:
            rate = float(error_rate[index])
            if rate >= self.error_rate_threshold:
                out[index] = f"{self.name}: error rate {rate:.1%}"
                continue
            relevant_count = relevant_counts[index]
            no_content = no_content_counts[index] / relevant_count if relevant_count else 0.0
            if no_content >= self.no_content_threshold:
                out[index] = f"{self.name}: 204 fraction {no_content:.1%}"
                continue
            head = float(head_fraction[index])
            if head >= self.head_threshold:
                out[index] = f"{self.name}: HEAD fraction {head:.1%}"
        return out


class RobotsNoAssetRule(Rule):
    """Crawler-shaped sessions that are not verified crawlers.

    Fetching ``robots.txt`` while never loading a stylesheet or image is
    crawler behaviour; when the visitor is not one of the verified search
    engines it is almost certainly a scraper seeding its crawl.
    """

    name = "robots-no-assets"

    def __init__(self, *, min_requests: int = 10, asset_threshold: float = 0.02):
        self.min_requests = min_requests
        self.asset_threshold = asset_threshold

    def matches_frame(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> list[str | None]:
        out: list[str | None] = [None] * len(features)
        robots_hits = features.column("robots_hits")
        asset_fraction = features.column("asset_fraction")
        for index in features.sessions_with(self.min_requests):
            assets = float(asset_fraction[index])
            if robots_hits[index] > 0 and assets <= self.asset_threshold:
                out[index] = f"{self.name}: robots.txt fetched, {assets:.1%} assets"
        return out


class PathRepetitionRule(Rule):
    """The same resource hammered repeatedly within one session."""

    name = "path-repetition"

    def __init__(self, *, min_requests: int = 20, repetition_threshold: float = 8.0):
        self.min_requests = min_requests
        self.repetition_threshold = repetition_threshold

    def matches_frame(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> list[str | None]:
        out: list[str | None] = [None] * len(features)
        counts = features.counts
        unique = features.unique_paths
        for index in features.sessions_with(self.min_requests):
            repetition = float(counts[index] / unique[index])
            if repetition >= self.repetition_threshold:
                out[index] = f"{self.name}: {repetition:.1f} requests per distinct path"
        return out


class HeuristicRuleDetector(SessionDetector):
    """A rule engine: a session is alerted when any rule fires.

    Verified crawlers (well-known crawler user agent from the operator's
    published IP range) are whitelisted before the rules run, as every
    operations team does to avoid alert noise from Googlebot.
    """

    #: Rules judge one session at a time (the Rule contract), so
    #: hash-sharding by IP -- which keeps sessions whole -- is safe.
    frame_shardable = True

    def __init__(
        self,
        rules: Sequence[Rule],
        *,
        name: str = "heuristic-rules",
        whitelist_verified_crawlers: bool = True,
        crawler_pool: IPPool | None = None,
    ) -> None:
        if not rules:
            raise ValueError("a rule detector needs at least one rule")
        self.name = name
        self.rules = list(rules)
        self.whitelist_verified_crawlers = whitelist_verified_crawlers
        self.crawler_pool = crawler_pool or IPSpace().crawler

    def whitelisted_sessions(
        self, frame: "RecordFrame", sessions: "FrameSessions"
    ) -> np.ndarray:
        """Per-session flags: verified, well-known crawler sessions.

        Only sessions whose agent claims a crawler have their client IP
        checked against the pool; each IP's answer is memoised with the
        frame's tables, so a stream engine checks an IP once.
        """
        flags = np.zeros(len(sessions), dtype=bool)
        if not self.whitelist_verified_crawlers:
            return flags
        crawler_table = frame.table_flags(
            "crawler_agent", frame.tables["user_agent"], is_known_crawler_agent
        )
        claimed = crawler_table[sessions.agent_codes].nonzero()[0].tolist()
        if claimed:
            pool = self.crawler_pool
            ips = frame.tables["client_ip"]
            verified = frame.table_memo(("verified_crawler", tuple(pool.cidrs)))
            ip_codes = sessions.ip_codes
            for index in claimed:
                ip_code = int(ip_codes[index])
                flag = verified.get(ip_code)
                if flag is None:
                    flag = verified[ip_code] = pool.contains(ips[ip_code])
                flags[index] = flag
        return flags

    def session_verdicts(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "SessionVerdicts":
        """Per-session rule verdicts.

        More independent rules firing means higher confidence: one rule
        scores 0.6, each further rule adds 0.2 (capped at 1.0).
        """
        from repro.columns.alertframe import ReasonEncoder, SessionVerdicts

        per_rule = [rule.matches_frame(frame, sessions, features) for rule in self.rules]
        whitelisted = self.whitelisted_sessions(frame, sessions).tolist()
        n_sessions = len(sessions)
        flags = np.zeros(n_sessions, dtype=bool)
        scores = np.zeros(n_sessions, dtype=np.float64)
        codes = np.full(n_sessions, -1, dtype=np.int64)
        encoder = ReasonEncoder()
        for index, fired in enumerate(zip(*per_rule)):
            if whitelisted[index]:
                continue
            reasons = tuple(reason for reason in fired if reason is not None)
            if not reasons:
                continue
            flags[index] = True
            scores[index] = min(1.0, 0.6 + 0.2 * (len(reasons) - 1))
            codes[index] = encoder.code(reasons)
        return SessionVerdicts(flags, scores, codes, encoder.table)
