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

from repro.detectors.base import Detector
from repro.traffic.ipspace import IPPool, IPSpace
from repro.traffic.useragents import is_known_crawler_agent, is_scripted_agent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts


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
        eligible = features.counts >= self.min_requests
        if not eligible.any():
            return out
        rates = features.column("requests_per_minute")
        average_fired = eligible & (rates > self.threshold_rpm)
        peaks = features.peak_rpm()
        peak_fired = eligible & ~average_fired & (peaks > self.threshold_rpm)
        for index in np.flatnonzero(average_fired).tolist():
            out[index] = (
                f"{self.name}: {float(rates[index]):.0f} req/min > {self.threshold_rpm:.0f}"
            )
        for index in np.flatnonzero(peak_fired).tolist():
            out[index] = (
                f"{self.name}: peak {float(peaks[index]):.0f} req/min > {self.threshold_rpm:.0f}"
            )
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
        n = len(features)
        eligible = features.counts >= self.min_requests
        if not eligible.any():
            return [None] * n
        error_rate = features.column("error_rate")
        head_fraction = features.column("head_fraction")

        # 204 fraction over non-tracking paths: tracking status is a
        # property of the (distinct) URL path, counted per session.
        tracking_table = frame.table_flags(
            ("tracking_path", self.tracking_path_markers),
            frame.url_path_table(),
            self._is_tracking_path,
        )
        relevant = ~tracking_table[frame.url_path_codes()]
        session_of = sessions.record_session_index()
        relevant_counts = np.bincount(session_of[relevant].astype(np.intp), minlength=n)
        no_content_counts = np.bincount(
            session_of[relevant & (frame.statuses == 204)].astype(np.intp), minlength=n
        )
        no_content = np.where(
            relevant_counts > 0, no_content_counts / np.maximum(relevant_counts, 1), 0.0
        )

        error_fired = eligible & (error_rate >= self.error_rate_threshold)
        no_content_fired = eligible & ~error_fired & (no_content >= self.no_content_threshold)
        head_fired = (
            eligible & ~error_fired & ~no_content_fired & (head_fraction >= self.head_threshold)
        )
        out: list[str | None] = [None] * n
        for index in np.flatnonzero(error_fired).tolist():
            out[index] = f"{self.name}: error rate {float(error_rate[index]):.1%}"
        for index in np.flatnonzero(no_content_fired).tolist():
            out[index] = f"{self.name}: 204 fraction {float(no_content[index]):.1%}"
        for index in np.flatnonzero(head_fired).tolist():
            out[index] = f"{self.name}: HEAD fraction {float(head_fraction[index]):.1%}"
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
        eligible = features.counts >= self.min_requests
        if not eligible.any():
            return out
        asset_fraction = features.column("asset_fraction")
        fired = (
            eligible
            & (features.column("robots_hits") > 0)
            & (asset_fraction <= self.asset_threshold)
        )
        for index in np.flatnonzero(fired).tolist():
            out[index] = (
                f"{self.name}: robots.txt fetched, {float(asset_fraction[index]):.1%} assets"
            )
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
        eligible = features.counts >= self.min_requests
        if not eligible.any():
            return out
        unique = features.unique_paths
        repetition = np.where(
            unique > 0, features.counts / np.maximum(unique, 1), 0.0
        )
        fired = eligible & (repetition >= self.repetition_threshold)
        for index in np.flatnonzero(fired).tolist():
            out[index] = f"{self.name}: {float(repetition[index]):.1f} requests per distinct path"
        return out


class HeuristicRuleDetector(Detector):
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
        """Per-session flags: verified, well-known crawler sessions."""
        n = len(sessions)
        flags = np.zeros(n, dtype=bool)
        if not self.whitelist_verified_crawlers:
            return flags
        ips = frame.tables["client_ip"]
        crawler_table = frame.table_flags(
            "crawler_agent", frame.tables["user_agent"], is_known_crawler_agent
        )
        pool_cache: dict[int, bool] = {}
        for index in np.flatnonzero(crawler_table[sessions.agent_codes]).tolist():
            ip_code = int(sessions.ip_codes[index])
            verified = pool_cache.get(ip_code)
            if verified is None:
                verified = self.crawler_pool.contains(ips[ip_code])
                pool_cache[ip_code] = verified
            flags[index] = verified
        return flags

    def alert_columns(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "DetectorAlerts":
        """Per-session rule verdicts, scattered to every row of the session.

        More independent rules firing means higher confidence: one rule
        scores 0.6, each further rule adds 0.2 (capped at 1.0).
        """
        from repro.columns.alertframe import DetectorAlerts, ReasonEncoder

        per_rule = [rule.matches_frame(frame, sessions, features) for rule in self.rules]
        whitelisted = self.whitelisted_sessions(frame, sessions)
        n_sessions = len(sessions)
        session_flags = np.zeros(n_sessions, dtype=bool)
        session_scores = np.zeros(n_sessions, dtype=np.float64)
        session_codes = np.full(n_sessions, -1, dtype=np.int64)
        encoder = ReasonEncoder()
        for index in range(n_sessions):
            if whitelisted[index]:
                continue
            reasons = [rule[index] for rule in per_rule if rule[index] is not None]
            if not reasons:
                continue
            session_flags[index] = True
            session_scores[index] = min(1.0, 0.6 + 0.2 * (len(reasons) - 1))
            session_codes[index] = encoder.code(tuple(reasons))
        return DetectorAlerts.from_sessions(
            self.name,
            frame,
            sessions,
            session_flags,
            session_scores,
            session_codes,
            encoder.table,
        )
