"""Behavioural session scoring.

Commercial bot-defence products complement signature checks with a model
of *how* the visitor behaves: real browsers load assets and send
referrers, real people pause irregularly between pages and do not sweep
the whole catalogue.  The :class:`BehavioralSessionDetector` scores each
session against those behavioural expectations and alerts when the
accumulated evidence crosses a threshold.

The scoring is an interpretable, weighted-evidence model rather than a
black-box classifier -- partly because that is auditable, and partly
because the genuinely statistical detectors (naive Bayes, decision tree,
anomaly detection) are available separately for the multi-detector
extension experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.detectors.base import Detector
from repro.detectors.fingerprint import UserAgentFingerprintDetector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts


@dataclass(frozen=True)
class BehaviouralScoreConfig:
    """Weights and thresholds of the behavioural evidence model."""

    #: Sessions that never load static assets.
    no_assets_weight: float = 2.0
    no_assets_threshold: float = 0.05
    #: Sessions that never send a Referer header.
    no_referrer_weight: float = 1.5
    no_referrer_threshold: float = 0.2
    #: Machine-regular inter-arrival times.
    machine_timing_weight: float = 2.5
    machine_timing_cv: float = 0.25
    machine_timing_min_requests: int = 10
    #: Unusually large sessions.
    high_volume_weight: float = 1.0
    high_volume_requests: int = 30
    #: Exhaustive coverage of distinct resources.
    coverage_weight: float = 0.5
    coverage_ratio: float = 0.9
    coverage_min_requests: int = 20
    #: Sustained activity in the dead of night.
    night_weight: float = 0.5
    night_fraction: float = 0.4
    #: Non-browser client fingerprints (scripted / headless).
    fingerprint_weight: float = 4.0
    #: Total evidence needed to alert.
    alert_threshold: float = 4.0


class BehavioralSessionDetector(Detector):
    """Weighted-evidence behavioural model over session features."""

    #: Evidence is per-session + per-(agent, IP) pair; both survive
    #: hash-sharding by client IP.
    frame_shardable = True

    def __init__(
        self,
        config: BehaviouralScoreConfig | None = None,
        *,
        name: str = "behavioral",
        fingerprint: UserAgentFingerprintDetector | None = None,
    ) -> None:
        self.name = name
        self.config = config or BehaviouralScoreConfig()
        self.fingerprint = fingerprint or UserAgentFingerprintDetector()

    def verdict_alerts(
        self,
        frame: "RecordFrame",
        sessions: "FrameSessions",
        features: "FeatureMatrix",
        fingerprint_verdicts: "dict | None" = None,
    ) -> "DetectorAlerts":
        """Per-session evidence scores, scattered to every row of the session.

        A session alerts when its accumulated evidence reaches the
        threshold; its score is the evidence normalised by twice the
        threshold (capped at 1.0) and its reasons are the contributing
        signals.  ``fingerprint_verdicts`` shares an already-computed
        :meth:`~repro.detectors.fingerprint.UserAgentFingerprintDetector.pair_verdicts`
        result (the commercial composite judges each pair once for all
        its layers).
        """
        from repro.columns.alertframe import DetectorAlerts, ReasonEncoder

        config = self.config
        counts = features.counts
        cv = features.column("interarrival_cv")

        verdicts = (
            fingerprint_verdicts
            if fingerprint_verdicts is not None
            else self.fingerprint.pair_verdicts(frame)
        )
        fingerprinted = np.fromiter(
            (
                (int(agent), int(ip)) in verdicts
                for agent, ip in zip(sessions.agent_codes, sessions.ip_codes)
            ),
            bool,
            len(features),
        )
        signals = (
            (
                features.column("asset_fraction") < config.no_assets_threshold,
                config.no_assets_weight,
            ),
            (
                features.column("referrer_fraction") < config.no_referrer_threshold,
                config.no_referrer_weight,
            ),
            (
                (counts >= config.machine_timing_min_requests)
                & (cv < config.machine_timing_cv),
                config.machine_timing_weight,
            ),
            (counts >= config.high_volume_requests, config.high_volume_weight),
            (
                (counts >= config.coverage_min_requests)
                & (features.column("unique_path_ratio") > config.coverage_ratio),
                config.coverage_weight,
            ),
            (features.column("night_fraction") > config.night_fraction, config.night_weight),
            (fingerprinted, config.fingerprint_weight),
        )
        scores = np.zeros(len(features))
        for fired, weight in signals:
            scores = scores + np.where(fired, weight, 0.0)

        alerted = scores >= config.alert_threshold
        normalised = np.minimum(1.0, scores / (2 * config.alert_threshold))
        session_codes = np.full(len(features), -1, dtype=np.int64)
        encoder = ReasonEncoder()
        for index in np.flatnonzero(alerted).tolist():
            reasons: list[str] = []
            if signals[0][0][index]:
                reasons.append("no static assets loaded")
            if signals[1][0][index]:
                reasons.append("no referrer headers")
            if signals[2][0][index]:
                reasons.append(f"machine-regular timing (cv={float(cv[index]):.2f})")
            if signals[3][0][index]:
                reasons.append(f"high volume ({int(counts[index])} requests)")
            if signals[4][0][index]:
                reasons.append("exhaustive URL coverage")
            if signals[5][0][index]:
                reasons.append("night-time activity")
            if signals[6][0][index]:
                reasons.append("non-browser client fingerprint")
            session_codes[index] = encoder.code(tuple(reasons))
        return DetectorAlerts.from_sessions(
            self.name,
            frame,
            sessions,
            alerted,
            np.where(alerted, normalised, 0.0),
            session_codes,
            encoder.table,
        )

    def alert_columns(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "DetectorAlerts":
        return self.verdict_alerts(frame, sessions, features)
