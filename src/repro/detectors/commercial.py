"""The commercial-product stand-in ("Distil-like" composite detector).

Commercial bot-mitigation products combine several layers that all feed
one verdict per visitor:

1. **client fingerprint validation** -- scripted clients, headless
   browsers and fake search-engine crawlers are flagged outright;
2. **IP reputation** -- requests from ranges known to host scraping
   infrastructure are flagged;
3. **global rate limiting** -- visitors exceeding an aggressive request
   rate are flagged regardless of anything else;
4. **behavioural analysis** -- sessions whose browsing behaviour is
   inconsistent with a human driving a real browser are flagged.

Verified search-engine crawlers are whitelisted, as every commercial
product does.  The composite's alert set is the union of the layers'
alerts, with the triggering layer(s) recorded as alert reasons.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.detectors.base import Detector
from repro.detectors.behavioral import BehavioralSessionDetector, BehaviouralScoreConfig
from repro.detectors.fingerprint import UserAgentFingerprintDetector
from repro.detectors.ratelimit import RateLimitDetector
from repro.detectors.reputation import IPReputationDetector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts


class CommercialBotDefenceDetector(Detector):
    """Multi-layer commercial-style bot defence (the paper's "Distil" stand-in)."""

    def __init__(
        self,
        *,
        name: str = "commercial",
        reputation_blocklist: Iterable[str] | None = None,
        rate_threshold_rpm: float = 90.0,
        behavioural_config: BehaviouralScoreConfig | None = None,
    ) -> None:
        self.name = name
        self.fingerprint = UserAgentFingerprintDetector(name=f"{name}/fingerprint")
        self.reputation = IPReputationDetector(reputation_blocklist, name=f"{name}/reputation")
        self.ratelimit = RateLimitDetector(
            name=f"{name}/rate",
            threshold_rpm=rate_threshold_rpm,
        )
        self.behavioral = BehavioralSessionDetector(
            behavioural_config,
            name=f"{name}/behavioral",
            fingerprint=self.fingerprint,
        )
        # The composite shards iff every layer does (the reputation layer
        # opts out when it uses a global per-prefix count threshold).
        self.frame_shardable = (
            self.fingerprint.frame_shardable
            and self.reputation.frame_shardable
            and self.ratelimit.frame_shardable
            and self.behavioral.frame_shardable
        )

    def alert_columns(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "DetectorAlerts":
        """The union of the layers' alerts, minus verified crawlers.

        Scores merge by elementwise maximum over the alerting layers;
        reasons are prefixed with their layer's name (a layer alert
        without reasons contributes the bare layer name) and concatenated
        in layer order with order-preserving dedup.  The merge runs per
        *distinct layer reason-code combination* -- a handful of combos
        stand in for every alerted row, so the prefixing and dedup run
        once per combo instead of once per alert.  The fingerprint pair
        verdicts are judged once and shared by the two layers that need
        them.
        """
        from repro.columns.alertframe import (
            DetectorAlerts,
            ReasonEncoder,
            whitelist_row_mask,
        )

        verdicts = self.fingerprint.pair_verdicts(frame)
        layers: list[tuple[str, DetectorAlerts]] = [
            ("fingerprint", self.fingerprint.verdict_alerts(frame, verdicts)),
            ("reputation", self.reputation.alert_columns(frame, sessions, features)),
            ("rate", self.ratelimit.alert_columns(frame, sessions, features)),
            (
                "behavioral",
                self.behavioral.verdict_alerts(
                    frame, sessions, features, fingerprint_verdicts=verdicts
                ),
            ),
        ]
        not_whitelisted = ~whitelist_row_mask(
            frame, sessions, self.fingerprint.is_verified_crawler
        )
        n = len(frame)
        masked_flags = [alerts.flags & not_whitelisted for _, alerts in layers]
        flags = np.logical_or.reduce(masked_flags)
        best = np.maximum.reduce(
            [
                np.where(mask, alerts.scores, -np.inf)
                for mask, (_, alerts) in zip(masked_flags, layers)
            ]
        )
        scores = np.where(flags, best, 0.0)

        reason_codes = np.full(n, -1, dtype=np.int64)
        encoder = ReasonEncoder()
        flagged_rows = np.flatnonzero(flags)
        if len(flagged_rows):
            code_matrix = np.stack(
                [
                    np.where(mask, alerts.reason_codes, np.int64(-1))
                    for mask, (_, alerts) in zip(masked_flags, layers)
                ],
                axis=1,
            )
            combos, inverse = np.unique(
                code_matrix[flagged_rows], axis=0, return_inverse=True
            )
            prefixed = [
                [
                    tuple(f"{layer_name}: {reason}" for reason in reasons)
                    or (layer_name,)
                    for reasons in alerts.reason_table
                ]
                for layer_name, alerts in layers
            ]
            combo_codes = np.empty(len(combos), dtype=np.int64)
            for combo_index, combo in enumerate(combos.tolist()):
                parts: list[str] = []
                for layer_index, code in enumerate(combo):
                    if code >= 0:
                        parts.extend(prefixed[layer_index][code])
                combo_codes[combo_index] = encoder.code(tuple(dict.fromkeys(parts)))
            reason_codes[flagged_rows] = combo_codes[
                np.asarray(inverse, dtype=np.int64).reshape(-1)
            ]
        return DetectorAlerts(self.name, flags, scores, reason_codes, encoder.table)
