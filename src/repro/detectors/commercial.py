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

from typing import TYPE_CHECKING, Iterable, Sequence

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

        The layers are merged by :func:`merge_layers`.  The fingerprint
        pair verdicts are judged once and shared by the two layers that
        need them.
        """
        from repro.columns.alertframe import DetectorAlerts, whitelist_row_mask

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
        return merge_layers(self.name, layers, not_whitelisted)


#: The largest packed key: packing never wraps around int64.
_KEY_LIMIT = int(np.iinfo(np.int64).max)


def _lexicographic_keys(digits: Sequence[np.ndarray], radices: Sequence[int]) -> np.ndarray:
    """One int64 per row, ordered as the rows' digit tuples are ordered.

    The digits (``0 <= digits[i] < radices[i]``) are packed in mixed
    radix, the first column most significant.  Before a column whose
    radix would push the key past int64, the key so far and that column
    are replaced by their dense ranks: a rank keeps the order and stays
    below the row count, so the key is exact for any radices (on fewer
    than three billion rows).
    """
    key = np.zeros(len(digits[0]), dtype=np.int64)
    span = 1  # every key so far is below ``span``
    for column, radix in zip(digits, radices):
        if span * radix > _KEY_LIMIT:
            key_values, key = np.unique(key, return_inverse=True)
            digit_values, column = np.unique(column, return_inverse=True)
            span, radix = len(key_values), len(digit_values)
        key = key * radix + column
        span *= radix
    return key


def merge_layers(
    name: str, layers: Sequence[tuple[str, "DetectorAlerts"]], keep: np.ndarray
) -> "DetectorAlerts":
    """The union of the layers' alerts on the rows where ``keep`` holds.

    Scores merge by elementwise maximum over the alerting layers;
    reasons are prefixed with their layer's name (a layer alert without
    reasons contributes the bare layer name) and concatenated in layer
    order with order-preserving dedup.  The merge runs once per
    *distinct combination* of the layers' reason codes: each flagged
    row's codes (``-1`` for a quiet layer) are packed into one mixed-radix
    key whose radix per layer is its reason-table size + 1, so a 1-D
    ``np.unique`` yields the combinations in lexicographic order -- the
    order the reason table is built in.
    """
    from repro.columns.alertframe import DetectorAlerts, ReasonEncoder

    n = len(keep)
    masked_flags = [alerts.flags & keep for _, alerts in layers]
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
        layer_codes = [
            np.where(mask[flagged_rows], alerts.reason_codes[flagged_rows], np.int64(-1))
            for mask, (_, alerts) in zip(masked_flags, layers)
        ]
        keys = _lexicographic_keys(
            [codes + 1 for codes in layer_codes],
            [len(alerts.reason_table) + 1 for _, alerts in layers],
        )
        combo_keys, inverse = np.unique(keys, return_inverse=True)
        # Any row of a combination stands in for all of its rows.
        representative = np.empty(len(combo_keys), dtype=np.int64)
        representative[inverse] = np.arange(len(flagged_rows))
        prefixed = [
            [
                tuple(f"{layer_name}: {reason}" for reason in reasons) or (layer_name,)
                for reasons in alerts.reason_table
            ]
            for layer_name, alerts in layers
        ]
        combos = zip(*(codes[representative].tolist() for codes in layer_codes))
        combo_codes = np.empty(len(representative), dtype=np.int64)
        for combo_index, combo in enumerate(combos):
            parts: list[str] = []
            for layer_index, code in enumerate(combo):
                if code >= 0:
                    parts.extend(prefixed[layer_index][code])
            combo_codes[combo_index] = encoder.code(tuple(dict.fromkeys(parts)))
        reason_codes[flagged_rows] = combo_codes[inverse]
    return DetectorAlerts(name, flags, scores, reason_codes, encoder.table)
