"""Rate-limit detector.

The simplest and oldest scraping defence: flag visitors whose request rate
exceeds what a human could plausibly sustain.  Both tools studied in the
paper include a rate component; here it is also available as a
stand-alone detector for the multi-detector extension experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.detectors.base import SessionDetector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import SessionVerdicts


class RateLimitDetector(SessionDetector):
    """Flag sessions whose sustained or peak request rate exceeds a threshold.

    Both the session's average rate and its busiest one-minute window are
    checked, so bursty scrapers that idle between bursts are still caught.
    """

    #: Verdicts are per-session pure; sharding by IP keeps sessions whole.
    frame_shardable = True

    def __init__(
        self,
        *,
        name: str = "rate-limit",
        threshold_rpm: float = 60.0,
        min_requests: int = 10,
        use_peak_rate: bool = True,
    ) -> None:
        if threshold_rpm <= 0:
            raise ValueError("threshold_rpm must be positive")
        if min_requests < 1:
            raise ValueError("min_requests must be at least 1")
        self.name = name
        self.threshold_rpm = threshold_rpm
        self.min_requests = min_requests
        self.use_peak_rate = use_peak_rate

    def session_verdicts(
        self, frame: "RecordFrame", sessions: "FrameSessions", features: "FeatureMatrix"
    ) -> "SessionVerdicts":
        """Per-session rate verdicts.

        The score grows with how far above the threshold the session's
        rate is.
        """
        from repro.columns.alertframe import ReasonEncoder, SessionVerdicts

        rates = features.column("requests_per_minute")
        if self.use_peak_rate:
            rates = np.maximum(rates, features.peak_rpm())
        flags = (features.counts >= self.min_requests) & (rates > self.threshold_rpm)
        scores = np.zeros(len(features), dtype=np.float64)
        codes = np.full(len(features), -1, dtype=np.int64)
        encoder = ReasonEncoder()
        threshold = self.threshold_rpm
        for index in flags.nonzero()[0].tolist():
            rate = float(rates[index])
            scores[index] = min(1.0, 0.5 + 0.5 * (rate - threshold) / threshold)
            codes[index] = encoder.code((f"rate {rate:.0f} req/min exceeds {threshold:.0f}",))
        return SessionVerdicts(flags, scores, codes, encoder.table)
