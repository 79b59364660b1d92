"""Experiment ``perf_detectors``: detector throughput comparison.

Measures how long each detector family's ``alert_columns`` takes over
the benchmark data set's frame (with the frame, sessionization and
session features shared, as in the real pipeline).  No paper
table corresponds to this; it documents the cost side of the diversity
trade-off -- running two (or five) detectors in parallel costs what the
serial-configuration experiment tries to save.
"""

from __future__ import annotations

import pytest

from repro.detectors.behavioral import BehavioralSessionDetector
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.naive_bayes import NaiveBayesRobotDetector
from repro.detectors.ratelimit import RateLimitDetector
from repro.detectors.reputation import IPReputationDetector

DETECTOR_FACTORIES = {
    "commercial": CommercialBotDefenceDetector,
    "inhouse": InHouseHeuristicDetector,
    "behavioral": BehavioralSessionDetector,
    "rate-limit": RateLimitDetector,
    "ip-reputation": IPReputationDetector,
    "naive-bayes": NaiveBayesRobotDetector,
}


@pytest.mark.parametrize("detector_name", sorted(DETECTOR_FACTORIES))
def test_perf_detector_throughput(benchmark, bench_frame, detector_name):
    detector = DETECTOR_FACTORIES[detector_name]()

    alerts = benchmark.pedantic(detector.alert_columns, args=bench_frame, rounds=2, iterations=1)

    frame = bench_frame[0]
    print(f"\n{detector_name}: {alerts.alert_count():,} of {len(frame):,} requests alerted")
    assert alerts.alert_count() <= len(frame)
