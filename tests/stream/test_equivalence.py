"""Batch/stream equivalence: the acceptance property of the subsystem.

Replaying a data set through the streaming engine must reproduce the
batch :class:`~repro.detectors.pipeline.DetectionPipeline` alert sets
*exactly* (same request-id set per ported detector), including under
visitor sharding and bounded out-of-order arrival.
"""

from __future__ import annotations

import random

import pytest

from repro.stream import StreamEngine, default_online_detectors, verify_equivalence
from repro.stream.sources import dataset_replay
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small, stealth_heavy

DETECTOR_NAMES = ("rate-limit", "ua-fingerprint", "inhouse", "anomaly")


@pytest.fixture(scope="module")
def balanced_dataset():
    return generate_dataset(balanced_small(total_requests=3000, seed=7))


@pytest.fixture(scope="module")
def stealth_dataset():
    return generate_dataset(stealth_heavy(total_requests=4000, seed=23))


class TestBatchStreamEquivalence:
    def test_balanced_small_reproduces_batch_alert_sets(self, balanced_dataset):
        report = verify_equivalence(balanced_dataset)
        assert report.equivalent, report.summary()
        assert tuple(entry.detector_name for entry in report.entries) == DETECTOR_NAMES
        # The property is only meaningful if the detectors actually alert.
        assert all(entry.batch_alerts > 0 for entry in report.entries), report.summary()

    def test_stealth_heavy_reproduces_batch_alert_sets(self, stealth_dataset):
        report = verify_equivalence(stealth_dataset)
        assert report.equivalent, report.summary()
        assert all(entry.batch_alerts > 0 for entry in report.entries), report.summary()

    # Each path builds one engine per shard; the in-process fallback runs
    # them in one process, so this also shows that the per-session
    # columnar memo shares no state across engines.
    def test_sharded_replay_is_also_equivalent(self, balanced_dataset, shard_path):
        report = verify_equivalence(balanced_dataset, workers=3)
        assert report.equivalent, report.summary()

    def test_equivalence_compares_scores_and_reasons(self, balanced_dataset):
        from repro.core.alerts import AlertSet
        from repro.detectors.ratelimit import RateLimitDetector
        from repro.stream.detectors import OnlineRateLimitDetector

        class Rescored(OnlineRateLimitDetector):
            """Alerts the batch ids, with a different score."""

            def final_alert_set(self):
                alerts = AlertSet(self.name)
                for alert in super().final_alert_set().alerts():
                    alerts.add(alert.request_id, score=alert.score / 2, reasons=alert.reasons)
                return alerts

        report = verify_equivalence(balanced_dataset, [(Rescored, RateLimitDetector)])
        (entry,) = report.entries
        assert not entry.missing and not entry.extra
        assert len(entry.mismatched) == entry.batch_alerts > 0
        assert not report.equivalent
        assert "score/reason mismatches" in report.summary()

    def test_stream_matrix_plugs_into_batch_analysis(self, balanced_dataset):
        from repro.core.framestats import k_out_of_n

        result = StreamEngine(default_online_detectors()).run(dataset_replay(balanced_dataset))
        matrix = result.to_matrix(balanced_dataset)
        assert matrix.n_requests == len(balanced_dataset)
        assert matrix.detector_names == list(DETECTOR_NAMES)
        name, one_oo_four = k_out_of_n(matrix.votes_per_request(), 1, matrix.n_detectors)
        assert name == "1-out-of-4"
        assert one_oo_four.sum() >= max(matrix.alert_counts().values())


class TestStreamingEdgeCases:
    def test_out_of_order_within_skew_matches_sorted_replay(self, balanced_dataset):
        ordered = sorted(balanced_dataset.records, key=lambda r: r.timestamp)
        shuffled = ordered[:]
        rng = random.Random(42)
        # Swap neighbours-at-distance-2 to introduce bounded disorder.
        for index in range(0, len(shuffled) - 3, 3):
            if rng.random() < 0.5:
                shuffled[index], shuffled[index + 2] = shuffled[index + 2], shuffled[index]

        sorted_result = StreamEngine(default_online_detectors()).run(iter(ordered))
        skewed_result = StreamEngine(
            default_online_detectors(), max_skew_seconds=300.0
        ).run(iter(shuffled))
        for sorted_set, skewed_set in zip(sorted_result.alert_sets, skewed_result.alert_sets):
            assert sorted_set.request_ids() == skewed_set.request_ids()

    def test_eviction_interval_does_not_change_final_alerts(self, balanced_dataset):
        from datetime import timedelta

        from repro.stream.sessionizer import IncrementalSessionizer

        aggressive = StreamEngine(default_online_detectors())
        aggressive.sessionizer = IncrementalSessionizer(
            timedelta(minutes=30), eviction_interval=16
        )
        lazy = StreamEngine(default_online_detectors())
        lazy.sessionizer = IncrementalSessionizer(
            timedelta(minutes=30), eviction_interval=100_000
        )
        result_a = aggressive.run(dataset_replay(balanced_dataset))
        result_b = lazy.run(dataset_replay(balanced_dataset))
        for set_a, set_b in zip(result_a.alert_sets, result_b.alert_sets):
            assert set_a.request_ids() == set_b.request_ids()
        # The aggressive engine actually evicted sessions mid-stream.
        assert result_a.stats.sessions_closed == result_b.stats.sessions_closed
