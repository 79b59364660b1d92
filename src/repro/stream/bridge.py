"""Batch/stream equivalence bridge.

The streaming engine is only trustworthy if it reaches the *same
conclusions* as the paper's retrospective analysis.  This module pairs
each online detector port with its batch counterpart, replays a
:class:`~repro.logs.dataset.Dataset` through the engine, and verifies
that the final streaming alert sets match a batch
:class:`~repro.detectors.pipeline.DetectionPipeline` run request-for-request:
the same alerted ids, each with the same score and reasons.

A matching report means streaming results can be fed straight into the
existing analysis (Tables 1-4, diversity metrics, adjudication schemes)
via :meth:`~repro.stream.engine.StreamResult.to_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.anomaly.zscore import RobustZScoreModel
from repro.detectors.anomaly_detector import AnomalySessionDetector
from repro.detectors.base import Detector
from repro.detectors.fingerprint import UserAgentFingerprintDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.pipeline import DetectionPipeline
from repro.detectors.ratelimit import RateLimitDetector
from repro.logs.dataset import Dataset
from repro.stream.detectors import (
    OnlineAnomalyDetector,
    OnlineDetector,
    OnlineFingerprintDetector,
    OnlineInHouseDetector,
    OnlineRateLimitDetector,
)
from repro.stream.engine import StreamEngine, StreamResult
from repro.stream.runner import ShardedStreamRunner
from repro.stream.sources import dataset_replay


def ported_detector_pairs(
    *,
    contamination: float = 0.3,
) -> list[tuple[Callable[[], OnlineDetector], Callable[[], Detector]]]:
    """Factory pairs (online port, batch counterpart) proven equivalent.

    The anomaly pair uses the robust z-score model: its column statistics
    are independent of row order, which is what makes the stream's
    incrementally-pooled fit reproduce the batch fit exactly.
    """
    return [
        (OnlineRateLimitDetector, RateLimitDetector),
        (OnlineFingerprintDetector, UserAgentFingerprintDetector),
        (OnlineInHouseDetector, InHouseHeuristicDetector),
        (
            lambda: OnlineAnomalyDetector(RobustZScoreModel, contamination=contamination),
            lambda: AnomalySessionDetector(RobustZScoreModel(), contamination=contamination),
        ),
    ]


def replay(
    dataset: Dataset,
    engine: StreamEngine | ShardedStreamRunner | None = None,
) -> StreamResult:
    """Replay a data set through an engine (default: the four ported detectors)."""
    if engine is None:
        from repro.stream.detectors import default_online_detectors

        engine = StreamEngine(default_online_detectors())
    return engine.run(dataset_replay(dataset))


@dataclass(frozen=True)
class DetectorEquivalence:
    """Batch-vs-stream comparison of one detector's alerts."""

    detector_name: str
    batch_alerts: int
    stream_alerts: int
    #: Request ids alerted by the batch detector but not the stream.
    missing: frozenset[str]
    #: Request ids alerted by the stream but not the batch detector.
    extra: frozenset[str]
    #: Request ids both alerted, with a different score or reasons.
    mismatched: frozenset[str] = frozenset()

    @property
    def equivalent(self) -> bool:
        """True when both sides alerted the same ids with the same scores and reasons."""
        return not self.missing and not self.extra and not self.mismatched


@dataclass(frozen=True)
class EquivalenceReport:
    """The full batch/stream comparison over one data set."""

    dataset_name: str
    total_requests: int
    entries: tuple[DetectorEquivalence, ...]

    @property
    def equivalent(self) -> bool:
        """True when every detector matched exactly."""
        return all(entry.equivalent for entry in self.entries)

    def summary(self) -> str:
        """A short human-readable report (used by tests and the CLI)."""
        lines = [
            f"batch/stream equivalence on {self.dataset_name!r} "
            f"({self.total_requests:,} requests):"
        ]
        for entry in self.entries:
            status = "OK" if entry.equivalent else (
                f"MISMATCH (missing {len(entry.missing)}, extra {len(entry.extra)}, "
                f"score/reason mismatches {len(entry.mismatched)})"
            )
            lines.append(
                f"  {entry.detector_name}: batch={entry.batch_alerts:,} "
                f"stream={entry.stream_alerts:,} -> {status}"
            )
        return "\n".join(lines)


def verify_equivalence(
    dataset: Dataset,
    pairs: Sequence[tuple[Callable[[], OnlineDetector], Callable[[], Detector]]] | None = None,
    *,
    workers: int = 1,
) -> EquivalenceReport:
    """Run batch and stream over ``dataset`` and compare alert sets.

    Parameters
    ----------
    dataset:
        The data set to replay.
    pairs:
        (online factory, batch factory) pairs; defaults to
        :func:`ported_detector_pairs`.
    workers:
        When ``workers > 1`` the stream side runs through a
        :class:`~repro.stream.runner.ShardedStreamRunner`, proving the
        sharded deployment equivalent too.
    """
    pairs = list(pairs) if pairs is not None else ported_detector_pairs()
    batch_detectors = [batch_factory() for _, batch_factory in pairs]
    batch_result = DetectionPipeline(batch_detectors).run(dataset)

    def engine_factory() -> StreamEngine:
        return StreamEngine([online_factory() for online_factory, _ in pairs])

    if workers > 1:
        runner = ShardedStreamRunner(engine_factory, workers=workers)
        stream_result = runner.run(dataset_replay(dataset))
    else:
        stream_result = engine_factory().run(dataset_replay(dataset))

    entries = []
    for batch_detector, stream_set in zip(batch_detectors, stream_result.alert_sets):
        batch_set = batch_result.alert_set(batch_detector.name)
        batch_ids = batch_set.request_ids()
        stream_ids = stream_set.request_ids()
        mismatched = set()
        for request_id in batch_ids & stream_ids:
            batch_alert, stream_alert = batch_set.get(request_id), stream_set.get(request_id)
            if (batch_alert.score, batch_alert.reasons) != (stream_alert.score, stream_alert.reasons):
                mismatched.add(request_id)
        entries.append(
            DetectorEquivalence(
                detector_name=batch_detector.name,
                batch_alerts=len(batch_ids),
                stream_alerts=len(stream_ids),
                missing=frozenset(batch_ids - stream_ids),
                extra=frozenset(stream_ids - batch_ids),
                mismatched=frozenset(mismatched),
            )
        )
    return EquivalenceReport(
        dataset_name=dataset.metadata.name,
        total_requests=len(dataset),
        entries=tuple(entries),
    )
