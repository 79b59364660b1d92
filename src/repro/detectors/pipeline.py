"""Running several detectors over one data set.

The paper's setting is exactly this: multiple tools observing the same
traffic.  :class:`DetectionPipeline` turns the traffic into a
:class:`~repro.columns.RecordFrame` once, sessionizes it and computes
the session feature matrix once, and hands that shared triple to every
detector's :meth:`~repro.detectors.base.Detector.alert_columns`.  The
result carries every detector's alert arrays and the assembled
:class:`~repro.core.alerts.AlertMatrix`.

:meth:`DetectionPipeline.run_frame` is the frame-native entry point (a
frame read straight from a trace never becomes a
:class:`~repro.logs.dataset.Dataset`); :meth:`DetectionPipeline.run`
converts a data set into a frame and bridges the result back to
per-detector :class:`~repro.core.alerts.AlertSet` objects.

Both report their telemetry through an optional
:class:`~repro.obs.metrics.MetricsRegistry` (records ingested, sessions
opened/closed, per-detector alerts and durations) plus spans for the
shared stages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.alerts import AlertMatrix, AlertSet
from repro.detectors.base import Detector
from repro.exceptions import DetectorError
from repro.logs.dataset import Dataset
from repro.obs import names as metric_names
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, resolve_registry
from repro.obs.spans import Span, trace_span
from repro.sharding import run_shards, shard_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import RecordFrame
    from repro.columns.alertframe import AlertFrame, DetectorAlerts

#: One judged frame: every detector's alerts, the session count and the
#: stage timings.
_Judgement = tuple[list["DetectorAlerts"], int, dict[str, float]]


@dataclass
class PipelineResult:
    """Everything produced by one pipeline run over a data set."""

    dataset: Dataset
    alert_sets: list[AlertSet]
    matrix: AlertMatrix
    timings: dict[str, float] = field(default_factory=dict)

    def alert_set(self, detector_name: str) -> AlertSet:
        """The alert set of one detector."""
        for alert_set in self.alert_sets:
            if alert_set.detector_name == detector_name:
                return alert_set
        raise DetectorError(f"no alert set for detector {detector_name!r}")


@dataclass
class FramePipelineResult:
    """Everything produced by one frame-native pipeline run.

    No :class:`~repro.logs.dataset.Dataset` and no per-alert objects:
    the alerts live as columnar arrays in ``alert_frame`` and the matrix
    is stacked straight from them.  :meth:`alert_sets` bridges to
    :class:`~repro.core.alerts.AlertSet` objects on demand.
    """

    frame: "RecordFrame"
    alert_frame: "AlertFrame"
    matrix: AlertMatrix
    timings: dict[str, float] = field(default_factory=dict)

    def alert_sets(self) -> list[AlertSet]:
        """Per-detector alert sets of the columnar alerts (built on demand)."""
        return self.alert_frame.to_alert_sets()


class DetectionPipeline:
    """Run a list of detectors over one frame with shared sessionization."""

    def __init__(
        self,
        detectors: Sequence[Detector],
        *,
        registry: MetricsRegistry | None = None,
    ):
        if not detectors:
            raise DetectorError("a detection pipeline needs at least one detector")
        names = [detector.name for detector in detectors]
        if len(set(names)) != len(names):
            raise DetectorError(f"detector names must be unique, got {names}")
        self.detectors = list(detectors)
        self.registry = resolve_registry(registry)

    def run(self, dataset: Dataset) -> PipelineResult:
        """Run every detector over a data set and assemble the alert matrix.

        The data set becomes a frame once and runs through
        :meth:`run_frame`.  ``timings`` holds one entry per detector plus
        the shared ``"sessionization"`` and ``"features"`` steps every
        detector's cost sits on top of.
        """
        from repro.columns import RecordFrame

        frame = RecordFrame.from_dataset(dataset, registry=self.registry)
        result = self.run_frame(frame)
        return PipelineResult(
            dataset=dataset,
            alert_sets=result.alert_sets(),
            matrix=result.matrix,
            timings=result.timings,
        )

    # ------------------------------------------------------------------
    def _account_shared(self, record_count: int, session_count: int) -> None:
        """The logical events the batch and stream engines both count."""
        registry = self.registry
        registry.counter(
            metric_names.RECORDS_INGESTED, "Records fed into a detection engine."
        ).inc(record_count)
        registry.counter(metric_names.SESSIONS_OPENED, "Visitor sessions opened.").inc(
            session_count
        )
        # Batch sessionization closes every session it opens.
        registry.counter(metric_names.SESSIONS_CLOSED, "Visitor sessions closed.").inc(
            session_count
        )

    def _account_detector(self, detector_name: str, alert_count: int, elapsed: float) -> None:
        registry = self.registry
        registry.counter(metric_names.DETECTOR_RUNS, "Batch detector executions.").inc(
            detector=detector_name
        )
        registry.counter(
            metric_names.DETECTOR_ALERTS, "Requests alerted per detector."
        ).inc(alert_count, detector=detector_name)
        registry.histogram(
            metric_names.DETECTOR_SECONDS, "Batch per-detector analysis duration."
        ).observe(elapsed, detector=detector_name)
        registry.counter(
            metric_names.FRAME_ALERT_ROWS,
            "Alerted rows in columnar alert frames.",
        ).inc(alert_count, detector=detector_name)

    # ------------------------------------------------------------------
    def run_frame(self, frame: "RecordFrame", *, workers: int = 1) -> "FramePipelineResult":
        """Run every detector over a frame into columnar alert arrays.

        The frame may come straight from
        :meth:`~repro.trace.store.TraceReader.read_frame` -- no
        :class:`Dataset` is ever materialised.  With ``workers > 1`` (and
        every detector declaring ``frame_shardable``) the frame is
        hash-sharded by client IP (:func:`~repro.sharding.shard_of`, the
        stream runner's visitor hash), each shard is judged by
        :func:`~repro.sharding.run_shards`, and the per-shard alert
        arrays are scattered back into frame-global arrays at join.
        """
        from repro.columns.alertframe import AlertFrame

        if workers < 1:
            raise DetectorError("workers must be at least 1")
        shardable = all(detector.frame_shardable for detector in self.detectors)
        if workers > 1 and shardable and len(frame):
            detector_alerts, session_count, timings = self._run_frame_sharded(
                frame, workers
            )
        else:
            detector_alerts, session_count, timings = self._judge(frame, self.registry)
        self._account_shared(len(frame), session_count)
        for detector, alerts in zip(self.detectors, detector_alerts):
            self._account_detector(detector.name, alerts.alert_count(), timings[detector.name])
        alert_frame = AlertFrame(frame, detector_alerts)
        matrix = AlertMatrix.from_alert_frame(alert_frame)
        union = (
            np.logical_or.reduce([alerts.flags for alerts in detector_alerts])
            if detector_alerts
            else np.zeros(len(frame), dtype=bool)
        )
        self.registry.counter(
            metric_names.ALERTED_REQUESTS,
            "Requests alerted by at least one detector (batch).",
        ).inc(int(np.count_nonzero(union)))
        return FramePipelineResult(
            frame=frame, alert_frame=alert_frame, matrix=matrix, timings=timings
        )

    def _judge(self, frame: "RecordFrame", registry: MetricsRegistry) -> _Judgement:
        """Sessionize, extract features, and run every detector's ``alert_columns``.

        The one judging step of a frame, whole or one shard of it.
        """
        from repro.columns import FeatureMatrix, sessionize_frame

        timings: dict[str, float] = {}
        with trace_span("sessionize", registry) as span:
            started = time.perf_counter()
            sessions = sessionize_frame(frame, registry=registry)
            timings["sessionization"] = time.perf_counter() - started
            span.set_attribute(records=len(frame), sessions=len(sessions))
        with trace_span("features", registry):
            started = time.perf_counter()
            features = FeatureMatrix.from_frame(frame, sessions, registry=registry)
            timings["features"] = time.perf_counter() - started

        detector_alerts: list["DetectorAlerts"] = []
        with trace_span("detectors", registry):
            for detector in self.detectors:
                with trace_span("detector", registry, detector=detector.name):
                    started = time.perf_counter()
                    detector_alerts.append(detector.alert_columns(frame, sessions, features))
                    timings[detector.name] = time.perf_counter() - started
        return detector_alerts, len(sessions), timings

    def _run_frame_sharded(self, frame: "RecordFrame", workers: int) -> _Judgement:
        from repro.columns.alertframe import DetectorAlerts, ReasonEncoder

        ips = frame.tables["client_ip"]
        per_ip_shard = np.fromiter(
            (shard_of(ip, workers) for ip in ips), np.int64, len(ips)
        )
        row_shard = per_ip_shard[frame.codes["client_ip"]]
        shard_rows = [np.flatnonzero(row_shard == index) for index in range(workers)]
        for index, rows in enumerate(shard_rows):
            self.registry.counter(
                metric_names.FRAME_SHARD_ROWS,
                "Rows assigned to each batch frame shard.",
            ).inc(len(rows), shard=str(index))

        traced = self.registry.enabled

        def judge_shard(index: int) -> tuple[_Judgement, dict | None]:
            # Runs in the shard's worker process (or in-process without
            # fork): record into a private registry and ship its snapshot
            # home with the alerts.
            registry = MetricsRegistry() if traced else NULL_REGISTRY
            with trace_span("worker", registry, shard=index):
                judged = self._judge(frame.take(shard_rows[index]), registry)
            return judged, registry.to_dict() if traced else None

        with trace_span("shards", self.registry, workers=workers) as span:
            started = time.perf_counter()
            shard_results = run_shards(judge_shard, workers)
            timings = {"shards": time.perf_counter() - started}
            span.set_attribute(records=len(frame))
            shard_alerts: list[list[DetectorAlerts]] = []
            session_count = 0
            for (alerts, sessions, shard_timings), snapshot in shard_results:
                shard_alerts.append(alerts)
                session_count += sessions
                for stage, seconds in shard_timings.items():
                    timings[stage] = timings.get(stage, 0.0) + seconds
                if snapshot is not None:
                    self.registry.merge(snapshot)
                    span.children.extend(Span.from_dict(root) for root in snapshot["spans"])

        with trace_span("merge", self.registry) as span:
            started = time.perf_counter()
            merged: list[DetectorAlerts] = []
            for position, detector in enumerate(self.detectors):
                merged_alerts = DetectorAlerts.empty(detector.name, len(frame))
                encoder = ReasonEncoder()
                for rows, per_detector in zip(shard_rows, shard_alerts):
                    merged_alerts.scatter(rows, per_detector[position], encoder)
                merged.append(merged_alerts)
            timings["merge"] = time.perf_counter() - started
            span.set_attribute(detectors=len(merged))
        return merged, session_count, timings


def run_detectors(
    dataset: Dataset,
    detectors: Sequence[Detector],
    *,
    registry: MetricsRegistry | None = None,
) -> PipelineResult:
    """Convenience wrapper: ``DetectionPipeline(detectors).run(dataset)``."""
    return DetectionPipeline(detectors, registry=registry).run(dataset)
