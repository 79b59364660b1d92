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
from repro.obs.metrics import MetricsRegistry, resolve_registry
from repro.obs.spans import trace_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import RecordFrame
    from repro.columns.alertframe import AlertFrame, DetectorAlerts


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
        hash-sharded by client IP across forked worker processes,
        mirroring the stream runner's visitor sharding, and the
        per-shard alert arrays are scattered back into frame-global
        arrays at join.
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
            detector_alerts, session_count, timings = self._run_frame_single(frame)
        self._account_shared(len(frame), session_count)
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

    def _run_frame_single(
        self, frame: "RecordFrame"
    ) -> tuple[list["DetectorAlerts"], int, dict[str, float]]:
        from repro.columns import FeatureMatrix, sessionize_frame

        timings: dict[str, float] = {}
        with trace_span("sessionize", self.registry) as span:
            started = time.perf_counter()
            sessions = sessionize_frame(frame, registry=self.registry)
            timings["sessionization"] = time.perf_counter() - started
            span.set_attribute(records=len(frame), sessions=len(sessions))
        with trace_span("features", self.registry):
            started = time.perf_counter()
            features = FeatureMatrix.from_frame(frame, sessions, registry=self.registry)
            timings["features"] = time.perf_counter() - started

        detector_alerts: list["DetectorAlerts"] = []
        with trace_span("detectors", self.registry):
            for detector in self.detectors:
                with trace_span("detector", self.registry, detector=detector.name):
                    started = time.perf_counter()
                    alerts = detector.alert_columns(frame, sessions, features)
                    elapsed = time.perf_counter() - started
                detector_alerts.append(alerts)
                timings[detector.name] = elapsed
                self._account_detector(detector.name, alerts.alert_count(), elapsed)
        return detector_alerts, len(sessions), timings

    def _run_frame_sharded(
        self, frame: "RecordFrame", workers: int
    ) -> tuple[list["DetectorAlerts"], int, dict[str, float]]:
        from repro.columns.alertframe import DetectorAlerts, ReasonEncoder

        # Reuse the stream runner's visitor hash so batch shards and
        # stream shards agree on placement (the import is deferred to
        # keep the detector layer import-independent of the stream one).
        from repro.stream.runner import shard_of

        global _FRAME_SHARD_STATE
        timings: dict[str, float] = {}
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

        with trace_span("shards", self.registry, workers=workers) as span:
            started = time.perf_counter()
            _FRAME_SHARD_STATE = (frame, shard_rows, self.detectors)
            try:
                try:
                    import multiprocessing

                    context = multiprocessing.get_context("fork")
                    with context.Pool(processes=workers) as pool:
                        shard_results = pool.map(_run_frame_shard, range(workers))
                except (ValueError, ImportError, OSError):
                    # No fork on this platform: degrade to in-process
                    # shard execution (same arrays, same merge).
                    shard_results = [_run_frame_shard(index) for index in range(workers)]
            finally:
                _FRAME_SHARD_STATE = None
            timings["shards"] = time.perf_counter() - started
            span.set_attribute(records=len(frame))

        session_count = sum(count for count, _ in shard_results)
        # The children could not reach this registry: account the
        # columnar substrate events (sessions, feature rows) here so a
        # sharded run reports the same counts as a single-process one.
        self.registry.counter(
            metric_names.FRAME_SESSIONS,
            "Session spans produced by vectorized sessionization.",
        ).inc(session_count)
        self.registry.counter(
            metric_names.FEATURE_ROWS, "Feature-matrix rows (sessions) computed."
        ).inc(session_count)

        with trace_span("merge", self.registry) as span:
            started = time.perf_counter()
            merged: list[DetectorAlerts] = []
            for position, detector in enumerate(self.detectors):
                alerts = DetectorAlerts.empty(detector.name, len(frame))
                encoder = ReasonEncoder()
                elapsed = 0.0
                for shard_index, (_, per_detector) in enumerate(shard_results):
                    flags, scores, codes, table, shard_elapsed = per_detector[position]
                    alerts.scatter(
                        shard_rows[shard_index],
                        DetectorAlerts(detector.name, flags, scores, codes, table),
                        encoder,
                    )
                    elapsed += shard_elapsed
                merged.append(alerts)
                timings[detector.name] = elapsed
                self._account_detector(detector.name, alerts.alert_count(), elapsed)
            timings["merge"] = time.perf_counter() - started
            span.set_attribute(detectors=len(merged))
        return merged, session_count, timings


#: ``(frame, shard row arrays, detectors)`` shared with forked shard
#: workers through copy-on-write memory -- set immediately before the
#: fork, cleared at join (the stream runner's pattern).
_FRAME_SHARD_STATE: tuple | None = None


def _run_frame_shard(index: int):
    """Run every detector over one shard (executes in a worker process)."""
    assert _FRAME_SHARD_STATE is not None
    frame, shard_rows, detectors = _FRAME_SHARD_STATE
    from repro.columns import FeatureMatrix, sessionize_frame
    from repro.columns.alertframe import DetectorAlerts

    rows = shard_rows[index]
    if not len(rows):
        empty = [
            (alerts.flags, alerts.scores, alerts.reason_codes, alerts.reason_table, 0.0)
            for alerts in (DetectorAlerts.empty(d.name, 0) for d in detectors)
        ]
        return 0, empty
    sub = frame.take(rows)
    sessions = sessionize_frame(sub)
    features = FeatureMatrix.from_frame(sub, sessions)
    out = []
    for detector in detectors:
        started = time.perf_counter()
        alerts = detector.alert_columns(sub, sessions, features)
        elapsed = time.perf_counter() - started
        out.append((alerts.flags, alerts.scores, alerts.reason_codes, alerts.reason_table, elapsed))
    return len(sessions), out


def run_detectors(
    dataset: Dataset,
    detectors: Sequence[Detector],
    *,
    registry: MetricsRegistry | None = None,
) -> PipelineResult:
    """Convenience wrapper: ``DetectionPipeline(detectors).run(dataset)``."""
    return DetectionPipeline(detectors, registry=registry).run(dataset)
