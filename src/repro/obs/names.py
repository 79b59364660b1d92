"""The shared instrumentation vocabulary: one constant per metric name.

Every instrumentation point in the library references these constants
instead of string literals, so the batch and stream engines count the
same logical events under the same names, dashboards can rely on stable
names, and the README's metrics reference table has a single source of
truth (:data:`METRIC_REFERENCE`).

Naming follows the Prometheus conventions: counters end in ``_total``,
byte counters in ``_bytes_total``, histograms of durations in
``_seconds``; every name carries the ``repro_`` namespace prefix.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# Stage timing (fed by every trace_span exit; the source of the derived
# per-stage ``RunResult.timings`` view)
# ----------------------------------------------------------------------
STAGE_SECONDS = "repro_stage_seconds"

# ----------------------------------------------------------------------
# Shared logical events (batch and stream engines count these the same)
# ----------------------------------------------------------------------
RECORDS_INGESTED = "repro_records_ingested_total"
SESSIONS_OPENED = "repro_sessions_opened_total"
SESSIONS_CLOSED = "repro_sessions_closed_total"
DETECTOR_ALERTS = "repro_detector_alerts_total"

# ----------------------------------------------------------------------
# Run / dataset bookkeeping
# ----------------------------------------------------------------------
RUNS = "repro_runs_total"
DATASETS_BUILT = "repro_datasets_built_total"
LABELLED_RECORDS = "repro_labelled_records_total"

# ----------------------------------------------------------------------
# Batch pipeline
# ----------------------------------------------------------------------
DETECTOR_RUNS = "repro_detector_runs_total"
DETECTOR_SECONDS = "repro_detector_seconds"
ALERTED_REQUESTS = "repro_alerted_requests_total"

# ----------------------------------------------------------------------
# Columnar substrate
# ----------------------------------------------------------------------
FRAME_ROWS = "repro_frame_rows_total"
FEATURE_ROWS = "repro_feature_rows_total"
FRAME_SESSIONS = "repro_frame_sessions_total"
FRAME_SHARD_ROWS = "repro_frame_shard_rows_total"
FRAME_ALERT_ROWS = "repro_frame_alert_rows_total"

# ----------------------------------------------------------------------
# Streaming engine / sharded runner
# ----------------------------------------------------------------------
ENSEMBLE_ALERTS = "repro_ensemble_alerts_total"
DETECTOR_VERDICTS = "repro_detector_verdicts_total"
SESSIONS_EVICTED = "repro_sessions_evicted_total"
VERDICT_SECONDS = "repro_verdict_seconds"
DETECTOR_VERDICT_SECONDS = "repro_detector_verdict_seconds"
SHARD_RECORDS = "repro_stream_shard_records_total"

# ----------------------------------------------------------------------
# Trace store / generation cache
# ----------------------------------------------------------------------
CACHE_HITS = "repro_cache_hits_total"
CACHE_MISSES = "repro_cache_misses_total"
TRACE_BLOCKS_READ = "repro_trace_blocks_read_total"
TRACE_BLOCKS_WRITTEN = "repro_trace_blocks_written_total"
TRACE_READ_BYTES = "repro_trace_compressed_read_bytes_total"
TRACE_WRITTEN_BYTES = "repro_trace_compressed_written_bytes_total"
TRACE_RECORDS_WRITTEN = "repro_trace_records_written_total"

# ----------------------------------------------------------------------
# Profiler (repro.prof): live sampling / per-span resource attribution
# ----------------------------------------------------------------------
PROFILE_SAMPLES = "repro_profile_samples_total"
PROFILE_SPAN_ALLOC_BYTES = "repro_profile_span_alloc_bytes_total"
PROFILE_SPAN_PEAK_BYTES = "repro_profile_span_peak_bytes"

# ----------------------------------------------------------------------
# Mitigation gateway / policy engine
# ----------------------------------------------------------------------
ENFORCEMENT_ACTIONS = "repro_enforcement_actions_total"
ESCALATIONS = "repro_enforcement_escalations_total"
CHALLENGES = "repro_enforcement_challenges_total"
COOLDOWN_RESETS = "repro_enforcement_cooldown_resets_total"
BLOCKS_EXPIRED = "repro_enforcement_blocks_expired_total"

#: ``(name, kind, labels, meaning)`` rows of the metrics reference table
#: (rendered in the README's Observability section; kept here so code
#: and documentation share one vocabulary).
METRIC_REFERENCE: tuple[tuple[str, str, str, str], ...] = (
    (STAGE_SECONDS, "histogram", "stage", "duration of every traced pipeline stage"),
    (RECORDS_INGESTED, "counter", "-", "records fed into a detection engine"),
    (SESSIONS_OPENED, "counter", "-", "visitor sessions opened"),
    (SESSIONS_CLOSED, "counter", "-", "visitor sessions closed"),
    (SESSIONS_EVICTED, "counter", "-", "idle sessions closed by the stream evictor"),
    (DETECTOR_ALERTS, "counter", "detector", "requests alerted per detector"),
    (DETECTOR_RUNS, "counter", "detector", "batch detector executions"),
    (DETECTOR_SECONDS, "histogram", "detector", "batch per-detector analysis duration"),
    (ALERTED_REQUESTS, "counter", "-", "requests alerted by at least one detector (batch)"),
    (ENSEMBLE_ALERTS, "counter", "-", "requests alerted by the adjudicated ensemble"),
    (DETECTOR_VERDICTS, "counter", "detector", "online verdicts emitted per detector"),
    (VERDICT_SECONDS, "histogram", "-", "per-request ensemble decision latency"),
    (DETECTOR_VERDICT_SECONDS, "histogram", "detector", "per-request detector decision latency"),
    (SHARD_RECORDS, "counter", "shard", "records processed per stream shard"),
    (RUNS, "counter", "mode", "workloads executed"),
    (DATASETS_BUILT, "counter", "source", "data sets materialised by source kind"),
    (LABELLED_RECORDS, "counter", "label", "ground-truth-labelled records by label"),
    (FRAME_ROWS, "counter", "source", "rows loaded into a RecordFrame"),
    (FRAME_SESSIONS, "counter", "-", "session spans produced by vectorized sessionization"),
    (FEATURE_ROWS, "counter", "-", "feature-matrix rows (sessions) computed"),
    (FRAME_SHARD_ROWS, "counter", "shard", "rows assigned to each batch frame shard"),
    (FRAME_ALERT_ROWS, "counter", "detector", "alerted rows in columnar alert frames"),
    (CACHE_HITS, "counter", "tier", "generation-cache hits (memory / disk)"),
    (CACHE_MISSES, "counter", "-", "generation-cache misses (traffic regenerated)"),
    (TRACE_BLOCKS_READ, "counter", "-", "trace blocks decoded"),
    (TRACE_BLOCKS_WRITTEN, "counter", "-", "trace blocks encoded and written"),
    (TRACE_READ_BYTES, "counter", "-", "compressed trace bytes read"),
    (TRACE_WRITTEN_BYTES, "counter", "-", "compressed trace bytes written"),
    (TRACE_RECORDS_WRITTEN, "counter", "-", "records appended to trace files"),
    (PROFILE_SAMPLES, "counter", "-", "stack samples captured by the profiler"),
    (PROFILE_SPAN_ALLOC_BYTES, "counter", "span", "net bytes allocated inside each span path"),
    (PROFILE_SPAN_PEAK_BYTES, "gauge", "span", "peak traced memory observed inside each span path"),
    (ENFORCEMENT_ACTIONS, "counter", "action", "gateway decisions by enforcement action"),
    (ESCALATIONS, "counter", "-", "decisions driven by the escalation ladder"),
    (CHALLENGES, "counter", "outcome", "challenges issued, by passed/failed outcome"),
    (COOLDOWN_RESETS, "counter", "-", "visitor strike states decayed by cool-down"),
    (BLOCKS_EXPIRED, "counter", "-", "expired blocks lifted by the policy engine"),
)

#: ``(stage, meaning)`` rows of the span-name catalogue: every
#: ``trace_span`` / ``registry.span`` stage name used anywhere in the
#: library must appear here (enforced by lint rule REP009), so span
#: trees, per-stage timings and profiler attribution paths use a stable,
#: documented vocabulary -- the span-tree counterpart of
#: :data:`METRIC_REFERENCE`.
SPAN_REFERENCE: tuple[tuple[str, str], ...] = (
    ("dataset", "traffic materialisation (generate, parse or replay)"),
    ("experiment", "the batch diversity experiment over one data set"),
    ("sessionize", "grouping records into visitor sessions"),
    ("features", "batched session feature extraction"),
    ("detectors", "the batch detector ensemble"),
    ("detector", "one batch detector's analysis"),
    ("shards", "multi-process frame shard fan-out and join"),
    ("worker", "one frame shard judged in its worker (under shards)"),
    ("merge", "merging per-shard alert arrays into the global frame"),
    ("analysis", "frame-native table/diversity/evaluation kernels"),
    ("source", "stream-source resolution (dataset or trace replay)"),
    ("stream", "streaming replay through the online engine"),
    ("simulate", "the closed-loop defense simulation"),
    ("report", "mitigation report assembly"),
)
