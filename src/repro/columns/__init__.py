"""repro.columns -- the columnar in-memory substrate of the batch pipeline.

Three layers, each a vectorized counterpart of a record-object API:

* :class:`RecordFrame` -- a data set as numpy column arrays with
  dictionary-encoded strings (counterpart of a list of
  :class:`~repro.logs.record.LogRecord`); built by the traffic
  generator straight from its events, straight from a trace file
  (:meth:`repro.trace.store.TraceReader.read_frame`, zero per-record
  decode), from records (:meth:`RecordFrame.from_records`, one column
  at a time), or over existing tables (:meth:`RecordFrame.over_tables`:
  a frame's row subsets, and the stream engine's live sessions, which
  it encodes record by record into growable :class:`Dictionary`
  tables).  Values derived from each table entry are cached per table
  (:class:`TableCache`).
* :func:`sessionize_frame` / :class:`FrameSessions` -- vectorized
  group-by-visitor sessionization producing session index spans
  (counterpart of :class:`~repro.logs.sessionization.Sessionizer`,
  equivalent record for record and id for id).
* :class:`FeatureMatrix` -- the whole data set's session features as one
  ``sessions x FEATURE_NAMES`` array computed by batched numpy
  reductions (counterpart of per-session
  :func:`~repro.detectors.features.extract_features`, which itself runs
  on these kernels so the two paths agree bit for bit).

The record-object APIs remain as thin compatibility layers
(:meth:`RecordFrame.iter_records`, :meth:`FrameSessions.to_sessions`,
:meth:`FeatureMatrix.row`), so stream and mitigation code keeps working
unchanged while the batch hot path runs columnar end to end.
"""

from repro.columns.alertframe import AlertFrame, DetectorAlerts, ReasonEncoder
from repro.columns.features import (
    FEATURE_NAMES,
    FeatureMatrix,
    SessionArrays,
    SessionFeatures,
)
from repro.columns.frame import STRING_COLUMNS, Dictionary, RecordFrame, TableCache, encode_column
from repro.columns.sessions import FrameSessions, sessionize_frame, timeout_microseconds

__all__ = [
    "AlertFrame",
    "DetectorAlerts",
    "Dictionary",
    "FEATURE_NAMES",
    "FeatureMatrix",
    "FrameSessions",
    "ReasonEncoder",
    "RecordFrame",
    "SessionArrays",
    "SessionFeatures",
    "STRING_COLUMNS",
    "TableCache",
    "encode_column",
    "sessionize_frame",
    "timeout_microseconds",
]
