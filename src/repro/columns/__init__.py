"""repro.columns -- the columnar in-memory substrate of the batch pipeline.

Three layers:

* :class:`RecordFrame` -- a data set as numpy column arrays with
  dictionary-encoded strings; built by the traffic generator straight
  from its events, straight from a trace file
  (:meth:`repro.trace.store.TraceReader.read_frame`, zero per-record
  decode), from records (:meth:`RecordFrame.from_records`, one column
  at a time), or over existing tables (:meth:`RecordFrame.over_tables`:
  a frame's row subsets, and the stream engine's live sessions, which
  it encodes record by record into growable :class:`Dictionary`
  tables).  Values derived from each table entry are cached per table
  (:class:`TableCache`).  :meth:`RecordFrame.iter_records` rebuilds
  the :class:`~repro.logs.record.LogRecord` objects.
* :func:`sessionize_frame` / :class:`FrameSessions` -- vectorized
  group-by-visitor sessionization producing session index spans, the
  batch counterpart of the stream's
  :class:`~repro.stream.sessionizer.IncrementalSessionizer`.
* :class:`FeatureMatrix` -- the session features as one
  ``sessions x FEATURE_NAMES`` array computed by batched numpy
  reductions, for a whole data set or for one live stream session.
"""

from repro.columns.alertframe import AlertFrame, DetectorAlerts, ReasonEncoder
from repro.columns.features import FEATURE_NAMES, FeatureMatrix, SessionArrays
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
    "STRING_COLUMNS",
    "TableCache",
    "encode_column",
    "sessionize_frame",
    "timeout_microseconds",
]
