"""Apache HTTP access-log substrate.

This package provides everything needed to work with Apache access logs
the way the paper's data set is consumed:

* :mod:`repro.logs.record` -- the immutable :class:`LogRecord` model.
* :mod:`repro.logs.parser` -- combined/common log format parsing.
* :mod:`repro.logs.writer` -- serialisation back to log lines/files.
* :mod:`repro.logs.dataset` -- the :class:`Dataset` container that binds
  records to optional ground-truth labels and metadata.
* :mod:`repro.logs.sessionization` -- the visitor :class:`Session` (the
  unit most detectors reason about) and the default inactivity timeout.
* :mod:`repro.logs.statuses` -- the HTTP status registry used for the
  paper's Tables 3 and 4.
"""

from repro.logs.dataset import Dataset, DatasetMetadata, GroundTruth
from repro.logs.parser import LogParser, parse_line, parse_lines
from repro.logs.record import LogRecord, RequestMethod
from repro.logs.sessionization import Session
from repro.logs.statuses import STATUS_REGISTRY, describe_status, status_class
from repro.logs.writer import LogWriter, format_record, write_records

__all__ = [
    "Dataset",
    "DatasetMetadata",
    "GroundTruth",
    "LogParser",
    "LogRecord",
    "LogWriter",
    "RequestMethod",
    "STATUS_REGISTRY",
    "Session",
    "describe_status",
    "format_record",
    "parse_line",
    "parse_lines",
    "status_class",
    "write_records",
]
