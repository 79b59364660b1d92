"""repro.trace -- a persistent, replayable substrate for traffic.

Every workload in this reproduction consumes a stream of
:class:`~repro.logs.record.LogRecord` objects; until this package, that
stream had to be regenerated (or re-parsed) from scratch on every run.
A *trace* is the write-once/replay-many answer: a chunked, columnar,
compressed on-disk format (:mod:`repro.trace.format`) with

* a :class:`TraceWriter` / :class:`TraceReader` pair that streams block
  by block, so traces far larger than memory record and replay in
  bounded space (:mod:`repro.trace.store`);
* an O(1) footer -- record count, time range, label presence, per-block
  index -- behind :func:`trace_info` and ``repro trace info``;
* a content-addressed generation cache keyed by the hash of the
  generation inputs, which makes ``execute()`` record on first run and
  replay thereafter (:mod:`repro.trace.cache`);
* a composition operator that interleaves a recorded attack onto a
  recorded background, time-shifted and sampled, streaming both traces
  into a new one (:mod:`repro.trace.ops`); and
* an importer for real Apache combined-log-format files, including
  gzipped and rotated sets (:mod:`repro.trace.importer`) -- the paper's
  actual data modality.

Quickstart::

    from repro.trace import write_trace, read_trace, trace_info

    write_trace(dataset, "march.trace")     # record once (labels included)
    dataset = read_trace("march.trace")     # replay many, ~O(I/O)
    print(trace_info("march.trace").records)  # footer only, O(1)

or let the cache do it transparently::

    spec = RunSpec(mode="tables", traffic=TrafficSpec(scale=0.1, cache=True))
    execute(spec)   # generates and records under .repro-cache/
    execute(spec)   # replays the recording
"""

from repro.trace.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    GenerationCache,
    default_cache,
    traffic_fingerprint,
)
from repro.trace.format import DEFAULT_BLOCK_SIZE, FORMAT_VERSION
from repro.trace.importer import ImportReport, expand_rotated, import_clf
from repro.trace.ops import interleave_traces
from repro.trace.store import (
    TraceInfo,
    TraceReader,
    TraceWriter,
    read_trace,
    trace_info,
    write_trace,
)

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CACHE_DIR",
    "FORMAT_VERSION",
    "GenerationCache",
    "ImportReport",
    "TraceInfo",
    "TraceReader",
    "TraceWriter",
    "default_cache",
    "expand_rotated",
    "import_clf",
    "interleave_traces",
    "read_trace",
    "trace_info",
    "traffic_fingerprint",
    "write_trace",
]
