"""Record sources for the streaming engine.

The engine consumes any iterable of :class:`~repro.logs.record.LogRecord`
objects.  This module provides the three sources named by the roadmap:

* :func:`dataset_replay` -- replay an existing :class:`~repro.logs.dataset.Dataset`
  in arrival (timestamp) order, as the requests would have reached the
  server.  This is the source the batch-equivalence bridge uses.
* :func:`generator_feed` -- generate a :class:`~repro.traffic.scenarios.Scenario`
  and feed its records live, so synthetic botnet bursts can be judged as
  they "happen".
* :func:`tail_log_file` -- follow an Apache access log on disk (the
  classic ``tail -f`` deployment), parsing each appended line with
  :mod:`repro.logs.parser`.  ``.gz`` files are read transparently.
* :func:`trace_replay` -- replay a recorded :mod:`repro.trace` file
  block by block, so the records never all sit in memory.  What grows
  with the stream is the engine's result: every record's request id
  (an 8-byte row entry plus the ~55-byte id string) and 1 adjudicator
  byte, and 20 bytes of columns per final alert.  A finished replay of
  the scale-0.05 trace (72,049 records, 220,341 final alerts) holds
  10.5 MB, 146 bytes per record; with one ``Alert`` object per final
  alert it held 52.4 MB (727 bytes per record, ~216 per alert).  The
  engine's string tables grow too, with each distinct value: about 80
  bytes per table entry plus the string itself (3.3 MB for the 41,090
  entries of the scale-0.05 trace, most of them distinct raw paths;
  about 46 bytes per record there).  A trace larger than memory
  replays as long as the result and the tables fit.
"""

from __future__ import annotations

import time
from datetime import datetime
from typing import Iterator

from repro.logs.dataset import Dataset
from repro.logs.parser import open_log, parse_line
from repro.logs.record import LogRecord
from repro.exceptions import LogParseError


def dataset_replay(dataset: Dataset) -> Iterator[LogRecord]:
    """Yield the data set's records in timestamp order.

    The sort is stable, so records sharing a timestamp keep their log
    order -- exactly the order the batch :class:`~repro.logs.sessionization.Sessionizer`
    processes them in, which is what makes batch/stream equivalence exact.

    Data sets that are already timestamp-ordered (generated and
    trace-replayed data sets say so at construction; anything else is
    settled by one cached O(n) scan) are yielded as-is, without
    materialising a sorted copy.
    """
    if dataset.is_time_ordered:
        yield from dataset.records
    else:
        yield from sorted(dataset.records, key=lambda record: record.timestamp)


def trace_replay(
    path: str,
    *,
    start: datetime | None = None,
    end: datetime | None = None,
    registry=None,
) -> Iterator[LogRecord]:
    """Replay a recorded trace file in timestamp order, out-of-core.

    This is the trace-backed engine source: blocks are decoded one at a
    time, so the peak footprint is one block regardless of trace size.
    ``start``/``end`` prune whole blocks via the trace's footer index
    before anything is decompressed.  A trace whose footer says it is
    not time-ordered (e.g. imported from an oddly interleaved rotation
    set) is materialised and sorted first -- correctness over memory.
    """
    from repro.trace.store import TraceReader

    reader = TraceReader(path, registry=registry)
    if reader.info.time_ordered:
        yield from reader.iter_records(start=start, end=end)
    else:
        yield from sorted(
            reader.iter_records(start=start, end=end), key=lambda record: record.timestamp
        )


def generator_feed(scenario, *, seed: int | None = None) -> Iterator[LogRecord]:
    """Generate a scenario's traffic and stream it in arrival order.

    The import is local so that :mod:`repro.stream` does not pull the
    whole traffic simulator in for deployments that only tail real logs.
    """
    from repro.traffic.generator import generate_dataset

    yield from dataset_replay(generate_dataset(scenario, seed=seed))


def tail_log_file(
    path: str,
    *,
    follow: bool = False,
    poll_interval: float = 0.2,
    max_idle_polls: int | None = 25,
    skip_malformed: bool = True,
    request_id_prefix: str = "r",
) -> Iterator[LogRecord]:
    """Yield records from an Apache access log, optionally following it.

    Parameters
    ----------
    path:
        The access-log file to read (``.gz`` files are decompressed).
    follow:
        When true, keep polling for appended lines after reaching the end
        of the file (``tail -f``); otherwise stop at EOF.
    poll_interval:
        Seconds to sleep between polls while following.
    max_idle_polls:
        Stop following after this many consecutive empty polls (``None``
        follows forever).  A bounded default keeps tests and demos from
        hanging.
    skip_malformed:
        When true, lines that do not parse are silently skipped (real
        logs always contain a little garbage); otherwise
        :class:`~repro.exceptions.LogParseError` propagates.
    request_id_prefix:
        Prefix for the line-number-derived request ids.
    """
    if poll_interval <= 0:
        raise ValueError("poll_interval must be positive")
    line_number = 0
    emitted = 0
    idle_polls = 0
    pending = ""

    def parse_pending(line: str) -> LogRecord | None:
        nonlocal line_number, emitted
        line_number += 1
        if not line.strip():
            return None
        try:
            # Ids count *parsed* records (same numbering as
            # :func:`repro.logs.parser.parse_lines`), so tailing a
            # dirty log yields the same request ids as a batch parse.
            record = parse_line(
                line,
                request_id=f"{request_id_prefix}{emitted}",
                line_number=line_number,
            )
        except LogParseError:
            if not skip_malformed:
                raise
            return None
        emitted += 1
        return record

    with open_log(path) as handle:
        while True:
            chunk = handle.readline()
            if chunk:
                idle_polls = 0
                pending += chunk
                if follow and not pending.endswith("\n"):
                    # The writer has not finished this line yet; wait for
                    # the rest rather than parsing (and losing) a fragment.
                    continue
                line, pending = pending, ""
                record = parse_pending(line)
                if record is not None:
                    yield record
                continue
            if not follow:
                return
            idle_polls += 1
            if max_idle_polls is not None and idle_polls >= max_idle_polls:
                if pending:
                    record = parse_pending(pending)
                    if record is not None:
                        yield record
                return
            time.sleep(poll_interval)
