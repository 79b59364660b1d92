"""Scenario composition over recorded traces.

Real experiments are rarely "one scenario, one run": you want the
recorded background week with a recorded attack dropped on top of day
three, at a chosen time and intensity.  :func:`interleave_traces` does
that *on traces* -- it streams block-by-block through
:class:`~repro.trace.store.TraceReader` /
:class:`~repro.trace.store.TraceWriter`, never materialising more than
one block per input, so composing data sets larger than memory works.

Ground-truth labels are carried through when **both** inputs are
labelled (a labelled input mixed with an unlabelled one yields an
unlabelled trace -- a partially labelled data set would poison the
labelled evaluation), and the operator returns the
:class:`~repro.trace.store.TraceInfo` of the output.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import replace
from datetime import timedelta
from typing import Iterator, Sequence

from repro.exceptions import TraceError
from repro.logs.dataset import DatasetMetadata
from repro.logs.record import LogRecord
from repro.trace.store import TraceInfo, TraceReader, TraceWriter

#: ``(record, label, actor_class)`` as yielded by ``TraceReader.iter_labelled``.
_LabelledStream = Iterator[tuple[LogRecord, str | None, str]]


def _output_metadata(op: str, readers: Sequence[TraceReader]) -> DatasetMetadata:
    names = [reader.info.dataset.get("name") or "unnamed" for reader in readers]
    return DatasetMetadata(
        name=f"{op}({'+'.join(names)})",
        description=f"{op} of {len(readers)} trace(s)",
        source="repro.trace.ops",
    )


def _strip_labels_unless_all(readers: Sequence[TraceReader], stream: _LabelledStream) -> _LabelledStream:
    if all(reader.info.labelled for reader in readers):
        return stream
    return ((record, None, "") for record, _label, _actor in stream)


def _write_stream(output: str, metadata: DatasetMetadata, stream: _LabelledStream) -> TraceInfo:
    """Write the stream to ``output``, numbering the request ids afresh."""
    with TraceWriter(output, metadata=metadata) as writer:
        for index, (record, label, actor_class) in enumerate(stream):
            record = replace(record, request_id=f"r{index}")
            writer.write(record, label=label, actor_class=actor_class)
        return writer.close()


def interleave_traces(
    base: str,
    overlay: str,
    output: str,
    *,
    shift_overlay_seconds: float = 0.0,
    sample_overlay: float | None = None,
    seed: int = 0,
) -> TraceInfo:
    """Merge an overlay trace onto a base trace in timestamp order.

    This is the "recorded attack onto recorded background" operator: the
    overlay can first be time-shifted (to land the campaign where you
    want it in the base window) and down-sampled (to dial its intensity),
    then the two streams are heap-merged by timestamp -- both inputs must
    be time-ordered, which the writer records in the footer.  Request ids
    are reassigned; the output is labelled only if both inputs are.
    """
    readers = [TraceReader(base), TraceReader(overlay)]
    for reader in readers:
        if not reader.info.time_ordered:
            raise TraceError(
                f"interleave needs time-ordered inputs; {reader.path!r} is not "
                "(rewrite it in timestamp order first)"
            )
    base_reader, overlay_reader = readers
    offset = timedelta(seconds=shift_overlay_seconds)
    rng = random.Random(seed)

    def overlay_stream() -> _LabelledStream:
        for record, label, actor_class in overlay_reader.iter_labelled():
            if sample_overlay is not None and rng.random() >= sample_overlay:
                continue
            if shift_overlay_seconds:
                record = replace(record, timestamp=record.timestamp + offset)
            yield record, label, actor_class

    if sample_overlay is not None and not 0.0 < sample_overlay <= 1.0:
        raise TraceError(f"sample_overlay must be in (0, 1], got {sample_overlay}")

    merged = heapq.merge(
        base_reader.iter_labelled(),
        overlay_stream(),
        key=lambda item: item[0].timestamp,
    )
    return _write_stream(
        output,
        _output_metadata("mix", readers),
        _strip_labels_unless_all(readers, merged),
    )
