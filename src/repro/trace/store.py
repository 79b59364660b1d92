"""The trace store: :class:`TraceWriter`, :class:`TraceReader`, :class:`TraceInfo`.

The writer takes :class:`~repro.columns.RecordFrame` blocks (optionally
labelled) and writes the chunked columnar file described in
:mod:`repro.trace.format`: each block's dictionary codes are mapped onto
the trace-global string tables with numpy, so strings are encoded once,
when the frame is built.  Callers holding one record at a time write
through a buffer that turns every ``block_size`` records into one such
frame.  The reader walks a trace back block by block, so traces far
larger than memory replay in bounded space.  Because every frame was
built from checked values, the reader trusts the columns and rebuilds
records through a fast slot-filling path instead of re-running
constructor validation -- replaying a trace is several times cheaper
than regenerating the traffic it recorded.

Module-level helpers cover the common whole-dataset cases::

    info = write_trace(dataset, "march.trace")   # record once
    dataset = read_trace("march.trace")          # replay many
    trace_info("march.trace").records            # O(1), footer only
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import IO, Iterator, Sequence

import numpy as np

from repro.exceptions import TraceError
from repro.logs.dataset import BENIGN, MALICIOUS, Dataset, DatasetMetadata, GroundTruth
from repro.logs.record import LogRecord, RequestMethod
from repro.obs import names as metric_names
from repro.obs.metrics import resolve_registry
from repro.trace.format import (
    BLOCK_TAG,
    DEFAULT_BLOCK_SIZE,
    DICT_COLUMNS,
    FORMAT_VERSION,
    LABEL_NAMES,
    MAGIC,
    META_TAG,
    STRINGS_TAG,
    TRAILER_SIZE,
    BlockColumns,
    decode_block,
    decode_strings_section,
    decode_trailer,
    encode_block,
    encode_section,
    encode_strings_section,
    encode_trailer,
    read_section,
)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)


def _timestamp_us(moment: datetime) -> int:
    """Exact integer microseconds since the epoch (no float rounding)."""
    return (moment - _EPOCH) // _ONE_US


# ----------------------------------------------------------------------
# Info
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceInfo:
    """Everything the footer knows about a trace -- read in O(1)."""

    path: str
    records: int
    labelled: bool
    time_ordered: bool
    block_count: int
    block_size: int
    time_range: tuple[datetime, datetime] | None
    dataset: dict
    version: int
    file_size: int

    def to_dict(self) -> dict:
        """JSON-ready representation (the CLI's ``trace info --json``)."""
        first, last = (None, None) if self.time_range is None else self.time_range
        return {
            "path": self.path,
            "records": self.records,
            "labelled": self.labelled,
            "time_ordered": self.time_ordered,
            "blocks": self.block_count,
            "block_size": self.block_size,
            "time_range": None if first is None else [first.isoformat(), last.isoformat()],
            "dataset": dict(self.dataset),
            "version": self.version,
            "file_size": self.file_size,
        }

    def render(self) -> str:
        """Human-readable summary (the CLI's ``trace info``)."""
        lines = [
            f"trace:        {self.path}",
            f"records:      {self.records:,}",
            f"blocks:       {self.block_count} (block size {self.block_size:,})",
            f"file size:    {self.file_size:,} bytes",
            f"labelled:     {'yes' if self.labelled else 'no'}",
            f"time ordered: {'yes' if self.time_ordered else 'no'}",
        ]
        if self.time_range is not None:
            first, last = self.time_range
            lines.append(f"time range:   {first.isoformat()} .. {last.isoformat()}")
        name = self.dataset.get("name", "")
        scenario = self.dataset.get("scenario", "")
        if name:
            origin = name if not scenario or scenario == name else f"{name} ({scenario})"
            lines.append(f"dataset:      {origin}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class TraceWriter:
    """Write :class:`~repro.columns.RecordFrame` blocks into a trace file.

    :meth:`write_frame` is the one encoding path: it cuts a frame into
    blocks of ``block_size`` rows and maps each block's dictionary codes
    onto the trace-global string tables with numpy, so every string is
    encoded once, by :func:`~repro.columns.frame.encode_column`, when
    its frame is built.  :meth:`write` is a buffer in front of it for
    callers that hold one record at a time (the log importer, the trace
    operators): every ``block_size`` buffered records become one
    ``RecordFrame.from_records`` block.

    Use as a context manager; the footer (string tables, meta section,
    trailer) is written by :meth:`close`.  Labels are all-or-nothing: the
    first write decides whether the trace is labelled, and later writes
    must agree, so a trace can always answer "is this labelled?" from
    its footer alone.
    """

    def __init__(
        self,
        path: str,
        *,
        metadata: DatasetMetadata | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        registry=None,
    ) -> None:
        if block_size < 1:
            raise TraceError("block_size must be at least 1")
        self.path = path
        self.block_size = block_size
        self._registry = resolve_registry(registry)
        self.metadata = metadata or DatasetMetadata()
        # Checked before the file exists: a footer that cannot be written
        # must not cost the caller a half-written trace.
        self._dataset_meta = _metadata_dict(self.metadata)
        self._handle: IO[bytes] | None = open(path, "wb")
        self._handle.write(MAGIC)
        # The trace-global code of every string written so far, per
        # column; insertion order is code order.
        self._tables: dict[str, dict[str, int]] = {name: {} for name in DICT_COLUMNS}
        self._actors: dict[str, int] = {}
        self._buffer: list[LogRecord] = []
        self._buffer_labels: list[str] = []
        self._buffer_actors: list[str] = []
        self._blocks: list[list[int]] = []  # [offset, count, min_us, max_us]
        self._records = 0
        self._labelled: bool | None = None
        self._time_ordered = True
        self._last_us: int | None = None
        self._min_us: int | None = None
        self._max_us: int | None = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if self._handle is not None:
                self.close()
        else:
            self._abandon()

    def _abandon(self) -> None:
        """Close the raw handle without a footer, leaving an invalid file to discard."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _require_open(self) -> None:
        if self._handle is None:
            raise TraceError(f"trace writer for {self.path!r} is closed")

    def _agree_on_labels(self, has_label: bool, what: str) -> None:
        if self._labelled is None:
            self._labelled = has_label
        elif self._labelled != has_label:
            raise TraceError(
                "a trace is labelled all-or-nothing: "
                f"{what} {'has' if has_label else 'lacks'} a label "
                f"but the trace is {'labelled' if self._labelled else 'unlabelled'}"
            )

    # ------------------------------------------------------------------
    def write(self, record: LogRecord, *, label: str | None = None, actor_class: str = "") -> None:
        """Buffer one record (with its ground-truth label, if any)."""
        self._require_open()
        has_label = label is not None
        self._agree_on_labels(has_label, f"record {record.request_id!r}")
        if has_label:
            if label not in LABEL_NAMES:
                raise TraceError(
                    f"unknown label {label!r}; expected {BENIGN!r} or {MALICIOUS!r}"
                )
            self._buffer_labels.append(label)
            self._buffer_actors.append(actor_class)
        self._buffer.append(record)
        if len(self._buffer) >= self.block_size:
            self._flush_buffer()

    def _flush_buffer(self) -> None:
        if not self._buffer:
            return
        from repro.columns import RecordFrame

        frame = RecordFrame.from_records(
            self._buffer,
            labels=self._buffer_labels if self._labelled else None,
            actor_classes=self._buffer_actors if self._labelled else None,
        )
        self._buffer, self._buffer_labels, self._buffer_actors = [], [], []
        self.write_frame(frame)

    def write_frame(self, frame) -> None:
        """Append a frame's rows, ``block_size`` to a block (labels included if it has them).

        Records buffered by :meth:`write` go out first, as a block of
        their own.  The whole frame is checked before its first block is
        written: UTC offsets must be whole seconds and label codes 0
        (benign) or 1 (malicious).
        """
        self._require_open()
        self._flush_buffer()
        count = len(frame)
        if not count:
            return
        labelled = frame.is_labelled
        self._agree_on_labels(labelled, f"a frame of {count} records")
        offsets_s = _whole_second_offsets(frame.tz_offsets_us)
        # Per string table: the trace code of each entry, -1 until first seen.
        mappings = {name: np.full(len(frame.tables[name]), -1, np.int64) for name in DICT_COLUMNS}
        if labelled:
            labels = frame.labels
            if labels.min() < 0 or labels.max() >= len(LABEL_NAMES):
                raise TraceError(
                    f"unknown label codes {labels.min()}..{labels.max()}; "
                    f"expected 0 ({BENIGN!r}) or 1 ({MALICIOUS!r})"
                )
            if frame.actor_codes is not None and frame.actor_table:
                actor_codes, actor_table = frame.actor_codes, frame.actor_table
            else:
                actor_codes, actor_table = np.zeros(count, dtype=np.int64), [""]
            actor_mapping = np.full(len(actor_table), -1, np.int64)

        for start in range(0, count, self.block_size):
            rows = slice(start, start + self.block_size)
            extras = None if frame.extras is None else frame.extras[rows]
            self._write_block(
                BlockColumns(
                    request_ids=frame.request_ids[rows],
                    timestamps_us=frame.timestamps_us[rows],
                    tz_offsets_s=offsets_s[rows],
                    statuses=frame.statuses[rows],
                    sizes=frame.sizes[rows],
                    dict_indices={
                        name: _global_codes(
                            frame.codes[name][rows],
                            frame.tables[name],
                            mappings[name],
                            self._tables[name],
                        )
                        for name in DICT_COLUMNS
                    },
                    labels=labels[rows] if labelled else None,
                    actor_indices=(
                        _global_codes(actor_codes[rows], actor_table, actor_mapping, self._actors)
                        if labelled
                        else None
                    ),
                    extras=[dict(extra) for extra in extras] if extras and any(extras) else None,
                )
            )

    def _write_block(self, columns: BlockColumns) -> None:
        assert self._handle is not None
        timestamps = columns.timestamps_us
        first, low, high = int(timestamps[0]), int(timestamps.min()), int(timestamps.max())
        if (self._last_us is not None and first < self._last_us) or bool(
            (timestamps[1:] < timestamps[:-1]).any()
        ):
            self._time_ordered = False
        self._last_us = int(timestamps[-1])
        self._min_us = low if self._min_us is None else min(self._min_us, low)
        self._max_us = high if self._max_us is None else max(self._max_us, high)
        offset = self._handle.tell()
        section = encode_section(BLOCK_TAG, encode_block(columns))
        self._handle.write(section)
        registry = self._registry
        if registry.enabled:
            registry.counter(
                metric_names.TRACE_BLOCKS_WRITTEN, "Trace blocks encoded and written."
            ).inc()
            registry.counter(
                metric_names.TRACE_WRITTEN_BYTES, "Compressed trace bytes written."
            ).inc(len(section))
            registry.counter(
                metric_names.TRACE_RECORDS_WRITTEN, "Records appended to trace files."
            ).inc(len(columns))
        self._blocks.append([offset, len(columns), low, high])
        self._records += len(columns)

    def close(self) -> TraceInfo:
        """Flush buffered records, write the footer and return the info."""
        if self._handle is None:
            raise TraceError(f"trace writer for {self.path!r} is already closed")
        # Imported here, not at module level: repro.trace is reachable
        # from the package __init__, which defines __version__ last.
        from repro import __version__ as library_version

        try:
            self._flush_buffer()
        except BaseException:
            self._abandon()
            raise
        handle = self._handle
        strings_offset = handle.tell()
        tables = {name: list(table) for name, table in self._tables.items()}
        handle.write(
            encode_section(STRINGS_TAG, encode_strings_section(tables, list(self._actors)))
        )
        meta_offset = handle.tell()
        meta = {
            "format": "repro-trace",
            "version": FORMAT_VERSION,
            "library_version": library_version,
            "records": self._records,
            "labelled": bool(self._labelled),
            "time_ordered": self._time_ordered,
            "block_size": self.block_size,
            "blocks": self._blocks,
            "time_range_us": (
                None if self._min_us is None else [self._min_us, self._max_us]
            ),
            "dataset": self._dataset_meta,
        }
        handle.write(encode_section(META_TAG, json.dumps(meta, separators=(",", ":")).encode("utf-8")))
        handle.write(encode_trailer(strings_offset, meta_offset))
        handle.close()
        self._handle = None
        return _info_from_meta(self.path, meta, os.path.getsize(self.path))


def _metadata_dict(meta: DatasetMetadata) -> dict:
    """The footer's dataset entry; a non-JSON ``extra`` value raises, naming its key."""
    extra: dict = {}
    for key, value in dict(meta.extra).items():
        try:
            extra.update(json.loads(json.dumps({key: value})))
        except (TypeError, ValueError) as exc:
            raise TraceError(
                f"dataset metadata extra[{key!r}] cannot be stored in a trace footer: {exc}"
            ) from exc
    return {
        "name": meta.name,
        "description": meta.description,
        "source": meta.source,
        "scenario": meta.scenario,
        "scale": meta.scale,
        "seed": meta.seed,
        "extra": extra,
    }


def _whole_second_offsets(offsets_us: np.ndarray) -> np.ndarray:
    """UTC offsets in whole seconds; a sub-second offset raises :class:`TraceError`."""
    seconds, rest = np.divmod(offsets_us, 1_000_000)
    if rest.any():
        offset = timedelta(microseconds=int(offsets_us[np.flatnonzero(rest)[0]]))
        raise TraceError(
            f"cannot store sub-second UTC offset {offset!r}; "
            "trace timestamps carry whole-second offsets"
        )
    return seconds


def _global_codes(
    codes: np.ndarray, table: Sequence[str], mapping: np.ndarray, trace_codes: dict[str, int]
) -> np.ndarray:
    """Map one block's frame ``codes`` (into ``table``) onto trace-global codes.

    ``mapping`` remembers the trace code of each ``table`` entry already
    seen; entries new to it are looked up once in ``trace_codes``, and
    strings new to the trace take the next codes in order of first
    appearance -- the order a per-record writer would have given them.
    """
    mapped = mapping[codes]
    unseen = mapped < 0
    if unseen.any():
        fresh, first = np.unique(codes[unseen], return_index=True)
        for code in fresh[np.argsort(first)].tolist():
            mapping[code] = trace_codes.setdefault(table[code], len(trace_codes))
        mapped = mapping[codes]
    return mapped


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
def _info_from_meta(path: str, meta: dict, file_size: int) -> TraceInfo:
    time_range_us = meta.get("time_range_us")
    time_range = None
    if time_range_us is not None:
        first = _EPOCH + timedelta(microseconds=time_range_us[0])
        last = _EPOCH + timedelta(microseconds=time_range_us[1])
        time_range = (first, last)
    return TraceInfo(
        path=path,
        records=meta["records"],
        labelled=meta["labelled"],
        time_ordered=meta["time_ordered"],
        block_count=len(meta["blocks"]),
        block_size=meta["block_size"],
        time_range=time_range,
        dataset=dict(meta.get("dataset", {})),
        version=meta["version"],
        file_size=file_size,
    )


class TraceReader:
    """Read a trace file written by :class:`TraceWriter`.

    Construction reads only the fixed-size trailer and the small meta
    section, so :attr:`info` is O(1) in the trace length.  Iteration
    decodes one block at a time (out-of-core); :meth:`read_dataset`
    materialises everything into a :class:`~repro.logs.dataset.Dataset`.
    """

    def __init__(self, path: str, *, registry=None) -> None:
        self.path = path
        self._registry = resolve_registry(registry)
        try:
            size = os.path.getsize(path)
        except OSError as exc:
            raise TraceError(f"cannot read trace {path!r}: {exc}") from exc
        if size < len(MAGIC) + TRAILER_SIZE:
            raise TraceError(f"{path!r} is too small to be a trace file")
        with open(path, "rb") as handle:
            if handle.read(len(MAGIC)) != MAGIC:
                raise TraceError(f"{path!r} is not a repro trace file (bad magic)")
            handle.seek(size - TRAILER_SIZE)
            strings_offset, meta_offset = decode_trailer(handle.read(TRAILER_SIZE))
            if not len(MAGIC) <= strings_offset <= meta_offset < size:
                raise TraceError(f"{path!r} has an out-of-range trace footer")
            handle.seek(meta_offset)
            try:
                meta = json.loads(read_section(handle, META_TAG).decode("utf-8"))
            except ValueError as exc:
                raise TraceError(f"corrupt trace metadata in {path!r}: {exc}") from exc
        if meta.get("format") != "repro-trace":
            raise TraceError(f"{path!r} metadata does not describe a repro trace")
        if meta.get("version") != FORMAT_VERSION:
            raise TraceError(
                f"unsupported trace version {meta.get('version')!r} in {path!r} "
                f"(this library reads version {FORMAT_VERSION})"
            )
        self._meta = meta
        self._strings_offset = strings_offset
        self._file_size = size
        self.info = _info_from_meta(path, meta, size)
        self._resolved: tuple[dict[str, list], list[str]] | None = None

    def __len__(self) -> int:
        return self.info.records

    def _account_block_read(self, compressed_bytes: int) -> None:
        registry = self._registry
        if registry.enabled:
            registry.counter(
                metric_names.TRACE_BLOCKS_READ, "Trace blocks decoded."
            ).inc()
            registry.counter(
                metric_names.TRACE_READ_BYTES, "Compressed trace bytes read."
            ).inc(compressed_bytes)

    # ------------------------------------------------------------------
    def _load_strings(self) -> tuple[dict[str, list], list[str]]:
        """The resolved string tables (methods as enum members), cached."""
        if self._resolved is None:
            with open(self.path, "rb") as handle:
                handle.seek(self._strings_offset)
                tables, actors = decode_strings_section(read_section(handle, STRINGS_TAG))
            resolved: dict[str, list] = dict(tables)
            resolved["method"] = [RequestMethod(value) for value in tables["method"]]
            self._resolved = (resolved, actors)
        return self._resolved

    # ------------------------------------------------------------------
    def _decoded_blocks(
        self,
        tables: dict[str, list],
        actors: list[str],
        start_us: int | None = None,
        end_us: int | None = None,
    ) -> Iterator[BlockColumns]:
        """Decode, in file order, every block the footer index does not prune."""
        labelled = self.info.labelled
        with open(self.path, "rb") as handle:
            for offset, _count, min_us, max_us in self._meta["blocks"]:
                if start_us is not None and max_us < start_us:
                    continue
                if end_us is not None and min_us >= end_us:
                    continue
                handle.seek(offset)
                columns = decode_block(read_section(handle, BLOCK_TAG), tables, actors)
                self._account_block_read(handle.tell() - offset)
                if labelled and columns.labels is None:
                    raise TraceError(f"labelled trace {self.path!r} has an unlabelled block")
                yield columns

    def iter_blocks(
        self, *, start: datetime | None = None, end: datetime | None = None
    ) -> Iterator[tuple[list[LogRecord], BlockColumns]]:
        """Yield ``(records, decoded columns)`` one block at a time.

        ``start``/``end`` (inclusive/exclusive) prune whole blocks via
        the footer index before any decompression happens; boundary
        blocks are filtered with a timestamp mask before their records
        are built.
        """
        tables, actors = self._load_strings()
        start_us = None if start is None else _timestamp_us(start)
        end_us = None if end is None else _timestamp_us(end)
        for columns in self._decoded_blocks(tables, actors, start_us, end_us):
            if start_us is not None or end_us is not None:
                timestamps = columns.timestamps_us
                keep = np.ones(len(columns), dtype=bool)
                if start_us is not None:
                    keep &= timestamps >= start_us
                if end_us is not None:
                    keep &= timestamps < end_us
                if not keep.all():
                    columns = columns.select(keep)
            if len(columns):
                yield _records_from_columns(columns, tables), columns

    def iter_records(
        self, *, start: datetime | None = None, end: datetime | None = None
    ) -> Iterator[LogRecord]:
        """Yield records block by block (out-of-core replay)."""
        for records, _columns in self.iter_blocks(start=start, end=end):
            yield from records

    def iter_labelled(
        self, *, start: datetime | None = None, end: datetime | None = None
    ) -> Iterator[tuple[LogRecord, str | None, str]]:
        """Yield ``(record, label, actor_class)``; label is ``None`` when unlabelled."""
        _, actors = self._load_strings()
        for records, columns in self.iter_blocks(start=start, end=end):
            if columns.labels is None:
                for record in records:
                    yield record, None, ""
            else:
                for record, label_index, actor_index in zip(
                    records, columns.labels.tolist(), columns.actor_indices.tolist()
                ):
                    yield record, LABEL_NAMES[label_index], actors[actor_index]

    # ------------------------------------------------------------------
    def read_metadata(self) -> DatasetMetadata:
        """The originating dataset's metadata, rebuilt from the footer."""
        data = dict(self._meta.get("dataset", {}))
        return DatasetMetadata(
            name=data.get("name", "unnamed"),
            description=data.get("description", ""),
            source=data.get("source", "trace"),
            scenario=data.get("scenario", ""),
            scale=data.get("scale", 1.0),
            seed=data.get("seed"),
            extra=data.get("extra", {}),
        )

    def read_frame(self):
        """Map the trace straight into a :class:`~repro.columns.RecordFrame`.

        The columnar batch pipeline's trace reader: :func:`decode_block`
        reads each block's integer columns as int64 arrays, the blocks'
        arrays are concatenated, and the trace-global string tables
        become the frame's dictionaries as-is -- no ``LogRecord`` object
        and no per-value Python list is ever built.  Only the request ids
        (and ``extra`` mappings, when a block has any) stay Python lists.
        """
        # Imported lazily: repro.columns is a consumer of this module.
        from repro.columns import RecordFrame

        with open(self.path, "rb") as handle:
            handle.seek(self._strings_offset)
            tables, actors = decode_strings_section(read_section(handle, STRINGS_TAG))

        labelled = self.info.labelled
        request_ids: list[str] = []
        blocks: list[BlockColumns] = []
        extras: list[dict] | None = None
        for columns in self._decoded_blocks(tables, actors):
            if columns.extras is not None and extras is None:
                extras = [{} for _ in range(len(request_ids))]
            if extras is not None:
                extras.extend(columns.extras or ({} for _ in range(len(columns))))
            request_ids.extend(columns.request_ids)
            blocks.append(columns)

        def joined(arrays: list[np.ndarray]) -> np.ndarray:
            return np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)

        if self._registry.enabled:
            self._registry.counter(
                metric_names.FRAME_ROWS, "Rows loaded into a RecordFrame."
            ).inc(len(request_ids), source="trace")
        return RecordFrame(
            request_ids=request_ids,
            timestamps_us=joined([block.timestamps_us for block in blocks]),
            tz_offsets_us=joined([block.tz_offsets_s for block in blocks]) * 1_000_000,
            statuses=joined([block.statuses for block in blocks]),
            sizes=joined([block.sizes for block in blocks]),
            codes={
                name: joined([block.dict_indices[name] for block in blocks])
                for name in DICT_COLUMNS
            },
            tables=dict(tables),
            labels=joined([block.labels for block in blocks]) if labelled else None,
            actor_codes=joined([block.actor_indices for block in blocks]) if labelled else None,
            actor_table=list(actors),
            extras=extras,
            metadata=self.read_metadata(),
            time_ordered=True if self.info.time_ordered else None,
        )

    def read_dataset(self) -> Dataset:
        """Materialise the whole trace as a :class:`Dataset` (with labels)."""
        _, actors = self._load_strings()
        records: list[LogRecord] = []
        ids: list[str] = []
        labels: list[str] = []
        actor_classes: list[str] = []
        labelled = self.info.labelled
        for block_records, columns in self.iter_blocks():
            records.extend(block_records)
            if labelled:
                ids.extend(columns.request_ids)
                labels.extend(LABEL_NAMES[index] for index in columns.labels.tolist())
                actor_classes.extend(actors[index] for index in columns.actor_indices.tolist())
        truth = GroundTruth.from_columns(ids, labels, actor_classes) if labelled else None
        return Dataset(
            records,
            ground_truth=truth,
            metadata=self.read_metadata(),
            time_ordered=self.info.time_ordered,
        )


def _records_from_columns(columns: BlockColumns, tables: dict[str, list]) -> list[LogRecord]:
    """Rebuild a decoded block's records through the fast slot-filling path.

    Every record admitted into a trace was a validated ``LogRecord``, so
    the constructor's ``__post_init__`` checks are skipped here; the
    hypothesis round-trip suite pins the equivalence of the two paths.
    Each column leaves numpy through one ``.tolist()``, and
    :func:`~repro.trace.format.decode_block` has already checked every
    code against its table.
    """
    # Resolve every column to a list of final values first: index lookups
    # in list comprehensions run close to C speed, which keeps the
    # record-assembly loop below as narrow as possible.
    delta = timedelta
    timestamps_us = columns.timestamps_us.tolist()
    tz_offsets = columns.tz_offsets_s.tolist()
    epoch_for: dict[int, datetime] = {
        offset: _EPOCH.astimezone(timezone(delta(seconds=offset))) for offset in set(tz_offsets)
    }
    if len(epoch_for) == 1:
        (epoch,) = epoch_for.values()
        timestamps = [epoch + delta(microseconds=us) for us in timestamps_us]
    else:
        timestamps = [
            epoch_for[off] + delta(microseconds=us) for us, off in zip(timestamps_us, tz_offsets)
        ]
    codes = {name: indices.tolist() for name, indices in columns.dict_indices.items()}
    ips = tables["client_ip"]
    methods = tables["method"]
    paths = tables["path"]
    protocols = tables["protocol"]
    referrers = tables["referrer"]
    agents = tables["user_agent"]
    idents = tables["ident"]
    auth_users = tables["auth_user"]
    extras = columns.extras

    new = object.__new__
    fill = object.__setattr__
    cls = LogRecord
    records: list[LogRecord] = []
    append = records.append
    for rid, ts, ip, method, path, protocol, referrer, agent, ident, auth_user, status, size in zip(
        columns.request_ids,
        timestamps,
        [ips[i] for i in codes["client_ip"]],
        [methods[i] for i in codes["method"]],
        [paths[i] for i in codes["path"]],
        [protocols[i] for i in codes["protocol"]],
        [referrers[i] for i in codes["referrer"]],
        [agents[i] for i in codes["user_agent"]],
        [idents[i] for i in codes["ident"]],
        [auth_users[i] for i in codes["auth_user"]],
        columns.statuses.tolist(),
        columns.sizes.tolist(),
    ):
        record = new(cls)
        fill(record, "request_id", rid)
        fill(record, "timestamp", ts)
        fill(record, "client_ip", ip)
        fill(record, "method", method)
        fill(record, "path", path)
        fill(record, "protocol", protocol)
        fill(record, "status", status)
        fill(record, "response_size", size)
        fill(record, "referrer", referrer)
        fill(record, "user_agent", agent)
        fill(record, "ident", ident)
        fill(record, "auth_user", auth_user)
        fill(record, "extra", {})
        append(record)
    if extras is not None:
        # Non-empty ``extra`` mappings are rare; patch them in afterwards
        # rather than widening the hot loop above.
        for record, extra in zip(records, extras):
            if extra:
                fill(record, "extra", dict(extra))
    return records


# ----------------------------------------------------------------------
# Whole-file helpers
# ----------------------------------------------------------------------
def write_trace(
    dataset: Dataset, path: str, *, block_size: int = DEFAULT_BLOCK_SIZE, registry=None
) -> TraceInfo:
    """Record a data set (records, labels, metadata) as a trace file.

    A frame-backed data set (generated traffic) is written from its
    frame; no record is built.  A record-built one goes through
    ``RecordFrame.from_records`` one block at a time, labels included
    when every record has one.
    """
    from repro.columns import RecordFrame

    with TraceWriter(
        path, metadata=dataset.metadata, block_size=block_size, registry=registry
    ) as writer:
        if dataset.frame is not None:
            writer.write_frame(dataset.frame)
        else:
            records = dataset.records
            labels, actor_classes = dataset.label_columns() or (None, None)
            for start in range(0, len(records), block_size):
                rows = slice(start, start + block_size)
                writer.write_frame(
                    RecordFrame.from_records(
                        records[rows],
                        labels=None if labels is None else labels[rows],
                        actor_classes=None if actor_classes is None else actor_classes[rows],
                    )
                )
        return writer.close()


def read_trace(path: str, *, registry=None) -> Dataset:
    """Replay a trace file into a fully materialised :class:`Dataset`."""
    return TraceReader(path, registry=registry).read_dataset()


def trace_info(path: str) -> TraceInfo:
    """The footer summary of a trace -- O(1), no block is ever read."""
    return TraceReader(path).info
