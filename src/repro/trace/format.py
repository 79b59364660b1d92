"""The binary layout of a trace file (version 1).

A trace is a write-once, replay-many container for a stream of
:class:`~repro.logs.record.LogRecord` objects (optionally with their
ground-truth labels).  The layout is chunked and columnar::

    +--------------------------------------------------------------+
    | MAGIC  b"RTRC\\x01"                                          |
    +--------------------------------------------------------------+
    | block 0:  b"B" + uint32 length + zlib(columnar block body)   |
    | block 1:  ...                                                |
    +--------------------------------------------------------------+
    | strings:  b"D" + uint32 length + zlib(JSON string tables)    |
    +--------------------------------------------------------------+
    | meta:     b"M" + uint32 length + JSON metadata               |
    +--------------------------------------------------------------+
    | trailer:  uint64 strings offset, uint64 meta offset, MAGIC   |
    +--------------------------------------------------------------+

Each block holds up to ``block_size`` records, stored as columns:
timestamps are delta-encoded microseconds (plus a per-record UTC-offset
column, so exotic timezones survive the round trip), numeric columns are
packed 64-bit arrays, and every string column (client IP, method, path,
protocol, referrer, user agent, ident, auth user, actor class) is
dictionary-encoded against trace-global string tables written once in
the strings section.  Request ids are stored verbatim (as a JSON list
per block) because they are unique by construction and would defeat a
dictionary.  The whole block body is zlib-compressed.

The meta section is deliberately tiny and *uncompressed*: record count,
time range, label presence, the per-block index (offset, count, time
range) and the originating dataset metadata.  A reader seeks to the
fixed-size trailer, jumps to the meta section and has everything
``repro trace info`` needs without touching a single block -- O(1) in
the trace length.

This module is the pure byte-level layer: it converts between
:class:`BlockColumns` -- one block's int64 arrays and request ids -- and
bytes.  :func:`encode_block` is the one block encoder: it packs every
integer column with ``tobytes`` and takes the timestamp deltas with
``np.diff``.  :func:`decode_block` is the one block decoder: it reads
every integer column straight back into an int64 array and checks every
dictionary code against the trace's tables, for the frame reader and
the record replay alike.  Mapping a frame's codes onto the trace-global
tables, and record-object conversion, live in :mod:`repro.trace.store`.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import TraceError

#: File magic, doubling as the format version stamp.
MAGIC = b"RTRC\x01"

#: Version recorded in the meta section (bump together with :data:`MAGIC`).
FORMAT_VERSION = 1

#: Section tags.
BLOCK_TAG = b"B"
STRINGS_TAG = b"D"
META_TAG = b"M"

#: The dictionary-encoded string columns, in on-disk order.
DICT_COLUMNS = (
    "client_ip",
    "method",
    "path",
    "protocol",
    "referrer",
    "user_agent",
    "ident",
    "auth_user",
)

#: Fixed label table (index 0 / 1 in the label column).
LABEL_NAMES = ("benign", "malicious")

#: Default number of records per block.
DEFAULT_BLOCK_SIZE = 8192

_SECTION_HEADER = struct.Struct("<cI")
_TRAILER = struct.Struct("<QQ5s")
TRAILER_SIZE = _TRAILER.size

def _pack_ints(values: np.ndarray) -> bytes:
    """An integer column as little-endian int64 bytes."""
    return np.asarray(values, dtype="<i8").tobytes()


@dataclass
class BlockColumns:
    """One block of records, as parallel columns.

    Every integer column is an int64 array with one entry per record.
    ``dict_indices`` maps each :data:`DICT_COLUMNS` name to the codes
    into the trace-global string table for that column; ``labels`` /
    ``actor_indices`` are ``None`` for unlabelled traces; ``extras`` is
    ``None`` when every record's ``extra`` mapping is empty (the
    overwhelmingly common case).
    """

    request_ids: list[str]
    timestamps_us: np.ndarray
    tz_offsets_s: np.ndarray
    statuses: np.ndarray
    sizes: np.ndarray
    dict_indices: dict[str, np.ndarray]
    labels: np.ndarray | None = None
    actor_indices: np.ndarray | None = None
    extras: list[dict] | None = None

    def __len__(self) -> int:
        return len(self.timestamps_us)

    def select(self, keep: np.ndarray) -> "BlockColumns":
        """The records of a decoded block where the boolean mask ``keep`` holds."""
        flags = keep.tolist()
        return BlockColumns(
            request_ids=list(compress(self.request_ids, flags)),
            timestamps_us=self.timestamps_us[keep],
            tz_offsets_s=self.tz_offsets_s[keep],
            statuses=self.statuses[keep],
            sizes=self.sizes[keep],
            dict_indices={name: codes[keep] for name, codes in self.dict_indices.items()},
            labels=None if self.labels is None else self.labels[keep],
            actor_indices=None if self.actor_indices is None else self.actor_indices[keep],
            extras=None if self.extras is None else list(compress(self.extras, flags)),
        )


def encode_block(columns: BlockColumns) -> bytes:
    """Encode one block of columns as a compressed body (no section header)."""
    count = len(columns)
    if count == 0:
        raise TraceError("cannot encode an empty block")
    timestamps = columns.timestamps_us
    parts: list[bytes] = [struct.pack("<Iq", count, int(timestamps[0]))]

    def add(payload: bytes) -> None:
        parts.append(struct.pack("<I", len(payload)))
        parts.append(payload)

    # The first delta is 0: the block header carries the first timestamp.
    add(_pack_ints(np.diff(timestamps, prepend=timestamps[:1])))
    # UTC offsets are near-constant; stored plain, zlib erases the runs.
    add(_pack_ints(columns.tz_offsets_s))
    add(_pack_ints(columns.statuses))
    add(_pack_ints(columns.sizes))
    for name in DICT_COLUMNS:
        add(_pack_ints(columns.dict_indices[name]))
    add(json.dumps(columns.request_ids, separators=(",", ":")).encode("utf-8"))
    add(_pack_ints(columns.labels) if columns.labels is not None else b"")
    add(_pack_ints(columns.actor_indices) if columns.actor_indices is not None else b"")
    add(
        json.dumps(columns.extras, separators=(",", ":")).encode("utf-8")
        if columns.extras is not None
        else b""
    )
    return zlib.compress(b"".join(parts))


def _ints(payload: memoryview, column: str) -> np.ndarray:
    """An int64 column, read in place from its little-endian bytes."""
    if len(payload) % 8:
        raise TraceError(
            f"corrupt trace block: the {column} column has {len(payload)} bytes, "
            "not a whole number of int64 values"
        )
    return np.frombuffer(payload, dtype="<i8").astype(np.int64, copy=False)


def _check_codes(codes: np.ndarray, size: int, column: str) -> None:
    """Reject dictionary codes outside ``range(size)`` (one min and max per column)."""
    if len(codes) and (codes.min() < 0 or codes.max() >= size):
        raise TraceError(
            f"corrupt trace block: {column} codes {codes.min()}..{codes.max()} "
            f"fall outside its table of {size} entries"
        )


def decode_block(
    body: bytes, tables: Mapping[str, Sequence], actors: Sequence
) -> BlockColumns:
    """Decode a compressed block body into :class:`BlockColumns` of int64 arrays.

    Timestamps are rebuilt as ``first + cumsum(deltas)``, which is exact
    because every stored timestamp and delta fits in int64.  Each
    dictionary column's codes are checked against the trace-global
    ``tables`` (labels against :data:`LABEL_NAMES`, actor codes against
    ``actors``), so a corrupt code fails here, naming its column, instead
    of indexing a table from the end or past it.
    """
    try:
        raw = zlib.decompress(body)
    except zlib.error as exc:
        raise TraceError(f"corrupt trace block: {exc}") from exc
    view = memoryview(raw)
    try:
        count, first_ts = struct.unpack_from("<Iq", view, 0)
        offset = 12

        def take() -> memoryview:
            nonlocal offset
            (length,) = struct.unpack_from("<I", view, offset)
            offset += 4
            payload = view[offset : offset + length]
            if len(payload) != length:
                raise TraceError("truncated trace block")
            offset += length
            return payload

        timestamps = first_ts + np.cumsum(_ints(take(), "timestamp"))
        tz_offsets = _ints(take(), "tz_offset")
        statuses = _ints(take(), "status")
        sizes = _ints(take(), "size")
        dict_indices = {name: _ints(take(), name) for name in DICT_COLUMNS}
        request_ids = json.loads(bytes(take()).decode("utf-8"))
        labels_buf = take()
        actors_buf = take()
        extras_buf = take()
    except (struct.error, ValueError) as exc:
        raise TraceError(f"corrupt trace block: {exc}") from exc

    columns = BlockColumns(
        request_ids=request_ids,
        timestamps_us=timestamps,
        tz_offsets_s=tz_offsets,
        statuses=statuses,
        sizes=sizes,
        dict_indices=dict_indices,
        labels=_ints(labels_buf, "label") if labels_buf else None,
        actor_indices=_ints(actors_buf, "actor") if actors_buf else None,
        extras=json.loads(bytes(extras_buf).decode("utf-8")) if extras_buf else None,
    )
    optional = (columns.labels, columns.actor_indices, columns.extras)
    lengths = {
        len(columns.request_ids),
        len(columns.timestamps_us),
        len(columns.tz_offsets_s),
        len(columns.statuses),
        len(columns.sizes),
        *(len(indices) for indices in columns.dict_indices.values()),
        *(len(column) for column in optional if column is not None),
    }
    if lengths != {count} or (columns.labels is None) != (columns.actor_indices is None):
        raise TraceError(f"inconsistent column lengths in trace block (expected {count})")
    for name in DICT_COLUMNS:
        _check_codes(dict_indices[name], len(tables[name]), name)
    if columns.labels is not None:
        _check_codes(columns.labels, len(LABEL_NAMES), "label")
        _check_codes(columns.actor_indices, len(actors), "actor")
    return columns


def encode_section(tag: bytes, payload: bytes) -> bytes:
    """Frame a section payload with its tag and length."""
    return _SECTION_HEADER.pack(tag, len(payload)) + payload


def read_section(handle, expected_tag: bytes) -> bytes:
    """Read one framed section from ``handle``, checking its tag."""
    header = handle.read(_SECTION_HEADER.size)
    if len(header) != _SECTION_HEADER.size:
        raise TraceError("truncated trace file (section header)")
    tag, length = _SECTION_HEADER.unpack(header)
    if tag != expected_tag:
        raise TraceError(f"unexpected trace section {tag!r} (wanted {expected_tag!r})")
    payload = handle.read(length)
    if len(payload) != length:
        raise TraceError("truncated trace file (section payload)")
    return payload


def encode_trailer(strings_offset: int, meta_offset: int) -> bytes:
    """The fixed-size trailer pointing at the strings and meta sections."""
    return _TRAILER.pack(strings_offset, meta_offset, MAGIC)


def decode_trailer(buf: bytes) -> tuple[int, int]:
    """Parse the trailer, returning (strings offset, meta offset)."""
    if len(buf) != TRAILER_SIZE:
        raise TraceError("truncated trace file (trailer)")
    strings_offset, meta_offset, magic = _TRAILER.unpack(buf)
    if magic != MAGIC:
        raise TraceError(
            "not a repro trace file (bad trailer magic); "
            "was it written by a different format version?"
        )
    return strings_offset, meta_offset


def encode_strings_section(tables: dict[str, list[str]], actors: list[str]) -> bytes:
    """Encode the trace-global string tables (dictionary values)."""
    payload = json.dumps(
        {"columns": tables, "actors": actors}, separators=(",", ":")
    ).encode("utf-8")
    return zlib.compress(payload)


def decode_strings_section(payload: bytes) -> tuple[dict[str, list[str]], list[str]]:
    """Inverse of :func:`encode_strings_section`."""
    try:
        data = json.loads(zlib.decompress(payload).decode("utf-8"))
        tables = data["columns"]
        actors = data["actors"]
    except (zlib.error, ValueError, KeyError) as exc:
        raise TraceError(f"corrupt trace string tables: {exc}") from exc
    missing = set(DICT_COLUMNS) - set(tables)
    if missing:
        raise TraceError(f"trace string tables missing columns: {sorted(missing)}")
    return tables, actors
