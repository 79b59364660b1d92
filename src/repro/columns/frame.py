"""The :class:`RecordFrame`: a data set as numpy column arrays.

A frame holds the same information as a list of
:class:`~repro.logs.record.LogRecord` objects, laid out for vector
processing instead of object traversal:

* timestamps as int64 microseconds since the epoch (plus a per-record
  UTC-offset column in microseconds, so wall-clock features such as the
  night fraction survive exotic timezones),
* statuses and response sizes as packed int64 columns,
* every string column (client IP, method, path, protocol, referrer,
  user agent, ident, auth user) dictionary-encoded: an integer *code*
  per record into a frame-global *table* of distinct values.

Dictionary encoding is what makes the batch hot path cheap: predicates
that depend only on the string value -- "is this path a static asset?",
"is this user agent a scripted client?" -- are evaluated once per
*distinct* value and gathered through the code arrays, instead of once
per record.  Those per-entry values are cached per table
(:class:`TableCache`), and the per-record columns on the frame.

Frames are immutable by convention: nothing in the library mutates a
frame after construction, so derived columns and views can be shared
freely.

The record-object API remains available as a thin compatibility layer:
:meth:`RecordFrame.iter_records` rebuilds validated ``LogRecord``
objects through the same fast slot-filling path the trace reader uses,
and :meth:`RecordFrame.to_dataset` wraps the frame in a
:class:`~repro.logs.dataset.Dataset` that builds its records and ground
truth only when a caller asks for them.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import ColumnsError, LabelError
from repro.logs.dataset import BENIGN, MALICIOUS, Dataset, DatasetMetadata, GroundTruth
from repro.logs.record import ASSET_SUFFIXES, LogRecord, RequestMethod, split_url_paths
from repro.obs.names import FRAME_ROWS

#: The dictionary-encoded string columns, in canonical order (matches
#: the trace format's on-disk order).
STRING_COLUMNS = (
    "client_ip",
    "method",
    "path",
    "protocol",
    "referrer",
    "user_agent",
    "ident",
    "auth_user",
)

#: Fixed label table (code 0 / 1 in the label column); mirrors
#: :data:`repro.trace.format.LABEL_NAMES`.
LABEL_NAMES = ("benign", "malicious")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)

#: The metadata of a frame built over existing tables without any; it
#: is frozen, so such frames share it.
_NO_METADATA = DatasetMetadata()


class Dictionary:
    """A growable dictionary encoder: each distinct value gets the next code.

    The library's one value-to-code encoder.  :func:`encode_column`
    encodes a whole column into a fresh dictionary -- the generator's
    and the record path's frame strings, labels and actor classes,
    URL-path factorization and reputation prefixes.  A stream engine
    keeps one per string column and encodes each record as it arrives
    (:meth:`code`), so its tables grow only with distinct values.  The
    trace writer does not encode again: it maps a frame's codes onto the
    trace-global tables.

    :attr:`values` is the table, the value behind each code in
    first-appearance order.  It only ever grows and is never replaced,
    so frames may share it while the dictionary grows.
    """

    __slots__ = ("index", "values")

    def __init__(self) -> None:
        self.index: dict = {}
        self.values: list = []

    def code(self, value) -> int:
        """The code of one value, added to the table when it is new."""
        code = self.index.get(value)
        if code is None:
            code = self.index[value] = len(self.values)
            self.values.append(value)
        return code

    def encode(self, values) -> np.ndarray:
        """The codes of a value column, new values added in first-appearance order.

        ``dict.fromkeys`` deduplicates at C speed in first-appearance
        order; the per-value pass is then a C-level ``map`` through the
        finished dictionary.
        """
        index = self.index
        if index:
            table = self.values
            for value in dict.fromkeys(values):
                if value not in index:
                    index[value] = len(table)
                    table.append(value)
        else:
            index = dict.fromkeys(values)
            for code, key in enumerate(index):
                index[key] = code
            self.index = index
            self.values.extend(index)
        return np.fromiter(map(index.__getitem__, values), np.int64, len(values))


def encode_column(values) -> tuple[np.ndarray, list]:
    """Dictionary-encode a value column: ``(codes, table)``, through a fresh :class:`Dictionary`."""
    dictionary = Dictionary()
    return dictionary.encode(values), dictionary.values


def _extend(entry: list, tail) -> None:
    """Append ``tail`` to a cached ``[buffer, count, ...]`` entry, doubling the buffer when full."""
    buffer, count = entry[0], entry[1]
    end = count + len(tail)
    if end > len(buffer):
        grown = np.empty(max(end, 2 * len(buffer)), dtype=buffer.dtype)
        grown[:count] = buffer[:count]
        entry[0] = buffer = grown
    buffer[count:end] = tail
    entry[1] = end


class TableCache:
    """Values derived from each entry of a frame's string tables, cached per table.

    Predicates that depend only on a string value -- "is this path a
    static asset?", "is this agent a known crawler?" -- run once per
    table entry and are gathered through the code arrays.  A batch frame
    computes each once, and its row subsets (:meth:`RecordFrame.take`)
    share the cache.  A stream engine keeps one cache for its growing
    tables (:class:`~repro.stream.columnar.StreamEncoder`): when a table
    has grown since the last call, only the new entries are computed, so
    each derived value is computed once per distinct value.

    Each derived value has a caller-chosen key, unique within the cache.
    A table may only grow at its end, as a :class:`Dictionary` table does.
    A value too costly to derive for a whole table is memoised per entry
    instead, only for the entries asked about (:meth:`memo`).
    """

    __slots__ = ("_entries", "_url_paths", "_memos")

    def __init__(self) -> None:
        self._entries: dict[Hashable, list] = {}
        self._url_paths: list | None = None
        self._memos: dict[Hashable, dict] = {}

    def flags(self, key: Hashable, table: Sequence, predicate) -> np.ndarray:
        """Boolean ``predicate`` of every entry of ``table``."""
        n = len(table)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = [np.fromiter(map(predicate, table), bool, n), n]
        elif entry[1] < n:
            done = entry[1]
            _extend(entry, np.fromiter(map(predicate, table[done:n]), bool, n - done))
        return entry[0][:n]

    def values(self, key: Hashable, table: Sequence, function) -> list:
        """``function`` of every entry of ``table``, as a list (do not mutate it)."""
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = [list(map(function, table))]
        elif len(entry[0]) < len(table):
            entry[0].extend(map(function, table[len(entry[0]) :]))
        return entry[0]

    def memo(self, key: Hashable) -> dict:
        """The dictionary that memoises one derived value per table entry (code -> value)."""
        memo = self._memos.get(key)
        if memo is None:
            memo = self._memos[key] = {}
        return memo

    def url_paths(self, paths: Sequence[str]) -> tuple[np.ndarray, list[str]]:
        """The URL-path code of each entry of a path table, and the URL-path table."""
        n = len(paths)
        cached = self._url_paths
        if cached is None:
            dictionary = Dictionary()
            self._url_paths = cached = [dictionary.encode(split_url_paths(paths)), n, dictionary]
        elif cached[1] < n:
            _extend(cached, cached[2].encode(split_url_paths(paths[cached[1] : n])))
        return cached[0][:n], cached[2].values


def epoch_microseconds(moment: datetime) -> int:
    """Microseconds since the epoch; a naive moment is read as UTC, as ``LogRecord`` does.

    Divided by ``1e6`` it is exactly ``moment.timestamp()`` of an aware
    moment: both divide the same integer microseconds by a million,
    rounding once.
    """
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return (moment - _EPOCH) // _ONE_US


def utc_offset_microseconds(moment: datetime) -> int:
    """The moment's UTC offset in microseconds (0 for a naive moment)."""
    offset = moment.utcoffset()
    return 0 if offset is None else offset // _ONE_US


def _timestamp_columns(moments: Sequence[datetime], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds since the epoch and UTC offsets in microseconds; naive moments are UTC."""
    epoch = _EPOCH
    one_us = _ONE_US
    tz_cache: dict[object, int] = {}

    def offset_of(moment: datetime) -> int:
        tzinfo = moment.tzinfo
        # Only datetime.timezone is fixed-offset by construction; a
        # zoneinfo/pytz zone answers utcoffset() per moment (DST), so
        # it must never be cached per tzinfo object.
        if type(tzinfo) is timezone:
            cached = tz_cache.get(tzinfo)
            if cached is None:
                cached = moment.utcoffset() // one_us
                tz_cache[tzinfo] = cached
            return cached
        return utc_offset_microseconds(moment)

    try:
        timestamps = np.fromiter(((moment - epoch) // one_us for moment in moments), np.int64, n)
    except TypeError:  # a naive moment: read it as UTC, as LogRecord does
        moments = [
            moment if moment.tzinfo is not None else moment.replace(tzinfo=timezone.utc)
            for moment in moments
        ]
        timestamps = np.fromiter(((moment - epoch) // one_us for moment in moments), np.int64, n)
    return timestamps, np.fromiter(map(offset_of, moments), np.int64, n)


def _count_rows(registry, rows: int, source: str) -> None:
    if registry is not None:
        registry.counter(FRAME_ROWS, "Rows loaded into a RecordFrame.").inc(rows, source=source)


class RecordFrame:
    """An immutable columnar view of a sequence of log records."""

    def __init__(
        self,
        *,
        request_ids: Sequence[str],
        timestamps_us: np.ndarray,
        tz_offsets_us: np.ndarray,
        statuses: np.ndarray,
        sizes: np.ndarray,
        codes: Mapping[str, np.ndarray],
        tables: Mapping[str, Sequence[str]],
        labels: np.ndarray | None = None,
        actor_codes: np.ndarray | None = None,
        actor_table: Sequence[str] = (),
        extras: Sequence[Mapping] | None = None,
        metadata: DatasetMetadata | None = None,
        time_ordered: bool | None = None,
    ) -> None:
        self.request_ids = list(request_ids)
        n = len(self.request_ids)
        self.timestamps_us = np.asarray(timestamps_us, dtype=np.int64)
        self.tz_offsets_us = np.asarray(tz_offsets_us, dtype=np.int64)
        self.statuses = np.asarray(statuses, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.codes = {name: np.asarray(codes[name], dtype=np.int64) for name in STRING_COLUMNS}
        self.tables = {name: list(tables[name]) for name in STRING_COLUMNS}
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)
        self.actor_codes = (
            None if actor_codes is None else np.asarray(actor_codes, dtype=np.int64)
        )
        self.actor_table = list(actor_table)
        self.extras = None if extras is None else list(extras)
        self.metadata = metadata or DatasetMetadata()
        self._time_ordered = time_ordered
        self._derived: dict[str, np.ndarray] = {}
        self._table_cache = TableCache()
        self._url_paths: tuple[np.ndarray, list[str]] | None = None
        self._row_index: dict[str, int] | None = None

        lengths = {
            len(self.timestamps_us),
            len(self.tz_offsets_us),
            len(self.statuses),
            len(self.sizes),
            *(len(self.codes[name]) for name in STRING_COLUMNS),
        }
        if lengths != {n}:
            raise ColumnsError(f"inconsistent column lengths in frame (expected {n})")
        if self.labels is not None and len(self.labels) != n:
            raise ColumnsError("label column length does not match the frame")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.request_ids)

    @property
    def is_labelled(self) -> bool:
        """True when the frame carries a ground-truth label per record."""
        return self.labels is not None

    def string(self, column: str, code: int) -> str:
        """The string value behind one dictionary code."""
        return self.tables[column][code]

    def row_index(self) -> dict[str, int]:
        """``{request_id: row}`` for the frame, built once and cached.

        The bridge between id-keyed APIs (:class:`~repro.core.alerts.AlertSet`)
        and row-indexed alert arrays; do not mutate the returned mapping.
        """
        if self._row_index is None:
            self._row_index = {rid: i for i, rid in enumerate(self.request_ids)}
        return self._row_index

    def status_dictionary(self) -> tuple[np.ndarray, np.ndarray]:
        """Dictionary-encode the status column: ``(values, codes)``, cached.

        ``values`` holds the distinct status codes in ascending order and
        ``codes`` maps each record to its index in ``values`` -- the
        substrate for the vectorized per-status breakdown kernels.
        """
        values = self._derived.get("status_values")
        if values is None:
            values, codes = np.unique(self.statuses, return_inverse=True)
            self._derived["status_values"] = values
            self._derived["status_codes"] = np.asarray(codes, dtype=np.int64).reshape(-1)
        return self._derived["status_values"], self._derived["status_codes"]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: Dataset, *, registry=None) -> "RecordFrame":
        """The frame of a data set: its backing frame, or its records columnarised.

        A frame-backed data set (the traffic generator's) hands over its
        own frame -- no record is built.  Otherwise the records are
        columnarised, with labels when every record has one.
        """
        frame = dataset.frame
        if frame is None:
            labels = dataset.label_columns()
            return cls.from_records(
                dataset.records,
                labels=None if labels is None else labels[0],
                actor_classes=None if labels is None else labels[1],
                metadata=dataset.metadata,
                time_ordered=True if dataset.is_time_ordered else None,
                registry=registry,
                source="dataset",
            )
        _count_rows(registry, len(frame), "dataset")
        return frame

    @classmethod
    def from_records(
        cls,
        records: Sequence[LogRecord],
        *,
        labels: Sequence[str] | None = None,
        actor_classes: Sequence[str] | None = None,
        metadata: DatasetMetadata | None = None,
        time_ordered: bool | None = None,
        registry=None,
        source: str = "records",
    ) -> "RecordFrame":
        """Columnarise a sequence of records (one value list per column).

        ``labels`` and ``actor_classes``, when given, hold one entry per
        record, in record order.
        """
        extras: list[Mapping] | None = None
        if any(record.extra for record in records):
            extras = [dict(record.extra) if record.extra else {} for record in records]
        frame = cls.from_columns(
            [record.request_id for record in records],
            [record.timestamp for record in records],
            {
                "client_ip": [record.client_ip for record in records],
                "method": [record.method for record in records],
                "path": [record.path for record in records],
                "protocol": [record.protocol for record in records],
                "referrer": [record.referrer for record in records],
                "user_agent": [record.user_agent for record in records],
                "ident": [record.ident for record in records],
                "auth_user": [record.auth_user for record in records],
            },
            [record.status for record in records],
            [record.response_size for record in records],
            extras=extras,
            labels=labels,
            actor_classes=actor_classes,
            metadata=metadata,
            time_ordered=time_ordered,
        )
        _count_rows(registry, len(frame), source)
        return frame

    @classmethod
    def from_columns(
        cls,
        request_ids: list[str],
        timestamps: Sequence[datetime],
        strings: Mapping[str, Sequence],
        statuses: Sequence[int],
        sizes: Sequence[int],
        *,
        extras: Sequence[Mapping] | None = None,
        labels: Sequence[str] | None = None,
        actor_classes: Sequence[str] | None = None,
        metadata: DatasetMetadata | None = None,
        time_ordered: bool | None = None,
    ) -> "RecordFrame":
        """Build a frame from per-record value columns, checking what ``LogRecord`` checks.

        ``strings`` holds one value list per :data:`STRING_COLUMNS` name;
        methods may be strings or :class:`RequestMethod` members.  Every
        string column -- labels and actor classes included -- goes
        through :func:`encode_column`.  The ``LogRecord`` constructor's
        checks run once per column or once per distinct value: naive
        timestamps are read as UTC, statuses must lie in 100-599, sizes
        must not be negative and every method must be known (spellings
        that :meth:`RequestMethod.from_string` maps to one method share
        one code).  Dictionary code order is first appearance, an
        implementation detail; only the decoded strings are contractual.
        ``labels`` (``"benign"``/``"malicious"``) and ``actor_classes``
        hold one entry per record when given.
        """
        n = len(request_ids)
        timestamps_us, tz_offsets_us = _timestamp_columns(timestamps, n)
        # One C-level min/max pass per column: a numpy reduction costs
        # more than that on the few-record frames of live sessions.
        if n and (min(statuses) < 100 or max(statuses) > 599):
            bad = next(status for status in statuses if not 100 <= status <= 599)
            raise ValueError(f"invalid HTTP status code: {bad}")
        if n and min(sizes) < 0:
            raise ValueError(f"negative response size: {next(s for s in sizes if s < 0)}")

        codes: dict[str, np.ndarray] = {}
        tables: dict[str, list] = {}
        for name in STRING_COLUMNS:
            codes[name], tables[name] = encode_column(strings[name])
        methods = [RequestMethod.from_string(value).value for value in tables["method"]]
        if len(set(methods)) < len(methods):  # spellings of one method share its code
            folded, methods = encode_column(methods)
            codes["method"] = folded[codes["method"]]
        tables["method"] = methods

        label_codes: np.ndarray | None = None
        actor_codes: np.ndarray | None = None
        actor_table: list[str] = []
        if labels is not None:
            value_codes, values = encode_column(labels)
            unknown = set(values) - {BENIGN, MALICIOUS}
            if unknown:
                raise LabelError(
                    f"unknown labels {sorted(unknown)}; expected {MALICIOUS!r} or {BENIGN!r}"
                )
            malicious = np.array([value == MALICIOUS for value in values], dtype=np.int64)
            label_codes = malicious[value_codes]
            actor_codes, actor_table = encode_column(
                [""] * n if actor_classes is None else actor_classes
            )

        return cls(
            request_ids=request_ids,
            timestamps_us=timestamps_us,
            tz_offsets_us=tz_offsets_us,
            statuses=np.fromiter(statuses, np.int64, n),
            sizes=np.fromiter(sizes, np.int64, n),
            codes=codes,
            tables=tables,
            labels=label_codes,
            actor_codes=actor_codes,
            actor_table=actor_table,
            extras=extras,
            metadata=metadata,
            time_ordered=time_ordered,
        )

    # ------------------------------------------------------------------
    # Derived columns (computed once per distinct value, then gathered)
    # ------------------------------------------------------------------
    def table_flags(self, key: Hashable, table: Sequence[str], predicate) -> np.ndarray:
        """Per-entry boolean flags of ``predicate`` over one of the frame's tables.

        Cached per table under ``key`` (see :class:`TableCache`), which
        must name the table and the predicate.
        """
        return self._table_cache.flags(key, table, predicate)

    def table_values(self, key: Hashable, table: Sequence[str], function) -> list:
        """Per-entry values of ``function`` over one of the frame's tables, cached under ``key``."""
        return self._table_cache.values(key, table, function)

    def table_memo(self, key: Hashable) -> dict:
        """A per-entry memo (code -> value) kept with the frame's tables under ``key``.

        For a value computed only for the entries a caller asks about;
        it lasts as long as the tables (a stream engine's, across its
        session frames).
        """
        return self._table_cache.memo(key)

    def url_paths(self) -> list[str]:
        """The query-stripped URL path behind each entry of the path table."""
        return split_url_paths(self.tables["path"])

    def url_path_table(self) -> list[str]:
        """The distinct query-stripped URL paths; :meth:`url_path_codes` index it."""
        return self._url_path_encoding()[1]

    def url_path_codes(self) -> np.ndarray:
        """Per-record codes into :meth:`url_path_table`."""
        return self._url_path_encoding()[0]

    def _url_path_encoding(self) -> tuple[np.ndarray, list[str]]:
        """Per-record URL-path codes and the URL-path table, looked up once per frame."""
        cached = self._url_paths
        if cached is None:
            codes, table = self._table_cache.url_paths(self.tables["path"])
            cached = self._url_paths = (codes[self.codes["path"]], table)
        return cached

    @property
    def n_url_paths(self) -> int:
        """Number of distinct query-stripped URL paths in the frame's path table."""
        return len(self.url_path_table())

    def path_is_asset(self) -> np.ndarray:
        """Per-record flags: does the path look like a static asset?

        Like every URL-path predicate, it runs once per distinct URL path
        -- far fewer than the distinct raw paths, which differ in their
        query strings -- and is gathered through :meth:`url_path_codes`.
        """
        flags = self.table_flags(
            "asset", self.url_path_table(), lambda path: path.lower().endswith(ASSET_SUFFIXES)
        )
        return flags[self.url_path_codes()]

    def path_is_robots(self) -> np.ndarray:
        """Per-record flags: is the URL path exactly ``/robots.txt``?"""
        flags = self.table_flags("robots", self.url_path_table(), lambda path: path == "/robots.txt")
        return flags[self.url_path_codes()]

    def has_referrer(self) -> np.ndarray:
        """Per-record flags: a non-empty, non-``-`` Referer header."""
        flags = self.table_flags(
            "referrer_present", self.tables["referrer"], lambda value: bool(value) and value != "-"
        )
        return flags[self.codes["referrer"]]

    def method_is(self, method: str) -> np.ndarray:
        """Per-record flags: method equals ``method`` (e.g. ``"HEAD"``)."""
        flags = self.table_flags(
            f"method_{method}", self.tables["method"], lambda value: value == method
        )
        return flags[self.codes["method"]]

    def night_flags(self) -> np.ndarray:
        """Per-record flags: local wall-clock hour before 06:00."""
        cached = self._derived.get("night")
        if cached is None:
            # Microseconds into the local day (a floor modulo, also
            # before 1970) fall before 06:00 exactly when the hour does.
            local_us = self.timestamps_us + self.tz_offsets_us
            cached = local_us % 86_400_000_000 < 21_600_000_000
            self._derived["night"] = cached
        return cached

    # ------------------------------------------------------------------
    # Frames over existing tables (row subsets, stream sessions)
    # ------------------------------------------------------------------
    @classmethod
    def over_tables(
        cls,
        *,
        request_ids: Sequence[str],
        timestamps_us: np.ndarray,
        tz_offsets_us: np.ndarray,
        statuses: np.ndarray,
        sizes: np.ndarray,
        codes: dict[str, np.ndarray],
        tables: dict[str, list],
        table_cache: TableCache,
        labels: np.ndarray | None = None,
        actor_codes: np.ndarray | None = None,
        actor_table: list[str] | None = None,
        extras: list[Mapping] | None = None,
        metadata: DatasetMetadata | None = None,
        time_ordered: bool | None = None,
    ) -> "RecordFrame":
        """A frame whose codes index existing ``tables``, sharing them and their derived values.

        Nothing is copied or checked: the caller hands over int64
        columns of one length, any sequence of request ids (the stream
        hands one that lists them only when read), and ``table_cache``
        holds the tables' derived values.  :meth:`take` builds its row subsets this way,
        and the stream engine builds its session frames over its own
        growing tables.
        """
        frame = object.__new__(cls)
        frame.request_ids = request_ids
        frame.timestamps_us = timestamps_us
        frame.tz_offsets_us = tz_offsets_us
        frame.statuses = statuses
        frame.sizes = sizes
        frame.codes = codes
        frame.tables = tables
        frame.labels = labels
        frame.actor_codes = actor_codes
        frame.actor_table = [] if actor_table is None else actor_table
        frame.extras = extras
        frame.metadata = metadata or _NO_METADATA
        frame._time_ordered = time_ordered
        frame._derived = {}
        frame._table_cache = table_cache
        frame._url_paths = None
        frame._row_index = None
        return frame

    def take(self, rows: np.ndarray) -> "RecordFrame":
        """A row-subset frame **sharing** this frame's dictionary tables.

        The string tables and their derived values (:class:`TableCache`)
        are shared, not copied -- frames are immutable by convention, so
        a shard worker forked from this process reads the parent's
        tables zero-copy.  Only the per-row arrays are gathered.  Row
        order follows ``rows``; the time-ordered marker survives only
        when ``rows`` is ascending.
        """
        rows = np.asarray(rows, dtype=np.int64)
        ascending = len(rows) < 2 or bool(np.all(rows[1:] >= rows[:-1]))
        ids = self.request_ids
        return RecordFrame.over_tables(
            request_ids=[ids[i] for i in rows.tolist()],
            timestamps_us=self.timestamps_us[rows],
            tz_offsets_us=self.tz_offsets_us[rows],
            statuses=self.statuses[rows],
            sizes=self.sizes[rows],
            codes={name: array[rows] for name, array in self.codes.items()},
            tables=self.tables,
            table_cache=self._table_cache,
            labels=None if self.labels is None else self.labels[rows],
            actor_codes=None if self.actor_codes is None else self.actor_codes[rows],
            actor_table=self.actor_table,
            extras=None if self.extras is None else [self.extras[i] for i in rows.tolist()],
            metadata=self.metadata,
            time_ordered=self._time_ordered if ascending else None,
        )

    # ------------------------------------------------------------------
    # Compatibility layer: back to record objects
    # ------------------------------------------------------------------
    def iter_records(self) -> Iterator[LogRecord]:
        """Yield the frame's records as validated :class:`LogRecord` objects.

        Every frame was built from checked values (or a trace of them),
        so the constructor checks are skipped via the same slot-filling
        path the trace reader uses.  Each column is resolved to its
        values first; the loop then only fills slots.
        """
        delta = timedelta
        epoch_for: dict[int, datetime] = {
            offset: _EPOCH.astimezone(timezone(delta(microseconds=offset)))
            for offset in np.unique(self.tz_offsets_us).tolist()
        }
        timestamps = [
            epoch_for[offset] + delta(microseconds=us)
            for us, offset in zip(self.timestamps_us.tolist(), self.tz_offsets_us.tolist())
        ]
        tables = dict(self.tables)
        tables["method"] = [RequestMethod(value) for value in tables["method"]]
        values = {
            name: [table[code] for code in self.codes[name].tolist()]
            for name, table in tables.items()
        }
        extras = self.extras or [{}] * len(self)

        new = object.__new__
        fill = object.__setattr__
        cls = LogRecord
        for rid, ts, ip, method, path, protocol, status, size, referrer, agent, ident, auth_user, extra in zip(
            self.request_ids,
            timestamps,
            values["client_ip"],
            values["method"],
            values["path"],
            values["protocol"],
            self.statuses.tolist(),
            self.sizes.tolist(),
            values["referrer"],
            values["user_agent"],
            values["ident"],
            values["auth_user"],
            extras,
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
            fill(record, "extra", dict(extra))
            yield record

    def ground_truth(self) -> GroundTruth | None:
        """The frame's labels as a :class:`GroundTruth` (``None`` if unlabelled)."""
        if self.labels is None:
            return None
        label_values = [LABEL_NAMES[code] for code in self.labels.tolist()]
        if self.actor_codes is not None and self.actor_table:
            actors = [self.actor_table[code] for code in self.actor_codes.tolist()]
        else:
            actors = [""] * len(self)
        return GroundTruth.from_columns(self.request_ids, label_values, actors)

    def to_dataset(self) -> Dataset:
        """The frame as a :class:`Dataset` (labels included) that it backs.

        Nothing is materialised here: the data set builds its records
        and ground truth from this frame the first time a caller asks
        for them (see :meth:`Dataset.from_frame`).
        """
        return Dataset.from_frame(self, time_ordered=self._time_ordered)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RecordFrame(records={len(self)}, labelled={self.is_labelled}, "
            f"distinct_paths={len(self.tables['path'])})"
        )
