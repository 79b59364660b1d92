"""Live sessions as columns: the stream's way into the batch kernels.

The session-level online detectors (rate limit, in-house rules, anomaly)
judge a live session with the same frame kernels the batch pipeline
runs, instead of walking its records in Python.  Each record is
dictionary-encoded once, when the engine ingests it:

* a :class:`StreamEncoder` owns one growable
  :class:`~repro.columns.frame.Dictionary` per string column, the way a
  trace owns its global tables, plus the
  :class:`~repro.columns.frame.TableCache` of their derived values (URL
  path codes, asset, robots, referrer, method, tracking-path and agent
  flags), each computed once per distinct value;
* :meth:`StreamEncoder.add` appends the record's timestamp, UTC offset,
  status, size and string codes to its live session's
  :class:`EncodedRecords` -- ``STRIDE`` int64 values per record in one
  growable array, inserted mid-session for a late arrival.

A judgement is a :class:`SessionColumns`: it gathers the sessions'
encoded rows, back to back, into a
:class:`~repro.columns.frame.RecordFrame` over the encoder's tables
(:meth:`RecordFrame.over_tables`), with
:class:`~repro.columns.sessions.FrameSessions` spans whose order is the
identity, and runs the batch :meth:`FeatureMatrix.from_frame` on it.  A
session detector's kernel
(:meth:`~repro.detectors.base.SessionDetector.session_verdicts`, the
same one batch ``alert_columns`` broadcasts onto rows) then judges every
session of the build at once, and each session reads its own verdict;
nothing is broadcast onto rows.  The kernels run a fixed number of numpy
calls whatever the number of sessions and records, and skip the gathers
an identity order makes copies, so a one-session build pays for its
calls, not its records.  A build covers one session (a provisional
re-judgement) or every session one ``process()`` call closes.  The
engine memoises the latter on each closing session as a
:class:`ClosingSessions` group, gathered into one build when a detector
first asks for any of them, so an engine whose detectors read no session
columns builds none.  A build is memoised on each live
:class:`~repro.logs.sessionization.Session` under the session's request
count, so every detector that judges the session at that count reads the
same build; the engine drops the memo and the encoded rows when the
session closes.  A build lists its request ids only when something reads
one; the kernels read only their number.

A session built outside an engine has no encoded rows; its first build
encodes its records with a private encoder, which stays with the
session.  There is one build path either way.

Memory: a live session holds 80 bytes per record (ten int64 values,
plus the array's growth slack); closed sessions hold none.  The tables
hold each distinct value once, plus its dictionary entry and derived
flags.
"""

from __future__ import annotations

from array import array
from datetime import timezone
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.columns.alertframe import SessionVerdicts
from repro.columns.features import FeatureMatrix
from repro.columns.frame import (
    STRING_COLUMNS,
    Dictionary,
    RecordFrame,
    TableCache,
    epoch_microseconds,
    utc_offset_microseconds,
)
from repro.columns.sessions import FrameSessions
from repro.detectors.base import SessionDetector
from repro.exceptions import ColumnsError
from repro.logs.record import LogRecord, RequestMethod
from repro.logs.sessionization import Session

#: The per-record values of :class:`EncodedRecords`, in row order.  The
#: visitor's client IP and user agent are the session's own and are
#: encoded once per session.
ROW_FIELDS = (
    "timestamp_us",
    "tz_offset_us",
    "status",
    "size",
    "method",
    "path",
    "protocol",
    "referrer",
    "ident",
    "auth_user",
)
STRIDE = len(ROW_FIELDS)


class EncodedRecords:
    """One session's records, encoded: ``STRIDE`` int64 values per record, in session order."""

    __slots__ = ("encoder", "rows", "ip_code", "agent_code")

    def __init__(self, encoder: "StreamEncoder", session: Session) -> None:
        self.encoder = encoder
        self.rows = array("q")
        self.ip_code = encoder.dictionaries["client_ip"].code(session.client_ip)
        self.agent_code = encoder.dictionaries["user_agent"].code(session.user_agent)

    def __len__(self) -> int:
        return len(self.rows) // STRIDE


class StreamEncoder:
    """The string dictionaries of one record stream and their derived values.

    A :class:`~repro.stream.engine.StreamEngine` owns one and encodes
    every record it ingests (:meth:`add`); its tables grow only with
    distinct values.
    """

    __slots__ = (
        "dictionaries",
        "tables",
        "table_cache",
        "_methods",
        "_offsets",
        "_path",
        "_protocol",
        "_referrer",
        "_ident",
        "_auth_user",
    )

    def __init__(self) -> None:
        self.dictionaries = {name: Dictionary() for name in STRING_COLUMNS}
        #: The tables (never replaced, only grown), as a frame holds them.
        self.tables = {name: dictionary.values for name, dictionary in self.dictionaries.items()}
        self.table_cache = TableCache()
        #: Method as logged -> code of its canonical spelling.
        self._methods: dict = {}
        #: Fixed-offset timezone -> UTC offset in microseconds.
        self._offsets: dict = {}
        self._path = self.dictionaries["path"].code
        self._protocol = self.dictionaries["protocol"].code
        self._referrer = self.dictionaries["referrer"].code
        self._ident = self.dictionaries["ident"].code
        self._auth_user = self.dictionaries["auth_user"].code

    def add(
        self,
        session: Session,
        record: LogRecord,
        position: int | None = None,
        timestamp_us: int | None = None,
    ) -> None:
        """Encode ``record`` into ``session``'s rows at ``position`` (the end by default).

        ``timestamp_us`` is the record's epoch microseconds when the
        caller already converted it.  Spellings of one method share one
        code, as :meth:`RecordFrame.from_columns` folds them.
        """
        encoded = session.encoded
        if encoded is None or encoded.encoder is not self:
            encoded = session.encoded = EncodedRecords(self, session)
        moment = record.timestamp
        if timestamp_us is None:
            timestamp_us = epoch_microseconds(moment)
        tzinfo = moment.tzinfo
        offset = self._offsets.get(tzinfo)
        if offset is None:
            offset = utc_offset_microseconds(moment)
            # Only datetime.timezone is fixed-offset by construction.
            if type(tzinfo) is timezone:
                self._offsets[tzinfo] = offset
        method = self._methods.get(record.method)
        if method is None:
            method = self.dictionaries["method"].code(RequestMethod.from_string(record.method).value)
            self._methods[record.method] = method
        values = (
            timestamp_us,
            offset,
            record.status,
            record.response_size,
            method,
            self._path(record.path),
            self._protocol(record.protocol),
            self._referrer(record.referrer),
            self._ident(record.ident),
            self._auth_user(record.auth_user),
        )
        rows = encoded.rows
        if position is None or position * STRIDE == len(rows):
            rows.extend(values)
        else:
            start = position * STRIDE
            rows[start:start] = array("q", values)

    def encode_session(self, session: Session) -> EncodedRecords:
        """Encode all of ``session``'s records afresh, replacing any rows it had."""
        session.encoded = EncodedRecords(self, session)
        for record in session.records:
            self.add(session, record)
        return session.encoded


class _RequestIds(Sequence[str]):
    """A session frame's request ids, listed from the sessions' records on first read.

    The kernels read only how many there are; the records are the
    sessions' own at the build, so a live session that grows later does
    not change them.
    """

    __slots__ = ("_records", "_ids", "_count")

    def __init__(self, records: list[list[LogRecord]], count: int) -> None:
        self._records: list[list[LogRecord]] | None = records
        self._ids: list[str] | None = None
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        ids = self._ids
        if ids is None:
            ids = [record.request_id for records in self._records for record in records]
            self._ids = ids
            self._records = None
        return ids[index]


class SessionColumns:
    """Frame, session spans and feature rows over a group of live sessions.

    The frame gathers the sessions' encoded rows over the encoder's
    tables, back to back, so its spans' order is the identity and the
    kernels read its columns uncopied.  ``encoder`` defaults to the
    first session's; a session without complete rows from it is encoded
    first (a session built outside an engine gets a private encoder this
    way).  Building one stores ``(request count, self, index)`` on each
    session's :attr:`~repro.logs.sessionization.Session.columns`; the
    build keeps no reference to the sessions themselves.
    """

    __slots__ = ("spans", "features", "_verdicts")

    def __init__(self, sessions: Sequence[Session], encoder: StreamEncoder | None = None) -> None:
        counts = [len(session.records) for session in sessions]
        if not all(counts):
            raise ColumnsError("cannot columnarise a session without records")
        if encoder is None:
            first = sessions[0].encoded
            encoder = StreamEncoder() if first is None else first.encoder
        encoded = []
        for session, count in zip(sessions, counts):
            rows = session.encoded
            if rows is None or rows.encoder is not encoder or len(rows) != count:
                rows = encoder.encode_session(session)
            encoded.append(rows)

        if len(encoded) == 1:
            values = encoded[0].rows
            repeats = counts[0]
        else:
            values = b"".join([rows.rows for rows in encoded])
            repeats = counts
        columns = np.frombuffer(values, dtype=np.int64).reshape(-1, STRIDE).T.copy()
        timestamps_us, tz_offsets_us, statuses, sizes, *codes = columns
        ip_codes = np.array([rows.ip_code for rows in encoded], dtype=np.int64)
        agent_codes = np.array([rows.agent_code for rows in encoded], dtype=np.int64)
        frame_codes = dict(zip(ROW_FIELDS[4:], codes))
        frame_codes["client_ip"] = ip_codes.repeat(repeats)
        frame_codes["user_agent"] = agent_codes.repeat(repeats)
        frame = RecordFrame.over_tables(
            request_ids=_RequestIds([session.records[:] for session in sessions], len(statuses)),
            timestamps_us=timestamps_us,
            tz_offsets_us=tz_offsets_us,
            statuses=statuses,
            sizes=sizes,
            codes=frame_codes,
            tables=encoder.tables,
            table_cache=encoder.table_cache,
        )
        self.spans = FrameSessions.back_to_back(
            frame,
            np.array([0, *accumulate(counts)], dtype=np.int64),
            [session.session_id for session in sessions],
            ip_codes,
            agent_codes,
        )
        self.features = FeatureMatrix.from_frame(frame, self.spans)
        self._verdicts: dict[SessionDetector, SessionVerdicts] = {}
        for index, session in enumerate(sessions):
            session.columns = (counts[index], self, index)

    def verdict(self, kernel: SessionDetector, index: int) -> tuple[float, tuple[str, ...]] | None:
        """``kernel``'s ``(score, reasons)`` for session ``index``, or ``None``.

        The kernel judges every session of the build once, on the first
        call; no verdict is broadcast onto rows.
        """
        verdicts = self._verdicts.get(kernel)
        if verdicts is None:
            spans = self.spans
            verdicts = self._verdicts[kernel] = kernel.session_verdicts(
                spans.frame, spans, self.features
            )
        return verdicts.of(index)


class ClosingSessions:
    """The sessions one record closes, built into one :class:`SessionColumns` on the first ask.

    The engine memoises it on each closing session as a build would be;
    :func:`session_columns` builds the group when a detector first asks
    for any of its sessions, and the build replaces the memos.  An
    engine whose detectors read no session columns builds nothing.
    """

    __slots__ = ("sessions", "encoder")

    def __init__(self, sessions: Sequence[Session], encoder: StreamEncoder) -> None:
        self.sessions = sessions
        self.encoder = encoder
        for index, session in enumerate(sessions):
            session.columns = (len(session.records), self, index)


def session_columns(session: Session) -> tuple[SessionColumns, int]:
    """The columnar view of ``session`` at its current request count.

    Returns the memoised build (and the session's index in it) when one
    exists for this count -- e.g. the engine's group of the sessions a
    record closed, built now if no detector asked before -- and
    otherwise builds one for this session alone.
    """
    memo = session.columns
    if memo is None or memo[0] != len(session.records):
        return SessionColumns((session,)), 0
    columns = memo[1]
    if type(columns) is ClosingSessions:
        columns = SessionColumns(columns.sessions, columns.encoder)
    return columns, memo[2]


def session_verdict(
    kernel: SessionDetector, session: Session
) -> tuple[float, tuple[str, ...]] | None:
    """``kernel``'s ``(score, reasons)`` for ``session`` as it stands, or ``None``."""
    columns, index = session_columns(session)
    return columns.verdict(kernel, index)
