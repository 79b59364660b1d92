"""The stream's final alerts as columns.

An online detector files each final alert in its :class:`AlertColumns`:
the alerted record's row, a float64 score and a code into the
detector's reason table (a :class:`~repro.columns.alertframe.ReasonEncoder`),
three growable arrays instead of one ``Alert`` object per alerted
request.  A row is the record's ingest sequence number; the engine keeps
every row's request id once, in a :class:`StreamRows` that its detectors
and adjudicator share.  :class:`~repro.core.alerts.AlertSet` objects are
built from the columns only when a caller asks for them
(:meth:`AlertColumns.to_alert_set`).

The engine keeps every row's id, not only the alerted rows': the anomaly
port judges its closed sessions only at the end of the stream, so until
then any row may still be alerted.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.columns.alertframe import DetectorAlerts, ReasonEncoder
from repro.columns.frame import epoch_microseconds
from repro.core.alerts import AlertSet
from repro.exceptions import AnalysisError
from repro.logs.record import LogRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns.frame import RecordFrame


class StreamRows:
    """The request id of every row of one record stream.

    The engine numbers each record as it ingests it (:meth:`ingest`) and
    points :attr:`current` at it, so its detectors and adjudicator file
    their verdicts on the record under that row; it also converts the
    record's timestamp to epoch microseconds there, once, for all of
    them (:meth:`timestamp_us`).  A detector or adjudicator used on its
    own, outside an engine, has a private instance whose :attr:`current`
    stays ``-1``; :meth:`row` then numbers each request it is asked
    about as a new row, and :meth:`timestamp_us` converts each record.
    """

    __slots__ = ("request_ids", "current", "current_us")

    def __init__(self) -> None:
        self.request_ids: list[str] = []
        self.current = -1
        self.current_us = 0

    def ingest(self, request_id: str, timestamp_us: int) -> int:
        """Number the next ingested record; it becomes :attr:`current`."""
        self.current = len(self.request_ids)
        self.current_us = timestamp_us
        self.request_ids.append(request_id)
        return self.current

    def row(self, request_id: str) -> int:
        """The row of the request being judged."""
        if self.current >= 0:
            return self.current
        self.request_ids.append(request_id)
        return len(self.request_ids) - 1

    def timestamp_us(self, record: LogRecord) -> int:
        """The epoch microseconds of the request being judged."""
        if self.current >= 0:
            return self.current_us
        return epoch_microseconds(record.timestamp)

    def __len__(self) -> int:
        return len(self.request_ids)


def shift_rows(rows: array, offset: int) -> array:
    """``rows`` moved ``offset`` rows down (a shard's rows in the joined stream)."""
    if not offset:
        return rows
    return array("q", (np.frombuffer(rows, dtype=np.int64) + offset).tobytes())


class AlertColumns:
    """One online detector's final alerts: row, score and reason-code columns.

    A row alerted twice stays twice in the columns;
    :meth:`to_alert_set` merges the two exactly as
    :meth:`AlertSet.add <repro.core.alerts.AlertSet.add>` does.  The
    object also answers what the engine and the analysis ask of an alert
    set without building one: ``detector_name``, ``len()`` (alerted
    rows) and iteration (alerted request ids).
    """

    __slots__ = ("detector_name", "stream_rows", "rows", "scores", "codes", "reasons")

    def __init__(self, detector_name: str, stream_rows: StreamRows) -> None:
        self.detector_name = detector_name
        self.stream_rows = stream_rows
        self.rows = array("q")
        self.scores = array("d")
        self.codes = array("i")
        self.reasons = ReasonEncoder()

    # ------------------------------------------------------------------
    def append(self, row: int, score: float, reasons: tuple[str, ...]) -> None:
        """Alert one row."""
        self.rows.append(row)
        self.scores.append(score)
        self.codes.append(self.reasons.code(reasons))

    def extend(self, rows: array, score: float, reasons: tuple[str, ...]) -> None:
        """Alert ``rows`` (a session's span) with one score and reason tuple."""
        count = len(rows)
        self.rows.extend(rows)
        self.scores.extend(array("d", (score,)) * count)
        self.codes.extend(array("i", (self.reasons.code(reasons),)) * count)

    # ------------------------------------------------------------------
    def _distinct_rows(self) -> np.ndarray:
        rows = np.frombuffer(self.rows, dtype=np.int64)
        if not len(rows):
            return rows
        seen = np.zeros(int(rows.max()) + 1, dtype=bool)
        seen[rows] = True
        return np.flatnonzero(seen)

    def __len__(self) -> int:
        return len(self._distinct_rows())

    def __iter__(self) -> Iterator[str]:
        """The alerted request ids, each once, in row order."""
        ids = self.stream_rows.request_ids
        return iter([ids[row] for row in self._distinct_rows().tolist()])

    def to_alert_set(self) -> AlertSet:
        """The alerts as an :class:`AlertSet`, in the order they were filed."""
        alert_set = AlertSet(self.detector_name)
        ids = self.stream_rows.request_ids
        table = self.reasons.table
        for row, score, code in zip(self.rows, self.scores, self.codes):
            alert_set.add(ids[row], score, table[code])
        return alert_set

    def to_detector_alerts(self, frame: "RecordFrame") -> DetectorAlerts:
        """The alerts over ``frame``'s rows, matched by request id, without building an ``Alert``.

        A row alerted twice merges as :meth:`AlertSet.add
        <repro.core.alerts.AlertSet.add>` merges it: the highest score,
        and the reasons in first-seen order.  A request id the frame
        lacks is an error, as in :meth:`DetectorAlerts.from_alert_set`.
        """
        alerts = DetectorAlerts.empty(self.detector_name, len(frame))
        row_of = frame.row_index()
        ids = self.stream_rows.request_ids
        try:
            targets = [row_of[ids[row]] for row in self.rows]
        except KeyError as exc:
            raise AnalysisError(
                f"detector {self.detector_name!r} alerted on unknown request id {exc.args[0]!r}"
            ) from None
        table = self.reasons.table
        merged: dict[int, tuple[float, tuple[str, ...]]] = {}
        for target, score, code in zip(targets, self.scores, self.codes):
            earlier = merged.get(target)
            if earlier is None:
                merged[target] = (score, table[code])
            else:
                merged[target] = (
                    max(earlier[0], score),
                    tuple(dict.fromkeys(earlier[1] + table[code])),
                )
        encoder = ReasonEncoder()
        for target, (score, reasons) in merged.items():
            alerts.flags[target] = True
            alerts.scores[target] = score
            alerts.reason_codes[target] = encoder.code(reasons)
        alerts.reason_table = encoder.table
        return alerts

    # ------------------------------------------------------------------
    # Sharded runs: a shard exports its columns, the join appends them at
    # the shard's row offset.
    # ------------------------------------------------------------------
    def export(self) -> tuple[array, array, array, list[tuple[str, ...]]]:
        """The columns and reason table, picklable without the stream's ids."""
        return self.rows, self.scores, self.codes, self.reasons.table

    def merge(
        self,
        offset: int,
        rows: array,
        scores: array,
        codes: array,
        reason_table: Sequence[tuple[str, ...]],
    ) -> None:
        """Append a shard's exported columns, its rows moved down by ``offset``.

        Reason codes are remapped through this detector's encoder, as
        :meth:`DetectorAlerts.scatter <repro.columns.alertframe.DetectorAlerts.scatter>`
        does for batch shards.
        """
        remap = self.reasons.remap(reason_table)
        self.rows.extend(shift_rows(rows, offset))
        self.scores.extend(scores)
        if len(codes):
            remapped = remap[np.frombuffer(codes, dtype=np.intc)].astype(np.intc)
            self.codes.frombytes(remapped.tobytes())
