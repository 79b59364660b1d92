"""Columnar alerts: per-detector flag/score/reason arrays over a frame.

The dict path represents a detector's verdicts as an
:class:`~repro.core.alerts.AlertSet` -- one ``Alert`` object per alerted
request id.  At scale that representation dominates a ``tables`` run:
every downstream consumer (matrix assembly, breakdowns, confusion
counts) walks Python dicts row by row.

:class:`DetectorAlerts` is the columnar counterpart: three arrays over
the :class:`~repro.columns.frame.RecordFrame` row index --

* ``flags``        -- ``bool[n]``, did the detector alert on this row,
* ``scores``       -- ``float64[n]``, the alert score where flagged
  (unspecified elsewhere),
* ``reason_codes`` -- ``int64[n]`` dictionary codes into
  ``reason_table`` (``-1`` where not flagged),

plus ``reason_table``, a list of distinct reason *tuples*.  Reasons are
dictionary-encoded exactly like the frame's string columns: detectors
emit a handful of distinct reason tuples (one per distinct user agent,
session verdict, layer combination...), so encoding once per distinct
tuple and gathering through codes removes the per-alert Python.

:class:`AlertFrame` bundles one ``DetectorAlerts`` per detector over a
shared frame; :meth:`~repro.core.alerts.AlertMatrix.from_alert_frame`
stacks the flag columns into the boolean matrix with no per-alert
iteration.  :meth:`DetectorAlerts.to_alert_set` and
:meth:`DetectorAlerts.from_alert_set` convert to and from the dict
representation (``Detector.analyze`` returns alert sets; the
stream-replay adapter builds one first).

Shard merge: :meth:`DetectorAlerts.scatter` writes a sub-frame's arrays
back into a global frame's arrays at the shard's row positions,
remapping reason codes through a shared :class:`ReasonEncoder` -- the
join step of the multi-process frame pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.core.alerts import AlertSet
from repro.exceptions import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.columns.frame import RecordFrame
    from repro.columns.sessions import FrameSessions


class ReasonEncoder:
    """Dictionary-encode reason tuples: distinct tuple -> small int code."""

    def __init__(self) -> None:
        self._codes: dict[tuple[str, ...], int] = {}
        self.table: list[tuple[str, ...]] = []

    def code(self, reasons: tuple[str, ...]) -> int:
        """The code for ``reasons``, allocating a new one on first sight."""
        code = self._codes.get(reasons)
        if code is None:
            code = len(self.table)
            self._codes[reasons] = code
            self.table.append(reasons)
        return code

    def remap(self, table: Sequence[tuple[str, ...]]) -> np.ndarray:
        """This encoder's code for each entry of ``table``, in table order.

        The merge step of every sharded join, batch and stream: a shard's
        reason codes, gathered through the result, become codes of this
        shared table.
        """
        return np.fromiter((self.code(reasons) for reasons in table), np.int64, len(table))


class SessionVerdicts(NamedTuple):
    """A session detector's verdicts, one per session, in session order.

    ``scores`` is 0 and ``codes`` is -1 where a session is not flagged;
    ``codes`` index ``reason_table``.  :meth:`DetectorAlerts.from_sessions`
    broadcasts them onto the frame's rows; the stream reads a live
    session's verdict straight from here (:meth:`of`).
    """

    flags: np.ndarray
    scores: np.ndarray
    codes: np.ndarray
    reason_table: list[tuple[str, ...]]

    def of(self, index: int) -> tuple[float, tuple[str, ...]] | None:
        """Session ``index``'s ``(score, reasons)``, or ``None`` when it is not flagged."""
        if not self.flags[index]:
            return None
        return float(self.scores[index]), self.reason_table[self.codes[index]]


class DetectorAlerts:
    """One detector's verdicts as arrays over a frame's row index."""

    __slots__ = ("detector_name", "flags", "scores", "reason_codes", "reason_table")

    def __init__(
        self,
        detector_name: str,
        flags: np.ndarray,
        scores: np.ndarray,
        reason_codes: np.ndarray,
        reason_table: Sequence[tuple[str, ...]],
    ) -> None:
        self.detector_name = detector_name
        self.flags = np.asarray(flags, dtype=bool)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.reason_codes = np.asarray(reason_codes, dtype=np.int64)
        self.reason_table = list(reason_table)
        n = len(self.flags)
        if len(self.scores) != n or len(self.reason_codes) != n:
            raise AnalysisError(
                f"detector {detector_name!r}: alert column lengths disagree"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, detector_name: str, n: int) -> "DetectorAlerts":
        """All-quiet alerts over an ``n``-row frame."""
        return cls(
            detector_name,
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=np.float64),
            np.full(n, -1, dtype=np.int64),
            [],
        )

    @classmethod
    def from_sessions(
        cls,
        detector_name: str,
        frame: "RecordFrame",
        sessions: "FrameSessions",
        session_flags: np.ndarray,
        session_scores: np.ndarray,
        session_codes: np.ndarray,
        reason_table: Sequence[tuple[str, ...]],
    ) -> "DetectorAlerts":
        """Broadcast per-session verdict arrays onto the frame's rows.

        Each array goes through :meth:`FrameSessions.to_rows` -- the
        vectorized counterpart of a session detector applying its verdict
        to every request id in the session.
        """
        return cls(
            detector_name,
            sessions.to_rows(np.asarray(session_flags, dtype=bool)),
            sessions.to_rows(np.asarray(session_scores, dtype=np.float64)),
            sessions.to_rows(np.asarray(session_codes, dtype=np.int64)),
            reason_table,
        )

    @classmethod
    def from_alert_set(
        cls, frame: "RecordFrame", alert_set: AlertSet
    ) -> "DetectorAlerts":
        """Columnarise a dict-path :class:`AlertSet`.

        Unknown request ids are an error, mirroring the strict mode of
        :meth:`~repro.core.alerts.AlertMatrix.from_alert_sets`.
        """
        alerts = cls.empty(alert_set.detector_name, len(frame))
        row_of = frame.row_index()
        encoder = ReasonEncoder()
        for alert in alert_set.alerts():
            row = row_of.get(alert.request_id)
            if row is None:
                raise AnalysisError(
                    f"detector {alert_set.detector_name!r} alerted on unknown "
                    f"request id {alert.request_id!r}"
                )
            alerts.flags[row] = True
            alerts.scores[row] = alert.score
            alerts.reason_codes[row] = encoder.code(alert.reasons)
        alerts.reason_table = encoder.table
        return alerts

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.flags)

    def alert_count(self) -> int:
        """Number of alerted rows."""
        return int(np.count_nonzero(self.flags))

    def reasons_of(self, row: int) -> tuple[str, ...]:
        """The reason tuple attached to one alerted row."""
        code = int(self.reason_codes[row])
        return self.reason_table[code] if code >= 0 else ()

    # ------------------------------------------------------------------
    # Bridges and merging
    # ------------------------------------------------------------------
    def to_alert_set(self, request_ids: Sequence[str]) -> AlertSet:
        """The dict-path view of these alerts."""
        table = self.reason_table
        scores = self.scores
        codes = self.reason_codes
        scored: dict[str, tuple[float, tuple[str, ...]]] = {}
        for row in np.flatnonzero(self.flags).tolist():
            code = codes[row]
            scored[request_ids[row]] = (
                float(scores[row]),
                table[code] if code >= 0 else (),
            )
        return AlertSet.from_scored(self.detector_name, scored)

    def scatter(
        self,
        rows: np.ndarray,
        shard: "DetectorAlerts",
        encoder: ReasonEncoder,
    ) -> None:
        """Merge a shard's alerts into this (global) alert column set.

        ``rows`` maps the shard's row index to global rows (disjoint
        across shards, so scatters never collide); reason codes are
        remapped through the shared ``encoder`` so equal reason tuples
        keep one code regardless of which shard produced them.
        """
        self.flags[rows] = shard.flags
        self.scores[rows] = shard.scores
        if shard.reason_table:
            remap = encoder.remap(shard.reason_table)
            remapped = np.where(
                shard.reason_codes >= 0,
                remap[np.maximum(shard.reason_codes, 0)],
                np.int64(-1),
            )
        else:
            remapped = shard.reason_codes
        self.reason_codes[rows] = remapped
        self.reason_table = encoder.table


class AlertFrame:
    """Every detector's columnar alerts over one shared frame."""

    __slots__ = ("frame", "detectors")

    def __init__(self, frame: "RecordFrame", detectors: Sequence[DetectorAlerts]) -> None:
        names = [alerts.detector_name for alerts in detectors]
        if len(set(names)) != len(names):
            raise AnalysisError("duplicate detector names in alert frame")
        for alerts in detectors:
            if len(alerts) != len(frame):
                raise AnalysisError(
                    f"detector {alerts.detector_name!r}: alert columns cover "
                    f"{len(alerts)} rows, frame has {len(frame)}"
                )
        self.frame = frame
        self.detectors = list(detectors)

    @property
    def detector_names(self) -> list[str]:
        return [alerts.detector_name for alerts in self.detectors]

    def alerts_for(self, name: str) -> DetectorAlerts:
        """The alert columns of one detector by name."""
        for alerts in self.detectors:
            if alerts.detector_name == name:
                return alerts
        raise AnalysisError(
            f"unknown detector {name!r}; alert frame has {self.detector_names}"
        )

    def to_alert_sets(self) -> list[AlertSet]:
        """Dict-path views of every detector's alerts."""
        ids = self.frame.request_ids
        return [alerts.to_alert_set(ids) for alerts in self.detectors]


def whitelist_row_mask(
    frame: "RecordFrame",
    sessions: "FrameSessions",
    is_whitelisted_pair,
) -> np.ndarray:
    """Rows whose session's ``(user agent, client ip)`` pair is whitelisted.

    ``is_whitelisted_pair(agent, ip)`` is evaluated once per distinct
    pair (cached), then broadcast onto the rows.
    """
    n_sessions = len(sessions)
    agents = frame.tables["user_agent"]
    ips = frame.tables["client_ip"]
    pair_cache: dict[tuple[int, int], bool] = {}
    session_flags = np.zeros(n_sessions, dtype=bool)
    agent_codes = sessions.agent_codes.tolist()
    ip_codes = sessions.ip_codes.tolist()
    for index in range(n_sessions):
        pair = (agent_codes[index], ip_codes[index])
        verdict = pair_cache.get(pair)
        if verdict is None:
            verdict = bool(is_whitelisted_pair(agents[pair[0]], ips[pair[1]]))
            pair_cache[pair] = verdict
        session_flags[index] = verdict
    return sessions.to_rows(session_flags)


def threshold_session_alerts(
    detector_name: str,
    frame: "RecordFrame",
    sessions: "FrameSessions",
    session_scores: np.ndarray,
    threshold: float,
    reason: str,
) -> DetectorAlerts:
    """Alert every session scoring at least ``threshold``.

    Each alerted session's rows carry the session's score and the single
    reason ``"{reason} {score:.2f}"`` -- the verdict shape of the
    probabilistic session classifiers.
    """
    alerted = session_scores >= threshold
    codes = np.full(len(session_scores), -1, dtype=np.int64)
    encoder = ReasonEncoder()
    for index in np.flatnonzero(alerted).tolist():
        codes[index] = encoder.code((f"{reason} {float(session_scores[index]):.2f}",))
    return DetectorAlerts.from_sessions(
        detector_name,
        frame,
        sessions,
        alerted,
        np.where(alerted, session_scores, 0.0),
        codes,
        encoder.table,
    )
