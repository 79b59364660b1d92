"""Columnar views of live sessions: the stream's way into the batch kernels.

The session-level online detectors (rate limit, in-house rules, anomaly)
judge a live session with the same frame kernels the batch pipeline
runs, instead of walking its records in Python:

* :meth:`FrameSessions.from_sessions` columnarises the sessions' records
  into a :class:`~repro.columns.frame.RecordFrame` with session spans;
* :meth:`FeatureMatrix.from_frame` computes their feature rows;
* a batch detector's ``alert_columns`` turns those into verdicts.

A :class:`SessionColumns` is one such build, over one session (a
provisional re-judgement) or over every session one ``process()`` call
closes (the engine batches those).  It is memoised on each live
:class:`~repro.logs.sessionization.Session` under the session's request
count, so every detector that judges the session at that count reads
the same build, and the memo lives and dies with the engine that owns
the session.
"""

from __future__ import annotations

from typing import Sequence

from repro.columns.alertframe import DetectorAlerts
from repro.columns.features import FeatureMatrix
from repro.columns.sessions import FrameSessions
from repro.detectors.base import Detector
from repro.logs.sessionization import Session


class SessionColumns:
    """Frame, session spans and feature rows over a group of live sessions.

    Building one stores ``(request count, self, index)`` on each
    session's :attr:`~repro.logs.sessionization.Session.columns`; the
    build keeps no reference to the sessions themselves.
    """

    __slots__ = ("spans", "features", "_alerts")

    def __init__(self, sessions: Sequence[Session]) -> None:
        self.spans = FrameSessions.from_sessions(sessions)
        self.features = FeatureMatrix.from_frame(self.spans.frame, self.spans)
        self._alerts: dict[Detector, DetectorAlerts] = {}
        for index, session in enumerate(sessions):
            session.columns = (len(session.records), self, index)

    def verdict(self, kernel: Detector, index: int) -> tuple[float, tuple[str, ...]] | None:
        """``kernel``'s ``(score, reasons)`` for session ``index``, or ``None``.

        The kernel runs once per build, over every session in it.
        """
        alerts = self._alerts.get(kernel)
        if alerts is None:
            alerts = kernel.alert_columns(self.spans.frame, self.spans, self.features)
            self._alerts[kernel] = alerts
        row = int(self.spans.order[self.spans.starts[index]])
        if not alerts.flags[row]:
            return None
        return float(alerts.scores[row]), alerts.reasons_of(row)


def session_columns(session: Session) -> tuple[SessionColumns, int]:
    """The columnar view of ``session`` at its current request count.

    Returns the memoised build (and the session's index in it) when one
    exists for this count -- e.g. the engine's batch over the sessions a
    record closed -- and otherwise builds one for this session alone.
    """
    memo = session.columns
    if memo is None or memo[0] != len(session.records):
        return SessionColumns((session,)), 0
    return memo[1], memo[2]


def session_verdict(
    kernel: Detector, session: Session
) -> tuple[float, tuple[str, ...]] | None:
    """``kernel``'s ``(score, reasons)`` for ``session`` as it stands, or ``None``."""
    columns, index = session_columns(session)
    return columns.verdict(kernel, index)
