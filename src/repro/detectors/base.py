"""The detector contract.

Every detector judges the same columnar triple: a
:class:`~repro.columns.RecordFrame` (records only -- never the ground
truth), its visitor sessions as :class:`~repro.columns.FrameSessions`
spans and the session :class:`~repro.columns.FeatureMatrix`.
:meth:`Detector.alert_columns` turns that triple into per-row
flag/score/reason arrays; it is the only batch judgement a detector
implements, so every detection rule is defined exactly once.
Sessionization and feature extraction are the dominant shared costs, so
:class:`~repro.detectors.pipeline.DetectionPipeline` computes the triple
once and hands it to every detector.

:meth:`Detector.judge_frame` builds the triple for a bare frame and
judges it; :meth:`Detector.analyze` is the record-set convenience
wrapper around it, returning the verdicts as an
:class:`~repro.core.alerts.AlertSet`.

A :class:`SessionDetector` judges whole sessions: its one judgement,
:meth:`SessionDetector.session_verdicts`, gives one verdict per session,
and its ``alert_columns`` broadcasts them onto the rows.  The stream
engine reads a live session's verdict from ``session_verdicts``
directly.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.core.alerts import AlertSet
from repro.logs.dataset import Dataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import FeatureMatrix, FrameSessions, RecordFrame
    from repro.columns.alertframe import DetectorAlerts, SessionVerdicts


class Detector(abc.ABC):
    """Abstract base class for all detectors."""

    #: Unique, human-readable detector name (used as the alert-set name).
    name: str = "detector"

    #: True when this detector's verdicts depend only on data that
    #: hash-sharding by client IP keeps together (the visitor's own rows,
    #: its sessions, its user-agent/IP strings) -- the precondition for
    #: the multi-process frame pipeline.  Detectors with cross-visitor
    #: state (learned models, global thresholds) must leave this False.
    frame_shardable: bool = False

    @abc.abstractmethod
    def alert_columns(
        self,
        frame: "RecordFrame",
        sessions: "FrameSessions",
        features: "FeatureMatrix",
    ) -> "DetectorAlerts":
        """Judge a frame into columnar alert arrays.

        ``sessions`` are the frame's visitor sessions (default timeout)
        and ``features`` their feature rows, in session order.  Returns a
        :class:`~repro.columns.alertframe.DetectorAlerts` named after the
        detector: per-row flags, scores and reason codes over ``frame``.
        """

    def judge_frame(self, frame: "RecordFrame") -> "DetectorAlerts":
        """Judge a bare frame: sessionize it, extract features, then :meth:`alert_columns`.

        Nothing is counted in a metrics registry; the pipeline accounts
        for its own runs.
        """
        from repro.columns import FeatureMatrix, sessionize_frame

        sessions = sessionize_frame(frame)
        features = FeatureMatrix.from_frame(frame, sessions)
        return self.alert_columns(frame, sessions, features)

    def analyze(self, dataset: Dataset) -> AlertSet:
        """Judge a data set: :meth:`judge_frame` over its frame, as an :class:`AlertSet`."""
        from repro.columns import RecordFrame

        frame = RecordFrame.from_dataset(dataset)
        return self.judge_frame(frame).to_alert_set(frame.request_ids)

    def describe(self) -> str:
        """A one-line description (defaults to the class docstring's first line)."""
        doc = (self.__class__.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}(name={self.name!r})"


class SessionDetector(Detector):
    """A detector whose verdict is per session and covers every request of it."""

    @abc.abstractmethod
    def session_verdicts(
        self,
        frame: "RecordFrame",
        sessions: "FrameSessions",
        features: "FeatureMatrix",
    ) -> "SessionVerdicts":
        """Judge every session of a frame: flags, scores and reasons, in session order."""

    def alert_columns(
        self,
        frame: "RecordFrame",
        sessions: "FrameSessions",
        features: "FeatureMatrix",
    ) -> "DetectorAlerts":
        """The :meth:`session_verdicts`, broadcast to every row of each session."""
        from repro.columns.alertframe import DetectorAlerts

        return DetectorAlerts.from_sessions(
            self.name, frame, sessions, *self.session_verdicts(frame, sessions, features)
        )
