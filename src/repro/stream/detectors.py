"""The :class:`OnlineDetector` protocol and online ports of batch detectors.

An online detector lives inside a :class:`~repro.stream.engine.StreamEngine`
and sees the traffic one request at a time.  It produces two kinds of
output:

* an **immediate verdict** per request (:meth:`OnlineDetector.observe`),
  based on the visitor's session *so far* -- this is what a deployment
  blocks or challenges on;
* **final alerts** (:meth:`OnlineDetector.final_alerts`), accumulated
  from per-request alerts, session-close judgements
  (:meth:`OnlineDetector.on_session_close`) and an end-of-stream
  :meth:`OnlineDetector.finalize` step.  They are kept as columns (an
  :class:`~repro.stream.alerts.AlertColumns`: the alerted record's row,
  a score and a reason code) and become an
  :class:`~repro.core.alerts.AlertSet` only on request
  (:meth:`OnlineDetector.final_alert_set`).

The final alerts are the bridge back to the paper's batch analysis: for
each port below they reproduce the corresponding batch detector's alert
set *exactly* when the stream replays the same records in timestamp
order, so streaming runs plug straight into the existing
:class:`~repro.core.alerts.AlertMatrix` machinery.

Session-level judgements -- the provisional re-judgement when a live
session's request count doubles, and the judgement at session close --
run the batch frame kernels, not per-record Python: the session becomes
a :class:`~repro.stream.columnar.SessionColumns` view (a
:class:`~repro.columns.frame.RecordFrame` gathered from the session's
records as the engine encoded them at ingest, its
:class:`~repro.columns.sessions.FrameSessions` spans and a
:class:`~repro.columns.features.FeatureMatrix`), and the rate-limit and
rule ports read their verdicts from the batch detectors'
``alert_columns`` while the anomaly port reads its feature row.  The
view is built at most once per session and request count and memoised
on the live session, so every detector judging the session at that
count shares it; the engine gathers all the sessions one record closes
into a single frame.

Ports
-----
* :class:`OnlineRequestRateLimiter` -- per-request sliding-window rate
  limiting with a penalty period (the production-style limiter the
  legacy ``repro.detectors.streaming`` module exposed).
* :class:`OnlineRateLimitDetector` -- port of
  :class:`~repro.detectors.ratelimit.RateLimitDetector`.
* :class:`OnlineFingerprintDetector` -- port of
  :class:`~repro.detectors.fingerprint.UserAgentFingerprintDetector`.
* :class:`OnlineInHouseDetector` -- port of
  :class:`~repro.detectors.inhouse.InHouseHeuristicDetector` (or any
  :class:`~repro.detectors.heuristic.HeuristicRuleDetector`).
* :class:`OnlineAnomalyDetector` -- incremental anomaly scorer backed by
  the :mod:`repro.anomaly` models, port of
  :class:`~repro.detectors.anomaly_detector.AnomalySessionDetector`.
"""

from __future__ import annotations

import abc
from array import array
from collections import deque
from typing import Callable, Deque, Mapping, Sequence

import numpy as np

from repro.anomaly.base import AnomalyModel
from repro.anomaly.zscore import RobustZScoreModel
from repro.columns.frame import epoch_microseconds
from repro.core.alerts import AlertSet
from repro.detectors.anomaly_detector import alert_anomalous_groups
from repro.detectors.base import SessionDetector
from repro.detectors.fingerprint import UserAgentFingerprintDetector
from repro.detectors.heuristic import HeuristicRuleDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.ratelimit import RateLimitDetector
from repro.exceptions import DetectorError
from repro.logs.record import LogRecord
from repro.logs.sessionization import Session
from repro.registry import Registry
from repro.stream.alerts import AlertColumns, StreamRows, shift_rows
from repro.stream.columnar import session_columns, session_verdict
from repro.stream.events import OnlineVerdict
from repro.traffic.useragents import is_scripted_agent


class OnlineDetector(abc.ABC):
    """Base class for detectors that judge a live request stream."""

    #: Unique, human-readable detector name (used as the alert-set name).
    name: str = "online-detector"

    def __init__(self, *, name: str | None = None) -> None:
        if name is not None:
            self.name = name
        self.bind(StreamRows())

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def observe(self, record: LogRecord, session: Session | None = None) -> OnlineVerdict:
        """Judge one request immediately, given its visitor's session so far."""

    def on_session_close(self, session: Session) -> None:
        """React to a finished session (gap-closed, evicted or flushed)."""

    def finalize(self) -> None:
        """End-of-stream hook (e.g. fit a global model over all sessions)."""

    # ------------------------------------------------------------------
    def final_alerts(self) -> AlertColumns:
        """The accumulated (batch-equivalent) alerts of this detector, as columns."""
        return self._alerts

    def final_alert_set(self) -> AlertSet:
        """The accumulated alerts as an :class:`AlertSet` (built on each call)."""
        return self._alerts.to_alert_set()

    def bind(self, rows: StreamRows) -> None:
        """File this detector's alerts under ``rows``, dropping those filed so far.

        A :class:`~repro.stream.engine.StreamEngine` binds its detectors
        to the rows it numbers its records with.
        """
        self._rows = rows
        self._alerts = AlertColumns(self.name, rows)

    def reset(self) -> None:
        """Drop all state (start of a new stream)."""
        self.bind(StreamRows())
        self._reset_state()

    def _reset_state(self) -> None:
        """Subclass hook invoked by :meth:`reset`."""

    # ------------------------------------------------------------------
    # Filing final alerts (for subclasses)
    # ------------------------------------------------------------------
    def _alert(self, record: LogRecord, score: float, reasons: tuple[str, ...]) -> None:
        """File a final alert on the record being judged."""
        self._alerts.append(self._rows.row(record.request_id), score, reasons)

    def _alert_session(self, session: Session, score: float, reasons: tuple[str, ...]) -> None:
        """File a final alert on every request of ``session``."""
        self._alerts.extend(self._session_rows(session), score, reasons)

    def _session_rows(self, session: Session) -> array:
        """The rows of ``session``'s records.

        A session built outside an engine has none; its requests are
        numbered as new rows here.
        """
        if len(session.rows) == len(session.records):
            return session.rows
        return array("q", [self._rows.row(request_id) for request_id in session.request_ids()])

    # ------------------------------------------------------------------
    # Sharded-runner support: detector state must cross worker boundaries
    # as plain picklable data, and per-shard partial results must merge
    # into one global set of final alerts.
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """A picklable summary of this detector's final output."""
        return {"alerts": self._alerts.export()}

    def merge_states(self, states: Sequence[Mapping], offsets: Sequence[int]) -> AlertColumns:
        """Merge exported per-shard states into this detector's final alerts.

        Shard ``i``'s rows start at row ``offsets[i]`` of the joined
        stream, which this detector must already be bound to.  The
        default implementation appends every shard's alerts, which is
        correct for every detector whose verdicts depend only on
        per-visitor state (visitors never span shards).  Detectors with
        global state (e.g. the anomaly port) override this.
        """
        for state, offset in zip(states, offsets):
            self._alerts.merge(offset, *state["alerts"])
        return self._alerts

    def describe(self) -> str:
        """A one-line description (defaults to the class docstring's first line)."""
        doc = (self.__class__.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Request-level ports
# ----------------------------------------------------------------------
class _VisitorWindow:
    """Sliding-window state for one visitor key."""

    __slots__ = ("timestamps", "alerted_until")

    def __init__(self) -> None:
        self.timestamps: Deque[float] = deque()
        self.alerted_until = 0.0


class OnlineRequestRateLimiter(OnlineDetector):
    """Per-visitor sliding-window rate limiting with a penalty period.

    A request is flagged when its visitor has issued more than
    ``max_requests`` requests within the last ``window_seconds``.  Once a
    visitor trips the limit it stays flagged for ``penalty_seconds`` (the
    way production rate limiters and bot-mitigation challenges behave).
    Verdicts are final at observe time, so the final alerts need no
    session-close step.

    The accumulated alerts are what bridge back to the batch analysis,
    but they grow with every flagged request (20 bytes of columns each,
    plus the engine's 8 bytes and request id per row).  An indefinitely
    running deployment that only acts on the per-request verdicts should
    pass ``record_alerts=False``; run inside a
    :class:`~repro.stream.engine.StreamEngine` the per-visitor window
    state is then bounded too, because idle visitors are dropped when
    their session closes.
    """

    name = "streaming-rate"

    def __init__(
        self,
        *,
        name: str | None = None,
        max_requests: int = 30,
        window_seconds: float = 60.0,
        penalty_seconds: float = 300.0,
        flag_scripted_agents: bool = True,
        record_alerts: bool = True,
    ) -> None:
        if max_requests < 1:
            raise ValueError("max_requests must be at least 1")
        if window_seconds <= 0 or penalty_seconds < 0:
            raise ValueError("window_seconds must be positive and penalty_seconds non-negative")
        super().__init__(name=name)
        self.max_requests = max_requests
        self.window_seconds = window_seconds
        self.penalty_seconds = penalty_seconds
        self.flag_scripted_agents = flag_scripted_agents
        self.record_alerts = record_alerts
        self._state: dict[tuple[str, str], _VisitorWindow] = {}

    def _reset_state(self) -> None:
        self._state.clear()

    def observe(self, record: LogRecord, session: Session | None = None) -> OnlineVerdict:
        verdict = self._judge(record)
        if verdict.alerted and self.record_alerts:
            self._alert(record, verdict.score, (verdict.reason,))
        return verdict

    def on_session_close(self, session: Session) -> None:
        # The visitor has been idle past the session timeout; drop its
        # window unless a longer penalty is still running, so per-visitor
        # state stays bounded on an infinite stream with IP churn.
        key = (session.client_ip, session.user_agent)
        window = self._state.get(key)
        if window is not None and session.end.timestamp() >= window.alerted_until:
            del self._state[key]

    def _judge(self, record: LogRecord) -> OnlineVerdict:
        if self.flag_scripted_agents and is_scripted_agent(record.user_agent):
            return OnlineVerdict(
                request_id=record.request_id,
                alerted=True,
                reason="scripted client user agent",
                score=1.0,
            )

        key = record.actor_key()
        window = self._state.get(key)
        if window is None:
            window = self._state[key] = _VisitorWindow()
        now = self._rows.timestamp_us(record) / 1e6

        if now < window.alerted_until:
            return OnlineVerdict(
                request_id=record.request_id,
                alerted=True,
                reason="visitor in rate-limit penalty period",
                score=0.8,
            )

        window.timestamps.append(now)
        cutoff = now - self.window_seconds
        while window.timestamps and window.timestamps[0] < cutoff:
            window.timestamps.popleft()

        if len(window.timestamps) > self.max_requests:
            window.alerted_until = now + self.penalty_seconds
            rate = len(window.timestamps)
            return OnlineVerdict(
                request_id=record.request_id,
                alerted=True,
                reason=f"{rate} requests in {self.window_seconds:.0f}s exceeds {self.max_requests}",
                score=min(1.0, 0.5 + 0.5 * (rate - self.max_requests) / self.max_requests),
            )
        return OnlineVerdict(request_id=record.request_id, alerted=False)


class OnlineFingerprintDetector(OnlineDetector):
    """Online port of the user-agent / client fingerprint detector.

    Fingerprint verdicts depend only on the (user agent, client IP) pair,
    so the online decision is final immediately and identical to the
    batch :class:`~repro.detectors.fingerprint.UserAgentFingerprintDetector`.
    """

    name = "ua-fingerprint"

    def __init__(
        self,
        batch: UserAgentFingerprintDetector | None = None,
        *,
        name: str | None = None,
        **batch_kwargs,
    ) -> None:
        if batch is not None and batch_kwargs:
            raise ValueError("pass either a batch detector or its keyword arguments, not both")
        resolved_name = name or (batch.name if batch is not None else self.name)
        super().__init__(name=resolved_name)
        self.batch = batch or UserAgentFingerprintDetector(name=resolved_name, **batch_kwargs)
        self._cache: dict[tuple[str, str], tuple[float, str] | None] = {}

    def _reset_state(self) -> None:
        self._cache.clear()

    def observe(self, record: LogRecord, session: Session | None = None) -> OnlineVerdict:
        key = (record.user_agent, record.client_ip)
        if key not in self._cache:
            self._cache[key] = self.batch.judge_request(record.user_agent, record.client_ip)
        verdict = self._cache[key]
        if verdict is None:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        score, reason = verdict
        self._alert(record, score, (reason,))
        return OnlineVerdict(request_id=record.request_id, alerted=True, reason=reason, score=score)

    def on_session_close(self, session: Session) -> None:
        # Fingerprint verdicts are pure functions of (user agent, IP); the
        # cache entry is cheap to recompute, so drop it with the session to
        # keep memory bounded under visitor churn.
        self._cache.pop((session.user_agent, session.client_ip), None)


# ----------------------------------------------------------------------
# Session-level ports
# ----------------------------------------------------------------------
def _alert_closed_session(
    detector: OnlineDetector, kernel: SessionDetector, session: Session
) -> None:
    """Alert every request of a closed session that ``kernel`` flags."""
    verdict = session_verdict(kernel, session)
    if verdict is not None:
        detector._alert_session(session, *verdict)


class _SessionRateState:
    """Incremental counters of one session's requests: count, first and last time, peak window."""

    __slots__ = ("window", "peak", "count", "first_us", "last_us")

    def __init__(self) -> None:
        self.window: Deque[float] = deque()
        self.peak = 1
        self.count = 0
        self.first_us = 0
        self.last_us = 0

    def update(self, timestamp_us: int, window_seconds: float) -> None:
        """Count one request at epoch microseconds ``timestamp_us`` (late arrivals too)."""
        if not self.count:
            self.first_us = self.last_us = timestamp_us
        elif timestamp_us < self.first_us:
            self.first_us = timestamp_us
        elif timestamp_us > self.last_us:
            self.last_us = timestamp_us
        self.count += 1
        timestamp = timestamp_us / 1e6
        window = self.window
        window.append(timestamp)
        cutoff = timestamp - window_seconds
        while window and window[0] < cutoff:
            window.popleft()
        if len(window) > self.peak:
            self.peak = len(window)

    def requests_per_minute(self) -> float:
        """The session's average rate; a single-request session counts as 1 req/min.

        The batch ``requests_per_minute`` feature, bit for bit: the
        duration is the integer microseconds between the first and the
        last request divided by ``1e6``, as ``timedelta.total_seconds``
        computes it.
        """
        if self.count <= 1:
            return float(self.count)
        minutes = max((self.last_us - self.first_us) / 1e6 / 60.0, 1.0 / 60.0)
        return self.count / minutes


class OnlineRateLimitDetector(OnlineDetector):
    """Online port of the session rate-limit detector.

    Per request, the visitor's session *so far* is judged with the same
    average/peak-rate rule as the batch
    :class:`~repro.detectors.ratelimit.RateLimitDetector`, using O(1)
    incremental counters of the session's observed requests (every
    request of it, inside an engine).  At session close the full session is judged
    once more with the batch detector's frame kernel and every request
    of a flagged session is alerted -- which makes the final alert set
    identical to the batch detector's.  Because the peak one-minute window can only grow as a
    session extends, an online alert is never retracted at close.
    """

    name = "rate-limit"

    def __init__(
        self,
        *,
        name: str | None = None,
        threshold_rpm: float = 60.0,
        min_requests: int = 10,
        use_peak_rate: bool = True,
    ) -> None:
        super().__init__(name=name)
        self.batch = RateLimitDetector(
            name=self.name,
            threshold_rpm=threshold_rpm,
            min_requests=min_requests,
            use_peak_rate=use_peak_rate,
        )
        self._state: dict[str, _SessionRateState] = {}

    def _reset_state(self) -> None:
        self._state.clear()

    def observe(self, record: LogRecord, session: Session | None = None) -> OnlineVerdict:
        if session is None:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        state = self._state.get(session.session_id)
        if state is None:
            state = self._state[session.session_id] = _SessionRateState()
            records = session.records
            if len(records) > 1:
                # A session first seen holding several records was already
                # closed: a record more than the timeout late landed in it
                # and the eviction sweep it ran closed it before this
                # call.  Count every record it holds, as the batch rate
                # does; the peak window starts at this record.
                state.count = len(records) - 1
                state.first_us = epoch_microseconds(records[0].timestamp)
                state.last_us = epoch_microseconds(records[-1].timestamp)
        state.update(self._rows.timestamp_us(record), 60.0)

        batch = self.batch
        if state.count < batch.min_requests:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        rate = state.requests_per_minute()
        if batch.use_peak_rate:
            rate = max(rate, float(state.peak))
        threshold = batch.threshold_rpm
        if rate <= threshold:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        score = min(1.0, 0.5 + 0.5 * (rate - threshold) / threshold)
        return OnlineVerdict(
            request_id=record.request_id,
            alerted=True,
            reason=f"session rate {rate:.0f} req/min exceeds {threshold:.0f}",
            score=score,
        )

    def on_session_close(self, session: Session) -> None:
        self._state.pop(session.session_id, None)
        _alert_closed_session(self, self.batch, session)


class OnlineInHouseDetector(OnlineDetector):
    """Online port of the in-house heuristic rule engine.

    The authoritative judgement happens at session close, where the full
    session is run through the batch rule set's frame kernels (including
    the verified-crawler whitelist), so the final alert set matches
    :class:`~repro.detectors.inhouse.InHouseHeuristicDetector` exactly.
    Online, sessions are re-judged whenever their request count doubles
    (1, 2, 4, 8, ...), which keeps the per-request cost amortised O(1)
    while still tripping on rule violations shortly after they appear.
    """

    name = "inhouse"

    def __init__(
        self,
        batch: HeuristicRuleDetector | None = None,
        *,
        name: str | None = None,
    ) -> None:
        resolved_name = name or (batch.name if batch is not None else self.name)
        super().__init__(name=resolved_name)
        self.batch = batch or InHouseHeuristicDetector(name=resolved_name)
        #: session_id -> (request count at last evaluation, cached verdict)
        self._provisional: dict[str, tuple[int, tuple[float, Sequence[str]] | None]] = {}

    def _reset_state(self) -> None:
        self._provisional.clear()

    def observe(self, record: LogRecord, session: Session | None = None) -> OnlineVerdict:
        if session is None:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        count = len(session.records)
        cached = self._provisional.get(session.session_id)
        if cached is None or count >= 2 * cached[0]:
            verdict = session_verdict(self.batch, session)
            self._provisional[session.session_id] = (count, verdict)
        else:
            verdict = cached[1]
        if verdict is None:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        score, reasons = verdict
        return OnlineVerdict(
            request_id=record.request_id,
            alerted=True,
            reason="; ".join(reasons),
            score=score,
        )

    def on_session_close(self, session: Session) -> None:
        self._provisional.pop(session.session_id, None)
        _alert_closed_session(self, self.batch, session)


#: A closed session as the anomaly port keeps it: (start ISO timestamp,
#: session id, feature vector, rows).
_ClosedSession = tuple[str, str, np.ndarray, array]


class OnlineAnomalyDetector(OnlineDetector):
    """Incremental anomaly scorer backed by the :mod:`repro.anomaly` models.

    Closed sessions are folded into a feature store; every
    ``refit_interval`` closed sessions the model is refitted so live
    verdicts track the evolving traffic.  Online, a session is flagged
    when its features score above the current contamination threshold.

    At end of stream :meth:`finalize` refits on *all* sessions and
    re-derives the threshold exactly like the batch
    :class:`~repro.detectors.anomaly_detector.AnomalySessionDetector`,
    which makes the final alert set identical for order-independent
    models such as :class:`~repro.anomaly.zscore.RobustZScoreModel` (the
    default).  Models that subsample rows (e.g. the isolation forest)
    reproduce the batch results only approximately.
    """

    name = "anomaly"

    def __init__(
        self,
        model_factory: Callable[[], AnomalyModel] = RobustZScoreModel,
        *,
        name: str | None = None,
        contamination: float = 0.3,
        refit_interval: int = 64,
    ) -> None:
        if not 0.0 < contamination < 1.0:
            raise ValueError("contamination must be in (0, 1)")
        if refit_interval < 2:
            raise ValueError("refit_interval must be at least 2")
        super().__init__(name=name)
        self.model_factory = model_factory
        self.contamination = contamination
        self.refit_interval = refit_interval
        #: (session start ISO timestamp, session id, feature vector, rows)
        self._closed: list[_ClosedSession] = []
        self._live_model: AnomalyModel | None = None
        self._live_threshold = float("inf")
        #: session_id -> (request count at last scoring, alerted, score)
        self._provisional: dict[str, tuple[int, bool, float]] = {}

    def _reset_state(self) -> None:
        self._closed.clear()
        self._live_model = None
        self._live_threshold = float("inf")
        self._provisional.clear()

    # ------------------------------------------------------------------
    def observe(self, record: LogRecord, session: Session | None = None) -> OnlineVerdict:
        if session is None or self._live_model is None:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        count = len(session.records)
        cached = self._provisional.get(session.session_id)
        if cached is None or count >= 2 * cached[0]:
            columns, index = session_columns(session)
            score = float(self._live_model.score(columns.features.values[index : index + 1])[0])
            alerted = score >= self._live_threshold
            self._provisional[session.session_id] = (count, alerted, score)
        else:
            _, alerted, score = cached
        if not alerted:
            return OnlineVerdict(request_id=record.request_id, alerted=False)
        return OnlineVerdict(
            request_id=record.request_id,
            alerted=True,
            reason=f"session anomaly score {score:.3f} above threshold",
            score=min(1.0, score / (self._live_threshold or 1.0)),
        )

    def on_session_close(self, session: Session) -> None:
        self._provisional.pop(session.session_id, None)
        columns, index = session_columns(session)
        self._closed.append(
            (
                session.start.isoformat(),
                session.session_id,
                columns.features.values[index],
                self._session_rows(session),
            )
        )
        if len(self._closed) % self.refit_interval == 0:
            self._refit_live_model()

    def _refit_live_model(self) -> None:
        matrix = np.vstack([entry[2] for entry in self._closed])
        model = self.model_factory()
        scores = model.fit_score(matrix)
        self._live_model = model
        self._live_threshold = model.threshold_for_contamination(scores, self.contamination)

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        self._score_closed_sessions(self._closed)

    def _score_closed_sessions(self, closed: Sequence[_ClosedSession]) -> None:
        """The batch-identical global fit/threshold/alert computation."""
        self.bind(self._rows)
        if len(closed) < 2:
            return
        # Sort by session start for reproducibility (the batch detector
        # scores sessions in start order; order only matters to models
        # that subsample rows).
        ordered = sorted(closed, key=lambda entry: (entry[0], entry[1]))
        matrix = np.vstack([entry[2] for entry in ordered])
        flags, scores, codes, reasons = alert_anomalous_groups(
            self.model_factory(), matrix, self.contamination
        )
        for index in np.flatnonzero(flags).tolist():
            self._alerts.extend(ordered[index][3], float(scores[index]), reasons[codes[index]])

    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        # Export the raw per-session features instead of per-shard alerts:
        # the contamination threshold is a quantile over *all* sessions, so
        # merging must pool features and refit globally.
        return {"sessions": list(self._closed)}

    def merge_states(self, states: Sequence[Mapping], offsets: Sequence[int]) -> AlertColumns:
        pooled: list[_ClosedSession] = []
        for state, offset in zip(states, offsets):
            for start, session_id, features, rows in state["sessions"]:
                pooled.append((start, session_id, features, shift_rows(rows, offset)))
        self._score_closed_sessions(pooled)
        return self._alerts


def default_online_detectors(
    *,
    contamination: float = 0.3,
    model_factory: Callable[[], AnomalyModel] = RobustZScoreModel,
) -> list[OnlineDetector]:
    """The standard four-detector online ensemble (one port per family)."""
    return [
        OnlineRateLimitDetector(),
        OnlineFingerprintDetector(),
        OnlineInHouseDetector(),
        OnlineAnomalyDetector(model_factory, contamination=contamination),
    ]


# ----------------------------------------------------------------------
# Online-detector registry
# ----------------------------------------------------------------------
_ONLINE_REGISTRY: Registry[OnlineDetector] = Registry("online detector", DetectorError)


def register_online_detector(
    name: str, factory: Callable[..., OnlineDetector], *, overwrite: bool = False
) -> None:
    """Register an online-detector factory under ``name``."""
    _ONLINE_REGISTRY.register(name, factory, overwrite=overwrite)


def available_online_detectors() -> list[str]:
    """Names of all registered online detectors."""
    return _ONLINE_REGISTRY.names()


def create_online_detector(name: str, **kwargs) -> OnlineDetector:
    """Instantiate a registered online detector by name.

    Raises :class:`~repro.exceptions.DetectorError` -- with a
    did-you-mean suggestion -- when the name is unknown.
    """
    return _ONLINE_REGISTRY.create(name, **kwargs)


def _online_anomaly_factory(*, contamination: float = 0.3) -> OnlineDetector:
    return OnlineAnomalyDetector(RobustZScoreModel, contamination=contamination)


register_online_detector("rate-limit", OnlineRateLimitDetector)
register_online_detector("ua-fingerprint", OnlineFingerprintDetector)
register_online_detector("inhouse", OnlineInHouseDetector)
register_online_detector("anomaly", _online_anomaly_factory)
register_online_detector("request-rate", OnlineRequestRateLimiter)
