"""Batched session-feature extraction: the :class:`FeatureMatrix`.

This module is the single source of truth for the session feature
schema: :data:`FEATURE_NAMES` defines the column order, the
:class:`SessionFeatures` record mirrors it field for field, and
:meth:`FeatureMatrix.row` converts between the two.  A property test
pins the three against each other so they can never drift.

Every feature is computed as a numpy segment reduction over records
arranged session by session (a :class:`~repro.columns.sessions.FrameSessions`
index).  Crucially, the *same kernels* back both the batched path and
the one-session record path
(:func:`repro.detectors.features.extract_features` builds a one-segment
:class:`SessionArrays` and calls into here), so the two paths produce
bit-identical floats: ``np.add.reduceat`` results depend only on the
segment contents, which makes "columnar run == record-object run" an
exact equality rather than a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import ColumnsError
from repro.traffic.useragents import is_headless_agent, is_known_crawler_agent, is_scripted_agent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns.frame import RecordFrame
    from repro.columns.sessions import FrameSessions
    from repro.logs.record import LogRecord

#: Order of the numeric feature vector produced by
#: :meth:`SessionFeatures.vector` and of the :class:`FeatureMatrix`
#: columns.  THE single definition -- everything else derives from it.
FEATURE_NAMES: tuple[str, ...] = (
    "request_count",
    "requests_per_minute",
    "mean_interarrival",
    "interarrival_cv",
    "error_rate",
    "no_content_fraction",
    "not_modified_fraction",
    "asset_fraction",
    "referrer_fraction",
    "unique_path_ratio",
    "head_fraction",
    "robots_hits",
    "night_fraction",
    "scripted_agent",
    "headless_agent",
    "crawler_claim",
)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)


@dataclass(frozen=True)
class SessionFeatures:
    """Numeric description of one session."""

    session_id: str
    request_count: int
    requests_per_minute: float
    mean_interarrival: float
    interarrival_cv: float
    error_rate: float
    no_content_fraction: float
    not_modified_fraction: float
    asset_fraction: float
    referrer_fraction: float
    unique_path_ratio: float
    head_fraction: float
    robots_hits: int
    night_fraction: float
    scripted_agent: bool
    headless_agent: bool
    crawler_claim: bool

    def vector(self) -> np.ndarray:
        """The features as a float vector in :data:`FEATURE_NAMES` order."""
        return np.array(
            [float(getattr(self, name)) for name in FEATURE_NAMES],
            dtype=float,
        )

    def as_dict(self) -> dict[str, float]:
        """The features keyed by name."""
        return dict(zip(FEATURE_NAMES, self.vector().tolist()))


# ----------------------------------------------------------------------
# Segment reductions
# ----------------------------------------------------------------------
def _segment_sum(
    values: np.ndarray, firsts: np.ndarray, counts: np.ndarray, nonempty: bool
) -> np.ndarray:
    """Per-segment sums: segment ``j`` is ``values[firsts[j]:firsts[j] + counts[j]]``.

    Segments are back to back.  ``np.add.reduceat`` gives each non-empty
    segment the sum of exactly its own values, with the bits of
    ``ndarray.sum`` over that segment, but mishandles an empty one (it
    returns the element at the segment start).  Unless every segment is
    known to be ``nonempty``, the reduction runs over the non-empty
    segments only -- dropping the empty starts does not move any other
    segment's boundaries -- and the empty ones get 0.
    """
    if nonempty:
        return np.add.reduceat(values, firsts)
    result = np.zeros(len(counts), dtype=np.float64)
    filled = counts > 0
    if len(values):
        result[filled] = np.add.reduceat(values, firsts[filled])
    return result


def _min_delta_exceeding(window_seconds: float) -> int:
    """Smallest integer microsecond delta whose float seconds exceed the window."""
    delta = max(int(math.floor(window_seconds * 1e6)) - 2, 0)
    while not delta / 1e6 > window_seconds:
        delta += 1
    return delta


# ----------------------------------------------------------------------
# Kernel inputs
# ----------------------------------------------------------------------
@dataclass
class SessionArrays:
    """Per-record arrays in session-grouped order, plus per-session flags.

    ``starts`` holds ``n_sessions + 1`` offsets; all per-record arrays
    are aligned with each other and arranged session by session.
    ``url_path_codes`` may use any integer coding in which equal codes
    mean equal query-stripped URL paths.
    """

    starts: np.ndarray
    ts_us: np.ndarray
    night: np.ndarray
    statuses: np.ndarray
    is_asset: np.ndarray
    has_referrer: np.ndarray
    is_head: np.ndarray
    is_robots: np.ndarray
    url_path_codes: np.ndarray
    n_url_paths: int
    scripted: np.ndarray
    headless: np.ndarray
    crawler_claim: np.ndarray
    session_ids: list[str]

    # ------------------------------------------------------------------
    @classmethod
    def from_frame(cls, frame: "RecordFrame", sessions: "FrameSessions") -> "SessionArrays":
        """Arrange a frame's columns session by session.

        A frame whose rows are already session by session (the stream's
        session frames) hands its columns over uncopied.
        """
        ts_us, night, statuses, is_asset, has_referrer, is_head, is_robots, url_path_codes = (
            sessions.grouped(
                frame.timestamps_us,
                frame.night_flags(),
                frame.statuses,
                frame.path_is_asset(),
                frame.has_referrer(),
                frame.method_is("HEAD"),
                frame.path_is_robots(),
                frame.url_path_codes(),
            )
        )
        agents = frame.tables["user_agent"]
        agent_codes = sessions.agent_codes
        return cls(
            starts=sessions.starts,
            ts_us=ts_us,
            night=night,
            statuses=statuses,
            is_asset=is_asset,
            has_referrer=has_referrer,
            is_head=is_head,
            is_robots=is_robots,
            url_path_codes=url_path_codes,
            n_url_paths=frame.n_url_paths,
            scripted=frame.table_flags("scripted_agent", agents, is_scripted_agent)[agent_codes],
            headless=frame.table_flags("headless_agent", agents, is_headless_agent)[agent_codes],
            crawler_claim=frame.table_flags("crawler_agent", agents, is_known_crawler_agent)[
                agent_codes
            ],
            session_ids=sessions.session_ids,
        )

    @classmethod
    def from_session_records(
        cls, records: Sequence["LogRecord"], *, user_agent: str, session_id: str
    ) -> "SessionArrays":
        """One-segment arrays for a single session's records.

        This is the record-object path: it feeds the same kernels as the
        batched path, so a session's features come out bit-identical
        either way.
        """
        from repro.columns.frame import encode_column

        n = len(records)
        url_codes, url_path_table = encode_column([record.url_path for record in records])
        return cls(
            starts=np.array([0, n], dtype=np.int64),
            ts_us=np.fromiter(
                ((record.timestamp - _EPOCH) // _ONE_US for record in records), np.int64, n
            ),
            night=np.fromiter((record.timestamp.hour < 6 for record in records), bool, n),
            statuses=np.fromiter((record.status for record in records), np.int64, n),
            is_asset=np.fromiter((record.is_asset_request for record in records), bool, n),
            has_referrer=np.fromiter((record.has_referrer for record in records), bool, n),
            is_head=np.fromiter(
                (record.method.value == "HEAD" for record in records), bool, n
            ),
            is_robots=np.fromiter(
                (record.url_path == "/robots.txt" for record in records), bool, n
            ),
            url_path_codes=url_codes,
            n_url_paths=len(url_path_table),
            scripted=np.array([is_scripted_agent(user_agent)]),
            headless=np.array([is_headless_agent(user_agent)]),
            crawler_claim=np.array([is_known_crawler_agent(user_agent)]),
            session_ids=[session_id],
        )


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
#: Feature name -> column of the matrix.
_COLUMN = {name: j for j, name in enumerate(FEATURE_NAMES)}


class FeatureMatrix:
    """Sessions x :data:`FEATURE_NAMES` feature values, plus extras.

    The ``values`` array is the input format of the anomaly and
    classification models; the extras (exact integer request and
    distinct-path counts, durations, peak window rates) serve the rule
    and rate detectors, which need more than the 16 canonical features.
    """

    names = FEATURE_NAMES

    def __init__(
        self,
        values: np.ndarray,
        session_ids: list[str],
        *,
        counts: np.ndarray,
        unique_paths: np.ndarray,
        duration_seconds: np.ndarray,
        ts_grouped: np.ndarray,
        starts: np.ndarray,
    ) -> None:
        if values.shape != (len(session_ids), len(FEATURE_NAMES)):
            raise ColumnsError(
                f"feature values shape {values.shape} does not match "
                f"{len(session_ids)} sessions x {len(FEATURE_NAMES)} features"
            )
        self.values = values
        self.session_ids = session_ids
        self.counts = counts
        self.unique_paths = unique_paths
        self.duration_seconds = duration_seconds
        #: The most requests any session holds (0 without sessions).
        self.max_count = int(counts.max()) if len(counts) > 1 else sum(counts.tolist())
        self._ts_grouped = ts_grouped
        self._starts = starts
        self._peak_cache: dict[float, np.ndarray] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.session_ids)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def column(self, name: str) -> np.ndarray:
        """One feature column, by name."""
        try:
            return self.values[:, _COLUMN[name]]
        except KeyError as exc:
            raise ColumnsError(f"unknown feature {name!r}; have {FEATURE_NAMES}") from exc

    def row(self, index: int) -> SessionFeatures:
        """One session's features as a :class:`SessionFeatures` record."""
        vector = self.values[index].tolist()
        get = _COLUMN.__getitem__
        return SessionFeatures(
            session_id=self.session_ids[index],
            request_count=int(vector[get("request_count")]),
            requests_per_minute=vector[get("requests_per_minute")],
            mean_interarrival=vector[get("mean_interarrival")],
            interarrival_cv=vector[get("interarrival_cv")],
            error_rate=vector[get("error_rate")],
            no_content_fraction=vector[get("no_content_fraction")],
            not_modified_fraction=vector[get("not_modified_fraction")],
            asset_fraction=vector[get("asset_fraction")],
            referrer_fraction=vector[get("referrer_fraction")],
            unique_path_ratio=vector[get("unique_path_ratio")],
            head_fraction=vector[get("head_fraction")],
            robots_hits=int(vector[get("robots_hits")]),
            night_fraction=vector[get("night_fraction")],
            scripted_agent=vector[get("scripted_agent")] != 0.0,
            headless_agent=vector[get("headless_agent")] != 0.0,
            crawler_claim=vector[get("crawler_claim")] != 0.0,
        )

    def sessions_with(self, min_requests: int) -> list[int]:
        """Indices of the sessions holding at least ``min_requests`` requests."""
        if self.max_count < min_requests:
            return []
        return (self.counts >= min_requests).nonzero()[0].tolist()

    # ------------------------------------------------------------------
    def peak_rpm(self, window_seconds: float = 60.0) -> np.ndarray:
        """Per-session peak sliding-window request rate, per minute.

        The most requests any ``window_seconds`` window of the session
        holds, scaled to a per-minute rate; sessions of at most one
        request report their request count.  Average session rate hides
        bursts -- a scraper that fires 300 requests in three minutes and
        then sleeps for an hour averages under 5 requests/minute -- so
        rate rules also look at the busiest window.  Memoised per window.
        """
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        cached = self._peak_cache.get(window_seconds)
        if cached is None:
            cached = _peak_rpm(
                self._ts_grouped, self._starts, self.counts, self.max_count, window_seconds
            )
            self._peak_cache[window_seconds] = cached
        return cached

    # ------------------------------------------------------------------
    @classmethod
    def from_frame(
        cls, frame: "RecordFrame", sessions: "FrameSessions", *, registry=None
    ) -> "FeatureMatrix":
        """Compute the whole data set's feature matrix in one batch."""
        matrix = cls.from_arrays(SessionArrays.from_frame(frame, sessions))
        if registry is not None:
            from repro.obs.names import FEATURE_ROWS

            registry.counter(
                FEATURE_ROWS, "Feature-matrix rows (sessions) computed."
            ).inc(len(matrix))
        return matrix

    @classmethod
    def from_arrays(cls, arrays: SessionArrays) -> "FeatureMatrix":
        """Run the shared kernels over session-grouped arrays.

        Every session must hold at least one record.  Each reduction is
        one numpy call over all sessions at once, whatever their number,
        so a one-session frame costs a fixed number of calls.
        """
        starts = np.asarray(arrays.starts, dtype=np.int64)
        firsts = starts[:-1]
        counts = starts[1:] - firsts
        n_sessions = len(counts)
        ts = arrays.ts_us
        total = len(ts)
        shortest = int(counts.min()) if n_sessions > 1 else total
        if n_sessions and shortest < 1:
            raise ColumnsError("cannot compute the features of a session without records")

        # Duration and average rate; single-request sessions count as their size.
        if n_sessions == 1:
            duration_s = (ts[-1:] - ts[:1]) / 1e6
        else:
            duration_s = (ts[starts[1:] - 1] - ts[firsts]) / 1e6
        minutes = np.maximum(duration_s / 60.0, 1.0 / 60.0)
        rpm = np.where(counts <= 1, counts, counts / minutes)

        # Inter-arrival gaps (seconds), without the gaps between sessions.
        gaps_s = (ts[1:] - ts[:-1]) / 1e6
        gap_firsts = firsts
        if n_sessions > 1:
            keep = np.ones(len(gaps_s), dtype=bool)
            keep[firsts[1:] - 1] = False
            gaps_s = gaps_s[keep]
            gap_firsts = firsts - np.arange(n_sessions)
        gap_counts = counts - 1
        safe_gap_counts = np.maximum(gap_counts, 1)
        # A single-request session has no gaps: an empty sum, a mean of 0.
        mean_gap = _segment_sum(gaps_s, gap_firsts, gap_counts, shortest > 1) / safe_gap_counts
        spread = mean_gap if n_sessions == 1 else mean_gap.repeat(gap_counts)
        deviations = (gaps_s - spread) ** 2
        variance = _segment_sum(deviations, gap_firsts, gap_counts, shortest > 1) / safe_gap_counts
        cv = np.divide(
            np.sqrt(variance), mean_gap, out=np.zeros(n_sessions), where=mean_gap > 0
        )
        interarrival_cv = np.where(gap_counts < 2, 1.0, cv)

        # Distinct URL paths: sorted within each session (codes offset
        # per session), a path counts where it differs from the previous.
        paths = arrays.url_path_codes
        if n_sessions > 1:
            offsets = np.arange(n_sessions, dtype=np.int64) * np.int64(arrays.n_url_paths + 1)
            paths = paths + offsets.repeat(counts)
        else:
            paths = paths.copy()
        paths.sort()
        new_path = np.empty(total, dtype=bool)
        new_path[:1] = True
        np.not_equal(paths[1:], paths[:-1], out=new_path[1:])

        # Every per-record flag counted in one stacked segment reduction,
        # in feature order from error_rate to night_fraction.
        statuses = arrays.statuses
        flag_counts = np.add.reduceat(
            np.array(
                [
                    statuses >= 400,
                    statuses == 204,
                    statuses == 304,
                    arrays.is_asset,
                    arrays.has_referrer,
                    new_path,
                    arrays.is_head,
                    arrays.is_robots,
                    arrays.night,
                ]
            ),
            firsts,
            axis=1,
            dtype=np.int64,
        )

        # Filled row by row, then transposed: one C-contiguous copy.
        rows = np.empty((len(FEATURE_NAMES), n_sessions))
        rows[_COLUMN["request_count"]] = counts
        rows[_COLUMN["requests_per_minute"]] = rpm
        rows[_COLUMN["mean_interarrival"]] = mean_gap
        rows[_COLUMN["interarrival_cv"]] = interarrival_cv
        fractions = rows[_COLUMN["error_rate"] : _COLUMN["night_fraction"] + 1]
        np.divide(flag_counts, counts, out=fractions)
        rows[_COLUMN["robots_hits"]] = flag_counts[7]
        rows[_COLUMN["scripted_agent"]] = arrays.scripted
        rows[_COLUMN["headless_agent"]] = arrays.headless
        rows[_COLUMN["crawler_claim"]] = arrays.crawler_claim
        values = rows.T.copy()
        return cls(
            values,
            list(arrays.session_ids),
            counts=counts,
            unique_paths=flag_counts[5],
            duration_seconds=duration_s,
            ts_grouped=ts,
            starts=starts,
        )


# ----------------------------------------------------------------------
# Peak sliding-window rate
# ----------------------------------------------------------------------
def _peak_rpm(
    ts: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    max_count: int,
    window_seconds: float,
) -> np.ndarray:
    if max_count <= 1:
        return counts.astype(np.float64)
    threshold = _min_delta_exceeding(window_seconds)
    n_sessions = len(counts)
    if n_sessions == 1:
        shifted = ts
    else:
        low = int(ts.min())
        offset_step = int(ts.max()) - low + threshold + 2
        if n_sessions * offset_step >= 2**62:  # pragma: no cover - astronomically large frames
            return _peak_rpm_by_session(ts, starts, counts, threshold, window_seconds)
        # Offset every session into its own disjoint time band so one
        # global searchsorted finds, for every record, the earliest
        # same-session record within the window.
        bands = np.arange(n_sessions, dtype=np.int64) * np.int64(offset_step)
        shifted = (ts - low) + bands.repeat(counts)
    earliest = shifted.searchsorted(shifted - (threshold - 1), side="left")
    best = np.maximum.reduceat(np.arange(len(ts), dtype=np.int64) - earliest, starts[:-1]) + 1
    return np.where(counts > 1, best * (60.0 / window_seconds), counts)


def _peak_rpm_by_session(  # pragma: no cover - astronomically large frames only
    ts: np.ndarray, starts: np.ndarray, counts: np.ndarray, threshold: int, window_seconds: float
) -> np.ndarray:
    result = counts.astype(np.float64)
    for index in np.flatnonzero(counts > 1):
        segment = ts[starts[index] : starts[index + 1]]
        earliest = np.searchsorted(segment, segment - (threshold - 1), side="left")
        best = int((np.arange(len(segment), dtype=np.int64) - earliest).max()) + 1
        result[index] = best * (60.0 / window_seconds)
    return result
