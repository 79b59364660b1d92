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
# Guarded segment reductions
# ----------------------------------------------------------------------
def _segment_reduce(ufunc, values: np.ndarray, starts: np.ndarray, counts: np.ndarray, fill):
    """Per-segment ``ufunc`` reduction that tolerates empty segments.

    ``np.ufunc.reduceat`` mishandles zero-length segments (it returns the
    element at the segment start), so the reduction runs over non-empty
    segments only and empty ones receive ``fill``.  Because consecutive
    non-empty segments are contiguous in ``values``, dropping the empty
    starts does not change any non-empty segment's boundaries.  Segments
    run along the last axis, so several stacked columns reduce in one call.
    """
    if values.shape[-1] and counts.all():
        return ufunc.reduceat(values, starts[:-1], axis=-1)
    result = np.full(
        values.shape[:-1] + (len(counts),),
        fill,
        dtype=values.dtype if values.size else np.float64,
    )
    nonempty = counts > 0
    if values.size and np.any(nonempty):
        result[..., nonempty] = ufunc.reduceat(values, starts[:-1][nonempty], axis=-1)
    return result


def _segment_sum(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    return _segment_reduce(np.add, values, starts, counts, 0)


def _segment_count(flags: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    return _segment_sum(flags.astype(np.int64), starts, counts)


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
        """Gather a frame's columns into session-grouped order."""
        order = sessions.order
        agents = frame.tables["user_agent"]
        scripted_table = frame.table_flags("scripted_agent", agents, is_scripted_agent)
        headless_table = frame.table_flags("headless_agent", agents, is_headless_agent)
        crawler_table = frame.table_flags("crawler_agent", agents, is_known_crawler_agent)
        return cls(
            starts=sessions.starts,
            ts_us=frame.timestamps_us[order],
            night=frame.night_flags()[order],
            statuses=frame.statuses[order],
            is_asset=frame.path_is_asset()[order],
            has_referrer=frame.has_referrer()[order],
            is_head=frame.method_is("HEAD")[order],
            is_robots=frame.path_is_robots()[order],
            url_path_codes=frame.url_path_codes()[order],
            n_url_paths=frame.n_url_paths,
            scripted=scripted_table[sessions.agent_codes],
            headless=headless_table[sessions.agent_codes],
            crawler_claim=crawler_table[sessions.agent_codes],
            session_ids=list(sessions.session_ids),
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
        self._ts_grouped = ts_grouped
        self._starts = starts
        self._peak_cache: dict[float, np.ndarray] = {}
        self._column_index = {name: j for j, name in enumerate(FEATURE_NAMES)}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.session_ids)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def column(self, name: str) -> np.ndarray:
        """One feature column, by name."""
        try:
            return self.values[:, self._column_index[name]]
        except KeyError as exc:
            raise ColumnsError(f"unknown feature {name!r}; have {FEATURE_NAMES}") from exc

    def row(self, index: int) -> SessionFeatures:
        """One session's features as a :class:`SessionFeatures` record."""
        vector = self.values[index]
        get = self._column_index.__getitem__
        return SessionFeatures(
            session_id=self.session_ids[index],
            request_count=int(vector[get("request_count")]),
            requests_per_minute=float(vector[get("requests_per_minute")]),
            mean_interarrival=float(vector[get("mean_interarrival")]),
            interarrival_cv=float(vector[get("interarrival_cv")]),
            error_rate=float(vector[get("error_rate")]),
            no_content_fraction=float(vector[get("no_content_fraction")]),
            not_modified_fraction=float(vector[get("not_modified_fraction")]),
            asset_fraction=float(vector[get("asset_fraction")]),
            referrer_fraction=float(vector[get("referrer_fraction")]),
            unique_path_ratio=float(vector[get("unique_path_ratio")]),
            head_fraction=float(vector[get("head_fraction")]),
            robots_hits=int(vector[get("robots_hits")]),
            night_fraction=float(vector[get("night_fraction")]),
            scripted_agent=bool(vector[get("scripted_agent")] != 0.0),
            headless_agent=bool(vector[get("headless_agent")] != 0.0),
            crawler_claim=bool(vector[get("crawler_claim")] != 0.0),
        )

    def to_features(self) -> list[SessionFeatures]:
        """All sessions as :class:`SessionFeatures` records (compat layer)."""
        return [self.row(index) for index in range(len(self))]

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
            cached = _peak_rpm(self._ts_grouped, self._starts, self.counts, window_seconds)
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
        """Run the shared kernels over session-grouped arrays."""
        starts = np.asarray(arrays.starts, dtype=np.int64)
        counts = np.diff(starts)
        n_sessions = len(counts)
        ts = arrays.ts_us
        total = len(ts)
        safe_counts = np.maximum(counts, 1)

        if total:
            clamp = np.minimum(starts[:-1], total - 1)
            first_ts = ts[clamp]
            last_ts = ts[np.minimum(np.maximum(starts[1:] - 1, 0), total - 1)]
        else:
            first_ts = np.zeros(n_sessions, dtype=np.int64)
            last_ts = np.zeros(n_sessions, dtype=np.int64)
        duration_s = np.where(counts > 0, (last_ts - first_ts) / 1e6, 0.0)

        # Average rate; single-request sessions count as their size.
        minutes = np.maximum(duration_s / 60.0, 1.0 / 60.0)
        rpm = np.where(counts <= 1, counts.astype(np.float64), counts / minutes)

        # Inter-arrival gaps (seconds), segmented per session.
        if total > 1:
            diffs = np.diff(ts)
            valid = np.ones(total - 1, dtype=bool)
            boundaries = starts[1:-1]
            boundaries = boundaries[(boundaries > 0) & (boundaries < total)]
            valid[boundaries - 1] = False
            gaps_s = diffs[valid] / 1e6
        else:
            gaps_s = np.empty(0, dtype=np.float64)
        gap_counts = np.maximum(counts - 1, 0)
        gap_starts = np.empty(n_sessions + 1, dtype=np.int64)
        gap_starts[0] = 0
        np.cumsum(gap_counts, out=gap_starts[1:])
        safe_gap_counts = np.maximum(gap_counts, 1)

        gap_sums = _segment_sum(gaps_s, gap_starts, gap_counts)
        mean_gap = gap_sums / safe_gap_counts
        mean_interarrival = np.where(counts <= 1, 0.0, mean_gap)

        deviations = (gaps_s - np.repeat(mean_gap, gap_counts)) ** 2
        variance = _segment_sum(deviations, gap_starts, gap_counts) / safe_gap_counts
        cv_raw = np.sqrt(variance) / np.where(mean_gap > 0, mean_gap, 1.0)
        interarrival_cv = np.where(
            gap_counts < 2, 1.0, np.where(mean_gap <= 0, 0.0, cv_raw)
        )

        # Every per-record flag counted in one stacked segment reduction.
        statuses = arrays.statuses
        flags = np.array(
            [
                statuses >= 400,
                statuses == 204,
                statuses == 304,
                arrays.is_asset,
                arrays.has_referrer,
                arrays.is_head,
                arrays.night,
                arrays.is_robots,
            ]
        )
        flag_counts = _segment_count(flags, starts, counts)
        (
            error_rate,
            no_content,
            not_modified,
            asset_fraction,
            referrer_fraction,
            head_fraction,
            night_fraction,
        ) = flag_counts[:-1] / safe_counts
        robots_hits = flag_counts[-1]

        # Distinct URL paths per session: unique (session, path) pairs.
        if total:
            base = np.int64(arrays.n_url_paths + 1)
            session_of_record = np.repeat(np.arange(n_sessions, dtype=np.int64), counts)
            pairs = session_of_record * base + arrays.url_path_codes
            unique_pairs = np.unique(pairs)
            unique_paths = np.bincount(
                (unique_pairs // base).astype(np.intp), minlength=n_sessions
            ).astype(np.int64)
        else:
            unique_paths = np.zeros(n_sessions, dtype=np.int64)
        unique_ratio = np.where(counts > 0, unique_paths / safe_counts, 0.0)

        # Stacked row-wise then transposed: one C-contiguous copy, cheaper
        # than column_stack for the one-session matrices the stream builds.
        values = np.array(
            [
                counts.astype(np.float64),
                rpm,
                mean_interarrival,
                interarrival_cv,
                error_rate,
                no_content,
                not_modified,
                asset_fraction,
                referrer_fraction,
                unique_ratio,
                head_fraction,
                robots_hits.astype(np.float64),
                night_fraction,
                arrays.scripted.astype(np.float64),
                arrays.headless.astype(np.float64),
                arrays.crawler_claim.astype(np.float64),
            ],
            dtype=np.float64,
        ).T.copy()
        return cls(
            values,
            list(arrays.session_ids),
            counts=counts,
            unique_paths=unique_paths,
            duration_seconds=duration_s,
            ts_grouped=ts,
            starts=starts,
        )


# ----------------------------------------------------------------------
# Peak sliding-window rate
# ----------------------------------------------------------------------
def _peak_rpm(
    ts: np.ndarray, starts: np.ndarray, counts: np.ndarray, window_seconds: float
) -> np.ndarray:
    result = counts.astype(np.float64)
    multi = counts > 1
    if not np.any(multi):
        return result
    total = len(ts)
    threshold = _min_delta_exceeding(window_seconds)
    span = int(ts.max() - ts.min())
    offset_step = span + threshold + 2
    n_sessions = len(counts)

    if n_sessions * offset_step < 2**62:
        # Offset every session into its own disjoint time band so one
        # global searchsorted finds, for every record, the earliest
        # same-session record within the window.
        session_of_record = np.repeat(np.arange(n_sessions, dtype=np.int64), counts)
        shifted = (ts - ts.min()) + session_of_record * np.int64(offset_step)
        earliest = np.searchsorted(shifted, shifted - (threshold - 1), side="left")
        window_counts = np.arange(total, dtype=np.int64) - earliest + 1
        best = _segment_reduce(np.maximum, window_counts, starts, counts, 1)
    else:  # pragma: no cover - astronomically large frames only
        best = np.ones(n_sessions, dtype=np.int64)
        for index in np.flatnonzero(multi):
            segment = ts[starts[index] : starts[index + 1]]
            earliest = np.searchsorted(segment, segment - (threshold - 1), side="left")
            best[index] = int(
                (np.arange(len(segment), dtype=np.int64) - earliest).max()
            ) + 1
    result[multi] = best[multi] * (60.0 / window_seconds)
    return result
