"""Alerts, alert sets and the alert matrix.

The unit of analysis in the paper is the *HTTP request*: for every request
each tool either raised an alert or did not.  This module provides:

* :class:`Alert` -- one detector's verdict on one request (with a score
  and human-readable reasons),
* :class:`AlertSet` -- all alerts raised by one detector over a data set,
* :class:`AlertMatrix` -- the request x detector boolean matrix that every
  diversity analysis, adjudication scheme and deployment-configuration
  model is computed from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from repro.exceptions import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing-only (avoids an import cycle)
    from repro.columns.alertframe import AlertFrame
    from repro.logs.dataset import Dataset


@dataclass(frozen=True)
class Alert:
    """One detector's alert on one HTTP request."""

    request_id: str
    detector: str
    score: float = 1.0
    reasons: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.score < 0:
            raise ValueError("alert scores must be non-negative")


class AlertSet:
    """All alerts raised by a single detector over a data set.

    An alert set behaves like a set of request ids (membership, length,
    iteration) while retaining the richer per-alert information.
    """

    def __init__(self, detector_name: str, alerts: Iterable[Alert] = ()) -> None:
        if not detector_name:
            raise ValueError("an alert set needs a detector name")
        self.detector_name = detector_name
        self._alerts: dict[str, Alert] = {}
        for alert in alerts:
            self.add_alert(alert)

    # ------------------------------------------------------------------
    def add(self, request_id: str, score: float = 1.0, reasons: Sequence[str] = ()) -> None:
        """Record an alert for ``request_id`` (idempotent; scores/reasons merge)."""
        existing = self._alerts.get(request_id)
        if existing is None:
            self._alerts[request_id] = Alert(
                request_id=request_id,
                detector=self.detector_name,
                score=score,
                reasons=tuple(reasons),
            )
        else:
            merged_reasons = tuple(dict.fromkeys(existing.reasons + tuple(reasons)))
            self._alerts[request_id] = Alert(
                request_id=request_id,
                detector=self.detector_name,
                score=max(existing.score, score),
                reasons=merged_reasons,
            )

    @classmethod
    def from_scored(
        cls, detector_name: str, scored: Mapping[str, tuple[float, Sequence[str]]]
    ) -> "AlertSet":
        """Bulk-build an alert set from ``{request_id: (score, reasons)}``.

        One :class:`Alert` is constructed per entry (no per-entry merge
        pass), so composite detectors can merge their layers in plain
        dictionaries and materialise the result in one step.
        """
        alert_set = cls(detector_name)
        alert_set._alerts = {
            request_id: Alert(
                request_id=request_id,
                detector=detector_name,
                score=score,
                reasons=tuple(reasons),
            )
            for request_id, (score, reasons) in scored.items()
        }
        return alert_set

    def add_alert(self, alert: Alert) -> None:
        """Add a pre-built :class:`Alert` (must match this detector's name)."""
        if alert.detector != self.detector_name:
            raise AnalysisError(
                f"alert from detector {alert.detector!r} cannot be added to "
                f"alert set of {self.detector_name!r}"
            )
        self.add(alert.request_id, alert.score, alert.reasons)

    # ------------------------------------------------------------------
    def __contains__(self, request_id: str) -> bool:
        return request_id in self._alerts

    def __len__(self) -> int:
        return len(self._alerts)

    def __iter__(self) -> Iterator[str]:
        return iter(self._alerts)

    def request_ids(self) -> set[str]:
        """The set of alerted request ids."""
        return set(self._alerts)

    def alerts(self) -> list[Alert]:
        """All alerts (unordered)."""
        return list(self._alerts.values())

    def get(self, request_id: str) -> Alert | None:
        """The alert for ``request_id``, or ``None``."""
        return self._alerts.get(request_id)

    def reason_counts(self) -> dict[str, int]:
        """How many alerts carry each reason (useful for drill-down).

        One C-level pass (``Counter`` over a chained iterator) instead of
        a per-alert/per-reason Python loop; insertion order (first
        appearance) is preserved like the naive loop's.
        """
        counts = Counter(
            chain.from_iterable(alert.reasons for alert in self._alerts.values())
        )
        return dict(counts)

    def restrict_to(self, request_ids: Iterable[str]) -> "AlertSet":
        """A copy containing only alerts for the given request ids.

        Alerts are frozen, so the restricted set shares them instead of
        re-running the add/merge path per alert.
        """
        allowed = (
            request_ids if isinstance(request_ids, (set, frozenset)) else set(request_ids)
        )
        restricted = AlertSet(self.detector_name)
        restricted._alerts = {
            rid: alert for rid, alert in self._alerts.items() if rid in allowed
        }
        return restricted

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"AlertSet(detector={self.detector_name!r}, alerts={len(self)})"


class AlertMatrix:
    """The request x detector boolean alert matrix.

    Rows follow the data set's request order; columns follow the order in
    which the alert sets were supplied.  The matrix is the single source
    of truth for every downstream analysis, so detector outputs are
    validated against the data set when it is built: alerts on unknown
    request ids raise :class:`~repro.exceptions.AnalysisError`.
    """

    def __init__(
        self,
        request_ids: Sequence[str],
        detector_names: Sequence[str],
        matrix: npt.NDArray[np.bool_],
    ) -> None:
        if matrix.shape != (len(request_ids), len(detector_names)):
            raise AnalysisError(
                f"matrix shape {matrix.shape} does not match "
                f"{len(request_ids)} requests x {len(detector_names)} detectors"
            )
        self._request_ids = list(request_ids)
        self._detector_names = list(detector_names)
        self._matrix = matrix.astype(bool, copy=False)
        self._row_index_cache: dict[str, int] | None = None
        self._column_index_cache: dict[str, int] | None = None

    @property
    def _row_index(self) -> dict[str, int]:
        # Built lazily: the frame-native path never looks rows up by id.
        if self._row_index_cache is None:
            self._row_index_cache = {rid: i for i, rid in enumerate(self._request_ids)}
        return self._row_index_cache

    @property
    def _column_index(self) -> dict[str, int]:
        if self._column_index_cache is None:
            self._column_index_cache = {
                name: j for j, name in enumerate(self._detector_names)
            }
        return self._column_index_cache

    # ------------------------------------------------------------------
    @classmethod
    def from_alert_frame(cls, alert_frame: "AlertFrame") -> "AlertMatrix":
        """Stack an :class:`~repro.columns.alertframe.AlertFrame`'s flags.

        Zero per-alert iteration: the per-detector boolean columns are
        column-stacked straight into the matrix (an ``n x 1`` copy per
        detector, nothing per alert), and row/column id indexes are built
        lazily only if a dict-path consumer asks for them.
        """
        frame = alert_frame.frame
        names = alert_frame.detector_names
        if alert_frame.detectors:
            matrix = np.column_stack([alerts.flags for alerts in alert_frame.detectors])
        else:
            matrix = np.zeros((len(frame), 0), dtype=bool)
        return cls(frame.request_ids, names, matrix)

    @classmethod
    def from_alert_sets(
        cls, dataset: "Dataset", alert_sets: Sequence[AlertSet], *, strict: bool = True
    ) -> "AlertMatrix":
        """Build the matrix from a data set and one alert set per detector.

        Parameters
        ----------
        dataset:
            The :class:`~repro.logs.dataset.Dataset` the detectors analysed.
        alert_sets:
            One :class:`AlertSet` per detector; detector names must be unique.
        strict:
            When true (default), alerts for request ids that are not in the
            data set raise an error; otherwise they are ignored.
        """
        names = [alert_set.detector_name for alert_set in alert_sets]
        if len(set(names)) != len(names):
            raise AnalysisError(f"duplicate detector names in alert sets: {names}")
        request_ids = dataset.request_ids
        matrix = np.zeros((len(request_ids), len(alert_sets)), dtype=bool)
        row_of = dataset.row_index()
        for column, alert_set in enumerate(alert_sets):
            for request_id in alert_set:
                if request_id not in row_of:
                    if strict:
                        raise AnalysisError(
                            f"detector {alert_set.detector_name!r} alerted on unknown "
                            f"request id {request_id!r}"
                        )
                    continue
                matrix[row_of[request_id], column] = True
        return cls(request_ids, names, matrix)

    # ------------------------------------------------------------------
    @property
    def request_ids(self) -> list[str]:
        """Request ids in row order."""
        return self._request_ids

    @property
    def detector_names(self) -> list[str]:
        """Detector names in column order."""
        return self._detector_names

    @property
    def values(self) -> npt.NDArray[np.bool_]:
        """The underlying boolean matrix (requests x detectors). Do not mutate."""
        return self._matrix

    @property
    def n_requests(self) -> int:
        """Number of requests (rows)."""
        return len(self._request_ids)

    @property
    def n_detectors(self) -> int:
        """Number of detectors (columns)."""
        return len(self._detector_names)

    # ------------------------------------------------------------------
    def column(self, detector_name: str) -> npt.NDArray[np.bool_]:
        """The boolean alert vector of one detector."""
        try:
            index = self._column_index[detector_name]
        except KeyError as exc:
            raise AnalysisError(
                f"unknown detector {detector_name!r}; have {self._detector_names}"
            ) from exc
        return self._matrix[:, index]

    def row(self, request_id: str) -> npt.NDArray[np.bool_]:
        """The boolean verdict vector for one request."""
        try:
            index = self._row_index[request_id]
        except KeyError as exc:
            raise AnalysisError(f"unknown request id {request_id!r}") from exc
        return self._matrix[index, :]

    def alert_counts(self) -> dict[str, int]:
        """Number of alerted requests per detector (the paper's Table 1)."""
        totals = self._matrix.sum(axis=0)
        return {name: int(totals[j]) for j, name in enumerate(self._detector_names)}

    def votes_per_request(self) -> npt.NDArray[np.int64]:
        """Number of detectors alerting on each request (row sums)."""
        votes: npt.NDArray[np.int64] = self._matrix.sum(axis=1, dtype=np.int64)
        return votes

    def alerted_by(self, detector_name: str) -> set[str]:
        """The set of request ids alerted by one detector."""
        mask = self.column(detector_name)
        return {rid for rid, flag in zip(self._request_ids, mask) if flag}

    def alerted_by_exactly(self, detector_name: str) -> set[str]:
        """Request ids alerted by this detector and *no* other."""
        column_index = self._column_index.get(detector_name)
        if column_index is None:
            raise AnalysisError(f"unknown detector {detector_name!r}")
        votes = self.votes_per_request()
        mask = self._matrix[:, column_index] & (votes == 1)
        return {rid for rid, flag in zip(self._request_ids, mask) if flag}

    def alerted_by_all(self) -> set[str]:
        """Request ids alerted by every detector."""
        mask = self._matrix.all(axis=1)
        return {rid for rid, flag in zip(self._request_ids, mask) if flag}

    def alerted_by_none(self) -> set[str]:
        """Request ids alerted by no detector."""
        mask = ~self._matrix.any(axis=1)
        return {rid for rid, flag in zip(self._request_ids, mask) if flag}

    def select(self, detector_names: Sequence[str]) -> "AlertMatrix":
        """A sub-matrix containing only the given detectors (same row order)."""
        columns = []
        for name in detector_names:
            if name not in self._column_index:
                raise AnalysisError(f"unknown detector {name!r}")
            columns.append(self._column_index[name])
        return AlertMatrix(self._request_ids, list(detector_names), self._matrix[:, columns])

    def to_alert_sets(self) -> list[AlertSet]:
        """Reconstruct plain alert sets from the matrix (scores/reasons are lost)."""
        sets = []
        for name in self._detector_names:
            alert_set = AlertSet(name)
            for request_id in self.alerted_by(name):
                alert_set.add(request_id)
            sets.append(alert_set)
        return sets
