"""The :class:`Dataset` container.

A data set binds together:

* the ordered collection of :class:`~repro.logs.record.LogRecord` objects
  (what the detectors see),
* optional :class:`GroundTruth` labels (what the labelled-evaluation
  extension experiments need), and
* :class:`DatasetMetadata` describing where the data came from.

Ground truth is deliberately kept *outside* the records so a detector can
never read a label by accident; the paper's whole point is that the tools
only observe the HTTP requests.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import DatasetError, LabelError
from repro.logs.record import LogRecord

#: Label value used for requests issued by malicious scrapers.
MALICIOUS = "malicious"
#: Label value used for benign requests (humans and legitimate bots).
BENIGN = "benign"


@dataclass(frozen=True)
class DatasetMetadata:
    """Descriptive metadata attached to a :class:`Dataset`."""

    name: str = "unnamed"
    description: str = ""
    source: str = "synthetic"
    scenario: str = ""
    scale: float = 1.0
    seed: int | None = None
    extra: Mapping[str, object] = field(default_factory=dict)


class GroundTruth:
    """Ground-truth labels for the requests of a data set.

    The label store maps ``request_id -> (label, actor_class)`` where
    ``label`` is :data:`MALICIOUS` or :data:`BENIGN` and ``actor_class``
    is the finer-grained actor family that produced the request (e.g.
    ``"human"``, ``"search_crawler"``, ``"aggressive_scraper"``).
    """

    def __init__(self) -> None:
        self._labels: dict[str, str] = {}
        self._actor_classes: dict[str, str] = {}

    # ------------------------------------------------------------------
    def set(self, request_id: str, label: str, actor_class: str = "") -> None:
        """Record the label for a request."""
        if label not in (MALICIOUS, BENIGN):
            raise LabelError(f"unknown label {label!r}; expected {MALICIOUS!r} or {BENIGN!r}")
        self._labels[request_id] = label
        if actor_class:
            self._actor_classes[request_id] = actor_class

    def label_of(self, request_id: str) -> str:
        """Return the label for a request, raising :class:`LabelError` if absent."""
        try:
            return self._labels[request_id]
        except KeyError as exc:
            raise LabelError(f"no ground truth for request {request_id!r}") from exc

    def actor_class_of(self, request_id: str) -> str:
        """Return the actor class for a request (empty string when unknown)."""
        return self._actor_classes.get(request_id, "")

    def is_malicious(self, request_id: str) -> bool:
        """True when the request is labelled malicious."""
        return self.label_of(request_id) == MALICIOUS

    def __contains__(self, request_id: str) -> bool:
        return request_id in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def malicious_ids(self) -> set[str]:
        """The set of request ids labelled malicious."""
        return {rid for rid, label in self._labels.items() if label == MALICIOUS}

    def benign_ids(self) -> set[str]:
        """The set of request ids labelled benign."""
        return {rid for rid, label in self._labels.items() if label == BENIGN}

    def label_columns(self, request_ids: Sequence[str]) -> tuple[list[str], list[str]]:
        """Bulk ``(labels, actor_classes)`` for the given request ids.

        The read counterpart of :meth:`from_columns`: two aligned value
        lists in one pass over the internal stores (no per-request method
        dispatch).  Raises :class:`LabelError` when any id lacks a label.
        """
        labels = self._labels
        actors = self._actor_classes
        try:
            label_values = [labels[request_id] for request_id in request_ids]
        except KeyError as exc:
            raise LabelError(f"no ground truth for request {exc.args[0]!r}") from exc
        actor_get = actors.get
        return label_values, [actor_get(request_id, "") for request_id in request_ids]

    def actor_class_counts(self) -> Counter[str]:
        """Number of requests per actor class."""
        return Counter(self._actor_classes.values())

    def to_dict(self) -> dict[str, dict[str, str]]:
        """JSON-friendly representation (used by :meth:`Dataset.save_labels`)."""
        return {
            rid: {"label": label, "actor_class": self._actor_classes.get(rid, "")}
            for rid, label in self._labels.items()
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Mapping[str, str]]) -> "GroundTruth":
        """Inverse of :meth:`to_dict`."""
        truth = cls()
        for rid, entry in data.items():
            truth.set(rid, entry["label"], entry.get("actor_class", ""))
        return truth

    @classmethod
    def from_columns(
        cls,
        request_ids: Sequence[str],
        labels: Sequence[str],
        actor_classes: Sequence[str],
    ) -> "GroundTruth":
        """Build ground truth from parallel columns in one pass.

        This is the bulk counterpart of :meth:`set` used by the trace
        reader: label values are validated once per *distinct* value
        instead of once per request, and the stores are built with dict
        constructors rather than per-record method calls.
        """
        if not (len(request_ids) == len(labels) == len(actor_classes)):
            raise LabelError(
                "ground-truth columns must have equal lengths "
                f"(got {len(request_ids)}, {len(labels)}, {len(actor_classes)})"
            )
        unknown = set(labels) - {MALICIOUS, BENIGN}
        if unknown:
            raise LabelError(
                f"unknown labels {sorted(unknown)}; expected {MALICIOUS!r} or {BENIGN!r}"
            )
        truth = cls()
        truth._labels = dict(zip(request_ids, labels))
        truth._actor_classes = {
            rid: actor for rid, actor in zip(request_ids, actor_classes) if actor
        }
        return truth


class Dataset:
    """An ordered collection of log records with optional ground truth.

    A data set is either built from its records or backed by a
    :class:`~repro.columns.RecordFrame` (:meth:`from_frame`, the traffic
    generator's output).  A frame-backed data set answers :func:`len`,
    :attr:`request_ids`, :attr:`is_labelled`, :attr:`is_time_ordered`
    and :attr:`metadata` from the frame, and builds its records and
    ground truth only when a caller first asks for them.
    """

    def __init__(
        self,
        records: Sequence[LogRecord] | Iterable[LogRecord],
        ground_truth: GroundTruth | None = None,
        metadata: DatasetMetadata | None = None,
        *,
        time_ordered: bool | None = None,
    ) -> None:
        self._frame = None
        self._set_records(list(records))
        self._ground_truth = ground_truth
        self.metadata = metadata or DatasetMetadata()
        # ``None`` means "unknown": :attr:`is_time_ordered` checks (and
        # caches) lazily.  Producers that build records in timestamp
        # order -- the traffic generator, the trace reader -- pass
        # ``True`` so replay never needs a sorted copy.
        self._time_ordered = time_ordered
        self._request_ids: list[str] | None = None
        self._row_of: dict[str, int] | None = None

    @classmethod
    def from_frame(cls, frame, *, time_ordered: bool | None = None) -> "Dataset":
        """A data set backed by ``frame`` (its records, labels and metadata)."""
        dataset = cls((), metadata=frame.metadata, time_ordered=time_ordered)
        dataset._frame = frame
        dataset._records = None
        dataset._request_ids = frame.request_ids
        return dataset

    def _set_records(self, records: list[LogRecord]) -> None:
        self._records = records
        self._by_id: dict[str, LogRecord] = {record.request_id: record for record in records}
        if len(self._by_id) != len(records):
            # Only walk again (to name the culprit) once the cheap
            # cardinality check has already proven there is one.
            seen: set[str] = set()
            for record in records:
                if record.request_id in seen:
                    raise DatasetError(f"duplicate request id: {record.request_id!r}")
                seen.add(record.request_id)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._frame) if self._records is None else len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> LogRecord:
        return self.records[index]

    def __contains__(self, request_id: str) -> bool:
        self._materialise()
        return request_id in self._by_id

    @property
    def frame(self):
        """The backing :class:`~repro.columns.RecordFrame`, or ``None`` for a record-built data set."""
        return self._frame

    def _materialise(self) -> None:
        """Build a frame-backed data set's records and id index, once."""
        if self._records is None:
            self._set_records(list(self._frame.iter_records()))

    @property
    def records(self) -> list[LogRecord]:
        """The records in log order (do not mutate)."""
        self._materialise()
        return self._records

    @property
    def request_ids(self) -> list[str]:
        """All request ids in log order (cached; do not mutate)."""
        if self._request_ids is None:
            self._request_ids = [record.request_id for record in self._records]
        return self._request_ids

    def row_index(self) -> dict[str, int]:
        """``{request_id: row}`` in log order (cached; do not mutate).

        Consumers that used to rebuild ``{rid: i}`` per call (matrix
        assembly, stream equivalence bridges) share this one map.
        """
        if self._row_of is None:
            self._row_of = {rid: i for i, rid in enumerate(self.request_ids)}
        return self._row_of

    def get(self, request_id: str) -> LogRecord:
        """Return the record with the given id."""
        self._materialise()
        try:
            return self._by_id[request_id]
        except KeyError as exc:
            raise DatasetError(f"no record with request id {request_id!r}") from exc

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    @property
    def ground_truth(self) -> GroundTruth | None:
        """The ground-truth labels, if any (a frame-backed data set builds them on first use)."""
        if self._ground_truth is None and self._frame is not None:
            self._ground_truth = self._frame.ground_truth()
        return self._ground_truth

    @property
    def is_labelled(self) -> bool:
        """True when every record has a ground-truth label."""
        if self._frame is not None:
            return self._frame.is_labelled
        if self.ground_truth is None:
            return False
        return all(record.request_id in self.ground_truth for record in self._records)

    def require_labels(self) -> GroundTruth:
        """Return the ground truth, raising :class:`LabelError` if incomplete."""
        truth = self.ground_truth
        if truth is None:
            raise LabelError("data set has no ground truth labels")
        missing = [rid for rid in self.request_ids if rid not in truth]
        if missing:
            raise LabelError(f"{len(missing)} records lack ground truth (first: {missing[0]!r})")
        return truth

    def label_columns(self) -> tuple[list[str], list[str]] | None:
        """``(labels, actor_classes)`` in record order; ``None`` unless every record is labelled."""
        truth = self.ground_truth
        if truth is None:
            return None
        try:
            return truth.label_columns(self.request_ids)
        except LabelError:
            return None

    def malicious_fraction(self) -> float:
        """Fraction of requests labelled malicious (requires labels)."""
        truth = self.require_labels()
        if not len(self):
            return 0.0
        malicious = sum(1 for rid in self.request_ids if truth.is_malicious(rid))
        return malicious / len(self)

    # ------------------------------------------------------------------
    # Views and statistics
    # ------------------------------------------------------------------
    def filter(self, predicate: Callable[[LogRecord], bool], name: str | None = None) -> "Dataset":
        """Return a new data set containing only records matching ``predicate``.

        Ground truth and metadata are shared with the parent (labels are a
        superset of the filtered records, which is fine).
        """
        filtered = [record for record in self.records if predicate(record)]
        metadata = self.metadata
        if name:
            metadata = DatasetMetadata(
                name=name,
                description=f"filtered view of {self.metadata.name}",
                source=self.metadata.source,
                scenario=self.metadata.scenario,
                scale=self.metadata.scale,
                seed=self.metadata.seed,
            )
        return Dataset(
            filtered,
            ground_truth=self.ground_truth,
            metadata=metadata,
            # A subsequence of an ordered sequence stays ordered; an
            # unknown parent stays unknown rather than paying a scan here.
            time_ordered=True if self._time_ordered else None,
        )

    def status_counts(self) -> Counter[int]:
        """Number of requests per HTTP status code."""
        return Counter(record.status for record in self.records)

    def method_counts(self) -> Counter[str]:
        """Number of requests per HTTP method."""
        return Counter(record.method.value for record in self.records)

    def day_counts(self) -> Counter[str]:
        """Number of requests per calendar day (ISO date strings)."""
        return Counter(record.day for record in self.records)

    def unique_ips(self) -> set[str]:
        """The set of distinct client IPs."""
        return {record.client_ip for record in self.records}

    def unique_user_agents(self) -> set[str]:
        """The set of distinct user-agent strings."""
        return {record.user_agent for record in self.records}

    def time_span(self) -> tuple[datetime, datetime]:
        """The (first, last) request timestamps."""
        if not len(self):
            raise DatasetError("cannot compute the time span of an empty data set")
        timestamps = [record.timestamp for record in self.records]
        return min(timestamps), max(timestamps)

    @property
    def is_time_ordered(self) -> bool:
        """True when the records are already in timestamp order.

        The answer is cached: producers that emit records in order mark
        the data set at construction time, and otherwise a single O(n)
        scan (no copy) settles it the first time replay code asks.
        """
        if self._time_ordered is None:
            records = self.records
            self._time_ordered = all(
                records[i - 1].timestamp <= records[i].timestamp for i in range(1, len(records))
            )
        return self._time_ordered

    def sorted_by_time(self) -> "Dataset":
        """Return a copy with the records sorted by timestamp (stable)."""
        ordered = sorted(self.records, key=lambda record: record.timestamp)
        return Dataset(
            ordered, ground_truth=self.ground_truth, metadata=self.metadata, time_ordered=True
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_labels(self, path: str) -> None:
        """Write the ground truth to ``path`` as JSON."""
        truth = self.require_labels()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(truth.to_dict(), handle)

    @staticmethod
    def load_labels(path: str) -> GroundTruth:
        """Load ground truth previously written by :meth:`save_labels`."""
        with open(path, "r", encoding="utf-8") as handle:
            return GroundTruth.from_dict(json.load(handle))

    def summary(self) -> dict[str, object]:
        """A dictionary summary of the data set (used by the CLI and reports)."""
        info: dict[str, object] = {
            "name": self.metadata.name,
            "records": len(self),
            "unique_ips": len(self.unique_ips()),
            "unique_user_agents": len(self.unique_user_agents()),
            "statuses": dict(self.status_counts()),
            "days": dict(self.day_counts()),
            "labelled": self.is_labelled,
        }
        if self.is_labelled:
            info["malicious_fraction"] = round(self.malicious_fraction(), 4)
        return info
