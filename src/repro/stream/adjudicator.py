"""Windowed adjudication of live detector votes.

The paper's Section-V schemes (1-out-of-2, 2-out-of-2, and the serial
confirm/escalate deployments modelled in
:mod:`repro.core.configurations`) are evaluated over a finished alert
matrix by the batch kernels in :mod:`repro.core.framestats`.
:class:`WindowedAdjudicator` applies the same schemes *online*: every
request's detector votes are combined into one ensemble decision the
moment the request is observed, and a sliding time window of recent
decisions is maintained for live alert-rate dashboards.

The serial modes also track the second tool's *workload* -- how many
requests actually needed its verdict -- which is the cost the paper's
serial configurations try to save.  (Online detectors still observe
every request to keep their session state correct; the workload counts
measure how many requests needed the second tool's decision.)

The accumulated decisions are reported as an :class:`AdjudicationResult`
via :meth:`WindowedAdjudicator.to_result` (one engine) or
:meth:`WindowedAdjudicator.merge_states` (the join of a sharded run).
Decisions are kept as a flag column, one byte per stream row (see
:class:`~repro.stream.alerts.StreamRows`), not as a set of request ids.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Deque, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.framestats import k_out_of_n_name
from repro.exceptions import AdjudicationError
from repro.logs.record import LogRecord
from repro.stream.alerts import StreamRows
from repro.stream.events import OnlineVerdict

#: Vote-combination modes of the windowed adjudicator.
ADJUDICATION_MODES = ("parallel", "serial-confirm", "serial-escalate")


@dataclass(frozen=True)
class AdjudicationResult:
    """The ensemble decisions of a stream run under one adjudication scheme."""

    scheme_name: str
    detector_names: tuple[str, ...]
    #: One byte per stream row: 1 where the ensemble alerted.
    flags: bytes = field(repr=False)
    #: The request id of every row (at least as many as :attr:`flags`).
    request_ids: Sequence[str] = field(repr=False)
    total_requests: int

    @cached_property
    def alert_count(self) -> int:
        """Number of requests the adjudicated ensemble alerts on."""
        return self.flags.count(1)

    @cached_property
    def alerted_ids(self) -> frozenset[str]:
        """The request ids the ensemble alerted on."""
        return _alerted_ids(self.flags, self.request_ids)

    def alert_rate(self) -> float:
        """Fraction of requests the adjudicated ensemble alerts on."""
        if self.total_requests == 0:
            return 0.0
        return self.alert_count / self.total_requests

    def __contains__(self, request_id: str) -> bool:
        return request_id in self.alerted_ids


class AdjudicatedVerdict(NamedTuple):
    """The ensemble decision for one request (an immutable named tuple)."""

    request_id: str
    alerted: bool
    votes: int
    detectors: int
    scheme: str


class WindowedAdjudicator:
    """Combine per-request detector votes into live ensemble decisions.

    Parameters
    ----------
    detector_names:
        The detectors whose votes are adjudicated, in priority order
        (the serial modes treat the first name as the filtering tool).
    k:
        Votes required to alert in ``parallel`` mode (``k=1`` is the
        paper's 1-out-of-2, ``k=len(detector_names)`` its 2-out-of-2).
    mode:
        ``"parallel"`` applies k-out-of-n voting.  ``"serial-confirm"``
        alerts when the first detector alerts *and* any later detector
        confirms; ``"serial-escalate"`` alerts when the first detector
        alerts *or*, failing that, any later detector does.
    window_seconds:
        Width of the trailing decision window kept for live statistics.
    """

    def __init__(
        self,
        detector_names: Sequence[str],
        *,
        k: int = 1,
        mode: str = "parallel",
        window_seconds: float = 300.0,
    ) -> None:
        if not detector_names:
            raise AdjudicationError("an adjudicator needs at least one detector name")
        if len(set(detector_names)) != len(detector_names):
            raise AdjudicationError(f"detector names must be unique, got {list(detector_names)}")
        if mode not in ADJUDICATION_MODES:
            raise AdjudicationError(
                f"unknown adjudication mode {mode!r}; expected one of {ADJUDICATION_MODES}"
            )
        if mode.startswith("serial") and len(detector_names) < 2:
            raise AdjudicationError("serial adjudication needs at least two detectors")
        scheme = k_out_of_n_name(k, len(detector_names))
        if window_seconds <= 0:
            raise AdjudicationError("window_seconds must be positive")
        self.detector_names = tuple(detector_names)
        self.k = k
        self.mode = mode
        self.window_seconds = window_seconds
        if mode == "parallel":
            self.name = scheme
        else:
            rest = "+".join(self.detector_names[1:])
            self.name = f"{mode}({self.detector_names[0]}->{rest})"
        self.bind(StreamRows())
        self._processed = 0
        #: Requests whose later tools were consulted (the serial modes).
        self._consulted = 0
        self._window: Deque[tuple[float, bool]] = deque()

    # ------------------------------------------------------------------
    def observe(self, record: LogRecord, votes: Mapping[str, OnlineVerdict]) -> AdjudicatedVerdict:
        """Combine one request's votes into the ensemble decision."""
        try:
            flags = [votes[name].alerted for name in self.detector_names]
        except KeyError:
            missing = [name for name in self.detector_names if name not in votes]
            raise AdjudicationError(f"missing votes from {missing}") from None
        count = sum(flags)
        mode = self.mode
        if mode == "parallel":
            alerted = count >= self.k
        elif mode == "serial-confirm":
            # Later tools only need consulting when the first tool alerts.
            alerted = flags[0] and count > 1
            self._consulted += flags[0]
        else:  # serial-escalate
            alerted = flags[0] or count > 0
            self._consulted += not flags[0]

        self._processed += 1
        row = self._rows.row(record.request_id)
        column = self._flags
        if row < len(column):
            column[row] = alerted
        else:
            column.extend(bytes(row - len(column)))
            column.append(alerted)
        now = self._rows.timestamp_us(record) / 1e6
        window = self._window
        window.append((now, alerted))
        cutoff = now - self.window_seconds
        while window and window[0][0] < cutoff:
            window.popleft()
        return AdjudicatedVerdict(record.request_id, alerted, count, len(flags), self.name)

    # ------------------------------------------------------------------
    # Live statistics
    # ------------------------------------------------------------------
    def window_counts(self) -> tuple[int, int]:
        """(alerted, total) decisions inside the trailing window."""
        alerted = sum(1 for _, flag in self._window if flag)
        return alerted, len(self._window)

    def window_alert_rate(self) -> float:
        """Fraction of alerted decisions inside the trailing window."""
        alerted, total = self.window_counts()
        return alerted / total if total else 0.0

    @property
    def alerted_ids(self) -> frozenset[str]:
        """All request ids the ensemble has alerted on so far."""
        return _alerted_ids(self._flags, self._rows.request_ids)

    @property
    def processed(self) -> int:
        """Number of requests adjudicated so far."""
        return self._processed

    def workload(self) -> dict[str, int]:
        """Requests that needed each tool's decision (serial-mode savings).

        In parallel mode every tool decides every request; in the serial
        modes the first tool does, and the later tools only decide the
        requests the first one passes on.
        """
        first, *later = self.detector_names
        consulted = self._processed if self.mode == "parallel" else self._consulted
        return {first: self._processed, **{name: consulted for name in later}}

    # ------------------------------------------------------------------
    def to_result(self, total_requests: int | None = None) -> AdjudicationResult:
        """The accumulated decisions as an adjudication result."""
        return AdjudicationResult(
            scheme_name=self.name,
            detector_names=self.detector_names,
            flags=bytes(self._flags),
            request_ids=self._rows.request_ids,
            total_requests=self._processed if total_requests is None else total_requests,
        )

    def merge_states(self, flags: Sequence[bytes], total_requests: int) -> AdjudicationResult:
        """The result of a sharded run, from each shard's flag column.

        Every shard adjudicates its own visitors, so the run's decisions
        are the shards', their rows laid end to end in shard order.
        Called on a fresh adjudicator bound to the joined rows (the
        sharded join's merge reference).
        """
        self._flags = bytearray(b"".join(flags))
        return self.to_result(total_requests)

    def bind(self, rows: StreamRows) -> None:
        """File decisions under ``rows``, dropping those filed so far.

        A :class:`~repro.stream.engine.StreamEngine` binds its
        adjudicator to the rows it numbers its records with.
        """
        self._rows = rows
        self._flags = bytearray()

    def reset(self) -> None:
        """Drop all state (start of a new stream)."""
        self.bind(StreamRows())
        self._processed = 0
        self._consulted = 0
        self._window.clear()


def _alerted_ids(flags: bytes | bytearray, request_ids: Sequence[str]) -> frozenset[str]:
    rows = np.flatnonzero(np.frombuffer(flags, dtype=np.uint8))
    return frozenset(request_ids[row] for row in rows.tolist())
