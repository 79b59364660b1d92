"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so callers can catch a single base class at
application boundaries while still being able to distinguish the
individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class LogParseError(ReproError):
    """Raised when an access-log line cannot be parsed.

    Attributes
    ----------
    line:
        The offending raw log line (possibly truncated for display).
    line_number:
        1-based line number within the source file, if known.
    """

    def __init__(self, message: str, line: str = "", line_number: int | None = None) -> None:
        super().__init__(message)
        self.line = line
        self.line_number = line_number

    def __str__(self) -> str:  # pragma: no cover - display helper
        base = super().__str__()
        if self.line_number is not None:
            base = f"line {self.line_number}: {base}"
        if self.line:
            preview = self.line if len(self.line) <= 120 else self.line[:117] + "..."
            base = f"{base} [{preview!r}]"
        return base


class DatasetError(ReproError):
    """Raised for inconsistent or invalid data-set operations."""


class LabelError(DatasetError):
    """Raised when ground-truth labels are missing or inconsistent."""


class DetectorError(ReproError):
    """Raised when a detector is misconfigured or misused."""


class DetectorNotFittedError(DetectorError):
    """Raised when a detector that requires fitting is used before ``fit``."""


class ShardError(ReproError):
    """Raised when one shard of a visitor-sharded run fails.

    Covers a shard task that raised (in a forked worker or in-process)
    and a worker process that exited without returning its result
    (killed by a signal, out of memory).  The message names the shard
    and the original error or the worker's exit code.
    """


class AdjudicationError(ReproError):
    """Raised for invalid adjudication-scheme configurations."""


class ConfigurationError(ReproError):
    """Raised for invalid deployment-configuration setups."""


class ScenarioError(ReproError):
    """Raised when a traffic scenario is invalid or unknown."""


class AnalysisError(ReproError):
    """Raised when a diversity analysis cannot be computed."""


class TraceError(ReproError):
    """Raised for invalid, corrupt or unreadable trace files.

    Covers malformed trace headers/footers, version mismatches,
    truncated blocks and misuse of the trace store API (e.g. writing to
    a closed :class:`~repro.trace.store.TraceWriter`).
    """


class ColumnsError(ReproError):
    """Raised for invalid columnar-frame operations.

    Covers inconsistent column lengths in a
    :class:`~repro.columns.frame.RecordFrame` and misuse of the
    session-span / feature-matrix APIs built on top of it.
    """


class SpecError(ReproError):
    """Raised for invalid, unknown or non-round-trippable run specifications.

    Covers malformed :class:`~repro.runspec.spec.RunSpec` trees (bad
    mode, unknown keys in serialized specs, out-of-range values) and
    spec/workload mismatches caught at execution time.
    """


class StoreError(ReproError):
    """Raised for invalid run-store operations.

    Covers unreadable or non-runstore SQLite files, databases written by
    a newer schema than this library understands, unknown run ids and
    misuse of the :class:`~repro.runstore.store.RunStore` API (e.g.
    recording into a closed store).
    """


class LintError(ReproError):
    """Raised for invalid static-analysis operations.

    Covers malformed :mod:`repro.lint` configurations and baseline
    files, unknown rule ids or severities, and findings that do not
    round-trip.  Rule *findings* are data, not exceptions -- this type
    is about misuse of the lint machinery itself.
    """


class ProfError(ReproError):
    """Raised for invalid profiling operations.

    Covers malformed :mod:`repro.prof` options (non-positive sampling
    rates), profiles that do not round-trip (bad collapsed-stack or
    profile-snapshot payloads) and misuse of the profiler lifecycle
    (starting a running profiler, stopping a stopped one).
    """


class ObsError(ReproError):
    """Raised for invalid observability operations.

    Covers metric kind/name collisions in a
    :class:`~repro.obs.metrics.MetricsRegistry`, negative counter
    increments, malformed metric snapshots and histogram bound
    mismatches during snapshot merging.
    """
