"""The declarative run-specification tree.

A :class:`RunSpec` fully describes one workload run -- which traffic to
analyse, which detectors to field, how their votes are adjudicated, how
to execute (worker processes, reorder skew), and, for the closed loop,
which enforcement policy to apply.  Specs are plain data:
:meth:`RunSpec.to_dict` / :meth:`RunSpec.from_dict` round-trip through
JSON, so a spec can live in a config file, be queued in a sweep script,
be diffed against another spec, and be replayed later --
``execute(RunSpec.from_dict(json.load(f)))`` reproduces the run.

The tree
--------
* :class:`TrafficSpec` -- the scenario (by registry name + parameters)
  or an existing log file to replay; for ``defend`` runs, the campaign
  variant and budget.
* :class:`DetectorSpec` -- one detector by registry name + parameters
  (batch registry for ``tables``/``evaluate``, online registry for
  ``stream``).
* :class:`AdjudicationSpec` -- how detector votes combine (parallel
  k-out-of-n or the serial modes, with the decision window).
* :class:`ExecutionSpec` -- visitor-sharded workers, reorder-buffer
  skew, latency tracking and progress cadence.
* :class:`PolicySpec` -- the enforcement policy by registry name
  (``defend`` runs only).

Validation happens at construction time: every spec dataclass checks its
fields in ``__post_init__`` and raises
:class:`~repro.exceptions.SpecError`, and :meth:`RunSpec.from_dict`
additionally rejects unknown keys with a did-you-mean suggestion, so a
typo in a config file fails loudly instead of being silently ignored.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Self

from repro.exceptions import SpecError
from repro.registry import unknown_name_message
from repro.stream.adjudicator import ADJUDICATION_MODES

#: The workloads :func:`~repro.runspec.execute.execute` can dispatch to.
RUN_MODES = ("tables", "evaluate", "stream", "defend")

#: Closed-loop campaign variants (``defend`` mode).
CAMPAIGNS = ("scripted", "adaptive")

#: Where a run's traffic comes from: generated from a scenario, parsed
#: from an access log, or replayed from a recorded trace file.
TRAFFIC_SOURCES = ("scenario", "log", "trace")


def _check_choice(kind: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise SpecError(unknown_name_message(kind, value, choices))


def _as_plain_dict(params: Mapping[str, Any]) -> dict[str, Any]:
    try:
        return dict(params)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"params must be a mapping, got {params!r}") from exc


class _SpecBase:
    """Shared serialization for the spec dataclasses."""

    if TYPE_CHECKING:
        # Subclasses are dataclasses; this gives ``cls(**data)`` in
        # from_dict a keyword-accepting constructor to check against.
        def __init__(self, **kwargs: Any) -> None: ...

    def to_dict(self) -> dict[str, Any]:
        """The spec as a JSON-ready dictionary (nested specs recurse)."""
        result: dict[str, Any] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, _SpecBase):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = [item.to_dict() if isinstance(item, _SpecBase) else item for item in value]
            elif isinstance(value, Mapping):
                value = dict(value)
            result[spec_field.name] = value
        return result

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Self:
        """Rebuild the spec from :meth:`to_dict` output (strict keys)."""
        if not isinstance(data, Mapping):
            raise SpecError(f"a {cls.__name__} must be a mapping, got {type(data).__name__}")
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        for key in data:
            if key not in known:
                raise SpecError(unknown_name_message(f"{cls.__name__} key", key, known))
        return cls(**{key: value for key, value in data.items()})


#: Scenario used when a spec leaves :attr:`TrafficSpec.scenario` unset.
DEFAULT_SCENARIO = "amadeus_march_2018"


@dataclass(frozen=True)
class TrafficSpec(_SpecBase):
    """Which traffic a run analyses (or, for ``defend``, generates)."""

    #: Registry name of the scenario (``tables``/``evaluate``/``stream``
    #: modes; ``None`` selects :data:`DEFAULT_SCENARIO`).
    scenario: str | None = None
    #: Fraction of the paper's data-set size (scenarios that accept it).
    scale: float | None = None
    #: Simulation seed; ``None`` uses the scenario/campaign default.
    seed: int | None = None
    #: Extra keyword arguments forwarded to the scenario factory.
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Replay an existing access log instead of generating the scenario.
    log_file: str | None = None
    #: Where the traffic comes from (:data:`TRAFFIC_SOURCES`); ``None``
    #: infers it: ``"trace"`` when :attr:`path` is set, ``"log"`` when
    #: :attr:`log_file` is set, ``"scenario"`` otherwise.
    source: str | None = None
    #: Trace file to replay (``source="trace"``).
    path: str | None = None
    #: Record generated scenario traffic in the content-addressed
    #: generation cache (``.repro-cache/``) on first run and replay it
    #: from there on every later run.  Scenario source only.
    cache: bool = False
    #: Closed-loop campaign variant (``defend`` mode).
    campaign: str = "scripted"
    #: Closed-loop request budget (``defend`` mode; ``None`` = default).
    total_requests: int | None = None
    #: Identity-pool size of each adaptive node (``defend`` mode).
    identities_per_node: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _as_plain_dict(self.params))
        _check_choice("campaign", self.campaign, CAMPAIGNS)
        if self.source is not None:
            _check_choice("traffic source", self.source, TRAFFIC_SOURCES)
        if self.path is not None and self.log_file is not None:
            raise SpecError("traffic.path (a trace) and traffic.log_file are mutually exclusive")
        if self.source == "trace" and self.path is None:
            raise SpecError("traffic source 'trace' needs traffic.path")
        if self.source == "log" and self.log_file is None:
            raise SpecError("traffic source 'log' needs traffic.log_file")
        if self.path is not None and self.source not in (None, "trace"):
            raise SpecError(
                "traffic.path names a trace file; remove it or set source='trace' "
                f"(source is {self.source!r})"
            )
        if self.log_file is not None and self.source == "scenario":
            raise SpecError("traffic source 'scenario' generates traffic; remove traffic.log_file")
        resolved = self.resolved_source()
        if resolved == "trace":
            for name, value in (
                ("scenario", self.scenario),
                ("scale", self.scale),
                ("seed", self.seed),
            ):
                if value is not None:
                    raise SpecError(
                        f"a trace replays exactly what was recorded; remove traffic.{name}"
                    )
            if self.params:
                raise SpecError("a trace replays exactly what was recorded; remove traffic.params")
        if self.cache and resolved != "scenario":
            raise SpecError(
                "traffic.cache records *generated* traffic; it does not apply to "
                f"source {resolved!r}"
            )
        if self.scale is not None and self.scale <= 0:
            raise SpecError("traffic scale must be positive")
        if self.total_requests is not None and self.total_requests <= 0:
            raise SpecError("total_requests must be positive")
        if self.identities_per_node < 1:
            raise SpecError("identities_per_node must be at least 1")

    def resolved_source(self) -> str:
        """The effective traffic source (explicit or inferred)."""
        if self.source is not None:
            return self.source
        if self.path is not None:
            return "trace"
        if self.log_file is not None:
            return "log"
        return "scenario"

    def scenario_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for the scenario factory."""
        kwargs = dict(self.params)
        if self.scale is not None:
            kwargs["scale"] = self.scale
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs


@dataclass(frozen=True)
class DetectorSpec(_SpecBase):
    """One detector, by registry name."""

    name: str
    #: Keyword arguments forwarded to the detector factory.
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("a detector spec needs a non-empty name")
        object.__setattr__(self, "params", _as_plain_dict(self.params))


@dataclass(frozen=True)
class AdjudicationSpec(_SpecBase):
    """How detector votes combine into the ensemble decision."""

    #: ``parallel`` (k-out-of-n) or one of the serial modes.
    mode: str = "parallel"
    #: Votes required to alert in ``parallel`` mode.
    k: int = 1
    #: Width of the trailing decision window, in seconds.
    window_seconds: float = 300.0

    def __post_init__(self) -> None:
        _check_choice("adjudication mode", self.mode, ADJUDICATION_MODES)
        if self.k < 1:
            raise SpecError("adjudication k must be at least 1")
        if self.window_seconds <= 0:
            raise SpecError("window_seconds must be positive")


@dataclass(frozen=True)
class ExecutionSpec(_SpecBase):
    """How a run executes (independent of what it computes)."""

    #: Reorder-buffer bound for out-of-order records, in seconds.
    max_skew_seconds: float = 0.0
    #: Record per-request decision latencies (``stream`` mode).
    track_latency: bool = False
    #: Emit a progress snapshot every N records (0 disables).
    progress_every: int = 0
    #: Also compare parallel vs serial deployments (``evaluate`` mode).
    compare_configurations: bool = False
    #: Visitor-sharded worker processes (``tables`` / ``evaluate`` /
    #: ``stream`` modes): the traffic is hash-sharded by client IP and
    #: each shard runs in its own forked worker
    #: (:func:`repro.sharding.run_shards`).  1 (default) runs
    #: single-process.  Batch results, and a ``stream`` run's final
    #: per-detector alert sets, are the same at every worker count.  A
    #: ``stream`` run's adjudicated alerts are too, except with the
    #: anomaly port, whose live model is refitted per shard; its eviction
    #: count is not, as each shard keeps its own watermark.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise SpecError("workers must be at least 1")
        if self.max_skew_seconds < 0:
            raise SpecError("max_skew_seconds must be non-negative")
        if self.progress_every < 0:
            raise SpecError("progress_every must be non-negative")


@dataclass(frozen=True)
class PolicySpec(_SpecBase):
    """The enforcement policy of a ``defend`` run, by registry name."""

    name: str = "standard"
    #: Keyword arguments forwarded to the policy factory.
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("a policy spec needs a non-empty name")
        object.__setattr__(self, "params", _as_plain_dict(self.params))


@dataclass(frozen=True)
class RunSpec(_SpecBase):
    """One fully described workload run.

    ``execute(spec)`` dispatches on :attr:`mode`:

    * ``"tables"`` -- the batch paper experiment (Tables 1-4),
    * ``"evaluate"`` -- the labelled extension analyses,
    * ``"stream"`` -- the real-time streaming engine,
    * ``"defend"`` -- the closed-loop enforcement simulation.
    """

    mode: str = "tables"
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    #: Detectors to field; empty selects the mode's default ensemble.
    detectors: tuple[DetectorSpec, ...] = ()
    adjudication: AdjudicationSpec | None = None
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    policy: PolicySpec | None = None
    #: Free-form label carried through to the result (sweep bookkeeping).
    label: str = ""

    def __post_init__(self) -> None:
        _check_choice("run mode", self.mode, RUN_MODES)
        object.__setattr__(self, "detectors", tuple(self.detectors))
        for detector in self.detectors:
            if not isinstance(detector, DetectorSpec):
                raise SpecError(f"detectors must be DetectorSpec instances, got {detector!r}")

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec tree from :meth:`to_dict` output (strict keys)."""
        if not isinstance(data, Mapping):
            raise SpecError(f"a RunSpec must be a mapping, got {type(data).__name__}")
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        for key in data:
            if key not in known:
                raise SpecError(unknown_name_message("RunSpec key", key, known))
        kwargs: dict[str, Any] = {
            key: value
            for key, value in data.items()
            if key in ("mode", "label")
        }
        if "traffic" in data:
            kwargs["traffic"] = TrafficSpec.from_dict(data["traffic"])
        if "detectors" in data:
            detectors = data["detectors"]
            if not isinstance(detectors, (list, tuple)):
                raise SpecError("detectors must be a list of detector specs")
            kwargs["detectors"] = tuple(DetectorSpec.from_dict(item) for item in detectors)
        if data.get("adjudication") is not None:
            kwargs["adjudication"] = AdjudicationSpec.from_dict(data["adjudication"])
        if "execution" in data:
            kwargs["execution"] = ExecutionSpec.from_dict(data["execution"])
        if data.get("policy") is not None:
            kwargs["policy"] = PolicySpec.from_dict(data["policy"])
        return cls(**kwargs)

    # ------------------------------------------------------------------
    def to_json(self, *, indent: int | None = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse a spec from a JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid spec JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        """Write the spec to a JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


def load_runspec(path: str) -> RunSpec:
    """Load a :class:`RunSpec` from a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path!r}: {exc}") from exc
    return RunSpec.from_json(text)
