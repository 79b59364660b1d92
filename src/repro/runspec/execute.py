"""Execute a :class:`~repro.runspec.spec.RunSpec`.

:func:`execute` is the single entry point behind every workload: it
dispatches on the spec's mode to the batch pipeline (``tables`` /
``evaluate``), the streaming engine (``stream``) or the closed-loop
simulator (``defend``), and always returns a uniform
:class:`~repro.runspec.result.RunResult`.  The legacy entry points
(:class:`~repro.core.experiment.PaperExperiment`,
:class:`~repro.stream.engine.StreamEngine`,
:func:`~repro.mitigation.scenarios.run_defense`) remain available; this
layer composes them, it does not replace them.

Component construction goes through the name-based registries
(:mod:`repro.detectors.registry`, the online-detector registry in
:mod:`repro.stream.detectors`, :func:`repro.traffic.scenarios.get_scenario`,
:func:`repro.mitigation.policy.get_policy`), so a spec referencing a
third-party component works as soon as that component is registered.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:
    from repro.runstore.store import RunStore

from repro.core.configurations import compare_configurations
from repro.core.experiment import ExperimentResult, PaperExperiment
from repro.core.framestats import per_actor_rates_from_frame
from repro.core.reporting import render_evaluation_rows, render_table1
from repro.detectors.registry import create_detector
from repro.exceptions import SpecError
from repro.logs.dataset import Dataset
from repro.logs.parser import LogParser
from repro.logs.record import LogRecord
from repro.mitigation.metrics import MitigationReport, build_report, render_mitigation_report
from repro.mitigation.policy import get_policy
from repro.mitigation.scenarios import run_defense
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry, resolve_registry
from repro.obs.spans import trace_span
from repro.prof.profiler import ProfileOptions, Profiler
from repro.runspec.result import RunResult
from repro.runspec.spec import (
    DEFAULT_SCENARIO,
    AdjudicationSpec,
    PolicySpec,
    RunSpec,
    TrafficSpec,
)
from repro.stream.adjudicator import WindowedAdjudicator
from repro.stream.detectors import create_online_detector, default_online_detectors
from repro.stream.engine import StreamEngine, StreamResult
from repro.stream.runner import ShardedStreamRunner
from repro.stream.sources import dataset_replay, trace_replay
from repro.trace.cache import default_cache, traffic_fingerprint
from repro.trace.store import TraceReader, read_trace
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import get_scenario

#: Optional progress hook: called with the live engine at every
#: ``progress_every`` milestone of a single-worker streaming run.
ProgressHook = Callable[[StreamEngine], None]


def build_dataset(
    traffic: TrafficSpec, *, registry: MetricsRegistry | None = None
) -> Dataset:
    """Materialize the traffic a spec describes (replay, parse or generate).

    Dispatches on the spec's resolved source: ``trace`` replays a
    recorded trace file, ``log`` parses an access log (gzipped or
    plain), and ``scenario`` generates synthetic traffic -- through the
    content-addressed generation cache when the spec sets ``cache=True``,
    so the simulation runs once and later calls replay its recording.
    ``registry`` collects dataset counters (and the trace/cache layers'
    own metrics) when given.
    """
    registry = resolve_registry(registry)
    source = traffic.resolved_source()
    with trace_span("dataset", registry=registry, source=source):
        dataset = _build_dataset(traffic, source, registry)
    if registry.enabled:
        registry.counter(
            metric_names.DATASETS_BUILT, "Data sets materialized, by traffic source."
        ).inc(source=source)
        if dataset.is_labelled:
            registry.counter(
                metric_names.LABELLED_RECORDS, "Records carrying ground-truth labels."
            ).inc(len(dataset))
    return dataset


def _build_dataset(traffic: TrafficSpec, source: str, registry: MetricsRegistry) -> Dataset:
    if source == "trace":
        assert traffic.path is not None  # TrafficSpec validates this
        return read_trace(traffic.path, registry=registry)
    if source == "log":
        records = LogParser(skip_malformed=True).parse_file(traffic.log_file)
        return Dataset(records)
    name = traffic.scenario or DEFAULT_SCENARIO
    kwargs = traffic.scenario_kwargs()

    def generate() -> Dataset:
        try:
            scenario = get_scenario(name, **kwargs)
        except TypeError as exc:
            raise SpecError(
                f"scenario {name!r} does not accept the given parameters "
                f"{sorted(kwargs)}: {exc}"
            ) from exc
        return generate_dataset(scenario)

    if traffic.cache:
        fingerprint = traffic_fingerprint(
            scenario=name, scale=traffic.scale, seed=traffic.seed, params=traffic.params
        )
        return default_cache().get_or_generate(fingerprint, generate, registry=registry)
    return generate()


def _validate_for_mode(spec: RunSpec) -> None:
    """Reject spec fields the selected mode would silently ignore.

    :meth:`RunSpec.from_dict` already rejects unknown keys; this is the
    execution-time counterpart for *known* fields that simply do not
    apply to the workload -- a defend run has no scenario to replay, a
    batch run has no reorder buffer -- so a misplaced setting fails
    loudly instead of executing a different run than the config describes.
    """

    def reject(condition: bool, message: str) -> None:
        if condition:
            raise SpecError(f"{spec.mode!r} mode {message}")

    traffic, execution = spec.traffic, spec.execution
    if spec.mode == "defend":
        reject(traffic.scenario is not None, "generates its own closed-loop traffic; remove traffic.scenario")
        reject(traffic.log_file is not None, "generates its own closed-loop traffic; remove traffic.log_file")
        reject(traffic.path is not None, "generates its own closed-loop traffic; remove traffic.path")
        reject(traffic.source is not None, "generates its own closed-loop traffic; remove traffic.source")
        reject(traffic.cache, "generates its own closed-loop traffic; caching applies to scenario traffic")
        reject(traffic.scale is not None, "has no scenario scale; use traffic.total_requests")
        reject(bool(traffic.params), "takes no scenario params; use the defend-specific traffic fields")
        reject(
            spec.adjudication is not None and spec.adjudication.mode != "parallel",
            "adjudicates with parallel k-out-of-n voting only",
        )
    else:
        reject(spec.policy is not None, "applies no enforcement policy; remove the policy block")
        reject(traffic.campaign != "scripted", "has no attack campaign; campaign is defend-only")
        reject(
            traffic.total_requests is not None,
            "sizes traffic via the scenario; put total_requests in traffic.params",
        )
        reject(
            traffic.identities_per_node != 8,
            "has no adaptive attackers; identities_per_node is defend-only",
        )
    if spec.mode in ("tables", "evaluate"):
        reject(spec.adjudication is not None, "computes every k-out-of-2 scheme; remove the adjudication block")
        reject(execution.max_skew_seconds != 0.0, "replays in order; max_skew_seconds is stream-only")
        reject(execution.track_latency, "has no per-request latency; track_latency is stream-only")
        reject(execution.progress_every != 0, "emits no live progress; progress_every is stream-only")
    elif spec.mode == "stream":
        reject(
            execution.workers > 1 and execution.progress_every != 0,
            "reports live progress from a single engine; progress_every needs workers=1",
        )
    if spec.mode != "evaluate":
        reject(
            execution.compare_configurations,
            "has no configuration comparison; compare_configurations is evaluate-only",
        )
    if spec.mode == "defend":
        reject(
            execution.workers != 1,
            "runs a single closed loop; workers is tables/evaluate/stream-only",
        )
        reject(execution.max_skew_seconds != 0.0, "replays in order; max_skew_seconds is stream-only")
        reject(execution.track_latency, "has no per-request latency; track_latency is stream-only")
        reject(execution.progress_every != 0, "emits no live progress; progress_every is stream-only")


def _spec_trace_fingerprint(spec: RunSpec) -> str | None:
    """The traffic's content address, when the spec's traffic has one.

    Scenario-generated traffic is pure, so its generation-cache
    fingerprint identifies the exact data set the run analysed; a log or
    trace file has no stable content address here (hashing gigabytes on
    every run would defeat the <2% recording budget), and ``defend``
    runs generate closed-loop traffic that depends on enforcement.
    """
    if spec.mode == "defend" or spec.traffic.resolved_source() != "scenario":
        return None
    return traffic_fingerprint(
        scenario=spec.traffic.scenario or DEFAULT_SCENARIO,
        scale=spec.traffic.scale,
        seed=spec.traffic.seed,
        params=spec.traffic.params,
    )


def execute(
    spec: RunSpec,
    *,
    progress: ProgressHook | None = None,
    dataset: Dataset | None = None,
    registry: MetricsRegistry | None = None,
    store: str | os.PathLike[str] | RunStore | None = None,
    profile: Any = None,
) -> RunResult:
    """Run the workload a spec describes and return its uniform result.

    Parameters
    ----------
    spec:
        The declarative run description.
    progress:
        Optional live-progress hook for single-worker ``stream`` runs.
    dataset:
        Optional pre-built data set matching ``spec.traffic``.  Sweeps
        and benchmarks that run many specs over the same traffic pass it
        to skip regeneration; the spec remains the source of truth for
        what the traffic *is*.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When
        given, every layer the run touches records counters, duration
        histograms and tracing spans into it; the result carries the
        full snapshot as ``RunResult.telemetry`` and the span-derived
        per-stage durations are folded into ``RunResult.timings``
        (legacy timing keys are preserved).  ``None`` keeps the run
        uninstrumented at near-zero overhead.
    store:
        Optional :class:`~repro.runstore.store.RunStore` (or a path to
        one): the finished result -- spec, tables, metrics, telemetry,
        traffic fingerprint, wall clock -- is appended to the store, so
        the run becomes longitudinal data (``repro runs list/diff``).  A
        path is opened (and created on first use) and closed again;
        ``None`` falls back to the ``REPRO_RUN_STORE`` environment
        variable, and keeps the run unrecorded when that is unset too.
    profile:
        Profile the run: ``True`` (defaults), a
        :class:`~repro.prof.profiler.ProfileOptions` or a mapping of its
        fields samples stacks on a background thread and attributes CPU
        time and memory to the run's tracing spans; the result carries
        the capture as ``RunResult.profile`` (and it lands in the run
        store's ``profiles`` table when the run is recorded).  Profiling
        needs span telemetry, so a run profiled without a ``registry``
        gets a private one.  ``None`` / ``False`` (the default) keep the
        no-profiling fast path at zero cost.
    """
    registry = resolve_registry(registry)
    _validate_for_mode(spec)
    options = ProfileOptions.coerce(profile)
    if options is not None and not registry.enabled:
        # The span tree is the profiler's attribution key; a profiled
        # run therefore always carries telemetry, even when the caller
        # did not ask for any.
        registry = MetricsRegistry()
    wall_started = time.perf_counter()
    if registry.enabled:
        registry.counter(metric_names.RUNS, "RunSpec executions, by mode.").inc(
            mode=spec.mode
        )
    profiler = Profiler(registry, options) if options is not None else None
    if profiler is not None:
        profiler.start()
    try:
        if spec.mode == "defend":
            if dataset is not None:
                raise SpecError("defend mode generates its own closed-loop traffic")
            result = _run_defend(spec, registry)
        elif spec.mode == "stream":
            result = _run_stream(spec, progress, dataset, registry)
        else:
            runners = {"tables": _run_tables, "evaluate": _run_evaluate}
            try:
                runner = runners[spec.mode]
            except KeyError as exc:  # pragma: no cover - RunSpec validates mode
                raise SpecError(f"unknown run mode {spec.mode!r}") from exc
            result = runner(spec, dataset, registry)
    finally:
        captured = profiler.stop() if profiler is not None else None
    if captured is not None:
        result.profile = captured.to_dict()
    if registry.enabled:
        # Span-derived per-stage durations, with the legacy keys kept
        # verbatim on top (they win any name collision).
        result.timings = {**registry.stage_timings(), **result.timings}
        result.telemetry = registry.to_dict()
    # Late import: repro.runstore builds on this module's RunResult.
    from repro.runstore.store import open_store

    opened = open_store(store)  # None consults $REPRO_RUN_STORE
    if opened is not None:
        try:
            opened.record(
                result,
                wall_seconds=time.perf_counter() - wall_started,
                trace_fingerprint=_spec_trace_fingerprint(spec),
            )
        finally:
            if opened is not store:
                opened.close()
    return result


# ----------------------------------------------------------------------
# Batch modes (tables / evaluate)
# ----------------------------------------------------------------------
def _paper_experiment(
    spec: RunSpec,
    dataset: Dataset | None = None,
    registry: MetricsRegistry | None = None,
) -> tuple[PaperExperiment, ExperimentResult]:
    """Run the pairwise paper experiment a batch spec describes.

    The traffic becomes a :class:`~repro.columns.RecordFrame` -- for
    trace-backed specs straight from
    :meth:`~repro.trace.store.TraceReader.read_frame`, so no
    :class:`Dataset` is ever materialised -- and detection *and* table
    analysis run as columnar kernels, sharded across
    ``execution.workers`` processes when asked.  Returns the experiment
    (with the detectors built from the spec) and its result.
    """
    from repro.columns import RecordFrame

    registry = resolve_registry(registry)
    if spec.detectors and len(spec.detectors) != 2:
        raise SpecError(
            f"the paper experiment is pairwise: {spec.mode!r} mode needs exactly "
            f"two detectors, got {len(spec.detectors)}"
        )
    if dataset is None and spec.traffic.resolved_source() == "trace":
        path = spec.traffic.path
        assert path is not None  # TrafficSpec validates this
        with trace_span("dataset", registry=registry, source="trace"):
            frame = TraceReader(path).read_frame()
    else:
        if dataset is None:
            dataset = build_dataset(spec.traffic, registry=registry)
        frame = RecordFrame.from_dataset(dataset, registry=registry)
    if spec.detectors:
        first, second = (
            create_detector(detector.name, **detector.params) for detector in spec.detectors
        )
        experiment = PaperExperiment(first, second)
    else:
        experiment = PaperExperiment()
    with trace_span("experiment", registry=registry):
        result = experiment.run_on_frame(
            frame, workers=spec.execution.workers, registry=registry
        )
    return experiment, result


def _source_of(spec: RunSpec, result: ExperimentResult) -> str:
    if spec.traffic.log_file:
        return spec.traffic.log_file
    return result.frame.metadata.name


def _batch_result(spec: RunSpec, result: ExperimentResult) -> RunResult:
    breakdown = result.breakdown
    metrics: dict[str, Any] = {
        "both": breakdown.both,
        "neither": breakdown.neither,
        "first_only": breakdown.first_only,
        "second_only": breakdown.second_only,
    }
    metrics.update(result.diversity_metrics.as_dict())
    return RunResult(
        mode=spec.mode,
        source=_source_of(spec, result),
        label=spec.label,
        total_requests=result.total_requests,
        alert_counts=dict(result.alert_counts),
        metrics=metrics,
        timings=dict(result.timings),
        spec=spec.to_dict(),
        raw=result,
    )


def _run_tables(
    spec: RunSpec,
    dataset: Dataset | None = None,
    registry: MetricsRegistry | None = None,
) -> RunResult:
    _experiment, result = _paper_experiment(spec, dataset, registry)
    run_result = _batch_result(spec, result)
    run_result.tables = {
        "table1": result.render_table1(),
        "table2": result.render_table2(),
        "table3": result.render_table3(),
        "table4": result.render_table4(),
    }
    return run_result


def _run_evaluate(
    spec: RunSpec,
    dataset: Dataset | None = None,
    registry: MetricsRegistry | None = None,
) -> RunResult:
    experiment, result = _paper_experiment(spec, dataset, registry)
    run_result = _batch_result(spec, result)

    tool_rows = [evaluation.as_dict() for evaluation in result.tool_evaluations]
    scheme_rows = [evaluation.as_dict() for evaluation in result.adjudication_evaluations]
    run_result.rows["tool_evaluation"] = tool_rows
    run_result.rows["adjudication_evaluation"] = scheme_rows
    run_result.tables["tool_evaluation"] = render_evaluation_rows(
        tool_rows, title="Per-tool labelled evaluation"
    )
    run_result.tables["adjudication_evaluation"] = render_evaluation_rows(
        scheme_rows, title="Adjudication schemes (k-out-of-2)"
    )

    if result.frame.is_labelled:
        first, second = result.matrix.detector_names[:2]
        first_rates = per_actor_rates_from_frame(result.frame, result.matrix.column(first))
        second_rates = per_actor_rates_from_frame(result.frame, result.matrix.column(second))
        actor_rows = [
            {"actor_class": actor, first: first_rates[actor], second: second_rates[actor]}
            for actor in first_rates
        ]
        run_result.rows["actor_class_detection"] = actor_rows
        run_result.tables["actor_class_detection"] = render_evaluation_rows(
            actor_rows, title="Detection rate per actor class"
        )

    if spec.execution.compare_configurations:
        comparison = compare_configurations(
            result.frame,
            result.matrix,
            experiment.first_detector,
            experiment.second_detector,
        )
        config_rows = []
        for outcome in comparison.outcomes:
            row: dict[str, Any] = {
                "configuration": outcome.name,
                "alerts": outcome.alert_count,
                "workload": outcome.total_workload,
            }
            if outcome.confusion is not None:
                row["sensitivity"] = outcome.confusion.sensitivity()
                row["specificity"] = outcome.confusion.specificity()
            config_rows.append(row)
        run_result.rows["configurations"] = config_rows
        run_result.tables["configurations"] = render_evaluation_rows(
            config_rows, title="Parallel vs serial configurations"
        )
    return run_result


# ----------------------------------------------------------------------
# Stream mode
# ----------------------------------------------------------------------
def _online_detectors(spec: RunSpec) -> list[Any]:
    if not spec.detectors:
        return default_online_detectors()
    return [create_online_detector(d.name, **d.params) for d in spec.detectors]


def _stream_source(
    spec: RunSpec, dataset: Dataset | None, registry: MetricsRegistry
) -> tuple[Iterable[LogRecord], int, str]:
    """The record feed of a stream run, plus its size and display name.

    Trace-backed specs feed the engine straight from
    :func:`~repro.stream.sources.trace_replay` -- block by block, never
    materialising the whole data set.  The stream workload then holds
    the live sessions plus its result, which grows by about 64 bytes
    per record and 20 bytes per final alert (146 bytes per record on the
    scale-0.05 trace, 727 when each final alert was an ``Alert``
    object), and the engine's string tables, which grow by about 80
    bytes plus the string per distinct value (about 46 bytes per record
    on the scale-0.05 trace), so a trace larger than memory replays as
    long as the result and the tables fit.  Every other source
    materialises a :class:`Dataset` as before.
    """
    if dataset is None and spec.traffic.resolved_source() == "trace":
        path = spec.traffic.path
        assert path is not None  # TrafficSpec validates this
        reader = TraceReader(path)
        return (
            trace_replay(path, registry=registry),
            reader.info.records,
            reader.read_metadata().name,
        )
    if dataset is None:
        dataset = build_dataset(spec.traffic, registry=registry)
    source = spec.traffic.log_file or dataset.metadata.name
    return dataset_replay(dataset), len(dataset), source


def _run_stream(
    spec: RunSpec,
    progress: ProgressHook | None,
    dataset: Dataset | None = None,
    registry: MetricsRegistry | None = None,
) -> RunResult:
    registry = resolve_registry(registry)
    adjudication = spec.adjudication or AdjudicationSpec()
    execution = spec.execution

    def engine_factory(engine_registry: MetricsRegistry | None = None) -> StreamEngine:
        detectors = _online_detectors(spec)
        return StreamEngine(
            detectors,
            adjudicator=WindowedAdjudicator(
                [detector.name for detector in detectors],
                k=adjudication.k,
                mode=adjudication.mode,
                window_seconds=adjudication.window_seconds,
            ),
            max_skew_seconds=execution.max_skew_seconds,
            track_latency=execution.track_latency,
            registry=engine_registry,
        )

    # Built before any traffic, so a bad adjudication (k out of range, a
    # serial mode with one detector) fails at once, the same way at every
    # worker count.  Sharded runs use it only for that check: their worker
    # engines stay uninstrumented (they live in other processes), and the
    # runner folds their merged counts into the registry at the join.
    sharded = execution.workers > 1
    engine = engine_factory(None if sharded else registry)
    with trace_span("source", registry=registry):
        records, total_requests, source = _stream_source(spec, dataset, registry)

    started = time.perf_counter()
    with trace_span("stream", registry=registry, workers=execution.workers):
        if sharded:
            runner = ShardedStreamRunner(
                engine_factory, workers=execution.workers, registry=registry
            )
            result = runner.run(records)
        else:
            engine.reset()
            # Milestone-based progress: with a reorder buffer one process()
            # call can release zero or several records, so a plain modulo
            # check would skip or repeat milestones.
            next_progress = execution.progress_every or float("inf")
            for record in records:
                engine.process(record)
                if engine.stats.records >= next_progress:
                    if progress is not None:
                        progress(engine)
                    next_progress = (
                        engine.stats.records // execution.progress_every + 1
                    ) * execution.progress_every
            result = engine.finish()
    wall_seconds = time.perf_counter() - started

    return _stream_result(spec, source, total_requests, result, wall_seconds)


def _stream_result(
    spec: RunSpec, source: str, total_requests: int, result: StreamResult, wall_seconds: float
) -> RunResult:
    metrics: dict[str, Any] = {
        "records": result.stats.records,
        "sessions_opened": result.stats.sessions_opened,
        "sessions_closed": result.stats.sessions_closed,
        "ensemble_alerts": result.stats.ensemble_alerts,
        "records_per_second": result.stats.records_per_second(),
    }
    metrics.update(
        {f"latency_{name}": value for name, value in result.latency_percentiles().items()}
    )
    summary = []
    if result.adjudication is not None:
        metrics["adjudication_scheme"] = result.adjudication.scheme_name
        metrics["adjudicated_alerts"] = result.adjudication.alert_count
        metrics["adjudicated_rate"] = result.adjudication.alert_rate()
        summary.append(
            f"adjudicated ({result.adjudication.scheme_name}): "
            f"{result.adjudication.alert_count:,} of {total_requests:,} requests alerted "
            f"({result.adjudication.alert_rate():.1%})"
        )
    summary.append(
        f"sessions: {result.stats.sessions_closed:,} closed; "
        f"throughput: {result.stats.records_per_second():,.0f} requests/sec"
    )
    return RunResult(
        mode=spec.mode,
        source=source,
        label=spec.label,
        total_requests=total_requests,
        alert_counts=result.alert_counts(),
        metrics=metrics,
        tables={
            "table1": render_table1(
                total_requests,
                result.alert_counts(),
                title="Streaming Table 1 - HTTP requests alerted by the online detectors",
            )
        },
        timings={"stream_seconds": wall_seconds, "busy_seconds": result.stats.busy_seconds},
        summary=summary,
        spec=spec.to_dict(),
        raw=result,
    )


# ----------------------------------------------------------------------
# Defend mode
# ----------------------------------------------------------------------
def _run_defend(spec: RunSpec, registry: MetricsRegistry | None = None) -> RunResult:
    if spec.detectors:
        raise SpecError(
            "defend mode fields the standard online ensemble; "
            "custom detector lists are not supported"
        )
    registry = resolve_registry(registry)
    policy_spec = spec.policy or PolicySpec()
    policy = get_policy(policy_spec.name, **policy_spec.params)
    adjudication = spec.adjudication or AdjudicationSpec(k=2, window_seconds=600.0)
    traffic = spec.traffic

    started = time.perf_counter()
    with trace_span("simulate", registry=registry, campaign=traffic.campaign):
        result = run_defense(
            total_requests=traffic.total_requests if traffic.total_requests is not None else 8_000,
            adaptive=traffic.campaign == "adaptive",
            policy=policy,
            seed=traffic.seed if traffic.seed is not None else 314,
            k=adjudication.k,
            identities_per_node=traffic.identities_per_node,
            window_seconds=adjudication.window_seconds,
            registry=registry,
        )
    wall_seconds = time.perf_counter() - started
    with trace_span("report", registry=registry):
        report = build_report(result, policy_name=policy.name)

    return RunResult(
        mode=spec.mode,
        source=result.dataset.metadata.name,
        label=spec.label,
        total_requests=report.total_requests,
        alert_counts=result.stream_result.alert_counts(),
        metrics={
            "served_requests": report.served_requests,
            "denied_requests": report.denied_requests,
            "requests_saved": report.requests_saved,
            "bytes_saved": report.bytes_saved,
            "challenges_passed": report.challenges_passed,
            "challenges_failed": report.challenges_failed,
            "attacker_attempted": report.attacker_attempted,
            "attacker_served": report.attacker_served,
            "attacker_yield": report.attacker_yield,
            "attacker_actors_blocked": report.attacker_actors_blocked,
            "attacker_identity_rotations": report.attacker_identity_rotations,
            "attacker_gave_up": report.attacker_gave_up,
            "median_time_to_first_block": report.median_time_to_first_block,
            "median_time_served": report.median_time_served,
            "false_block_rate": report.false_block_rate,
            "human_lockout_rate": report.human_lockout_rate,
        },
        tables={
            "table5": render_mitigation_report(
                report,
                title=(
                    "Table 5 - Closed-loop enforcement outcomes "
                    f"({traffic.campaign} campaign)"
                ),
            )
        },
        timings={"defense_seconds": wall_seconds},
        enforcement=_enforcement_summary(report),
        spec=spec.to_dict(),
        raw={"simulation": result, "report": report},
    )


def _enforcement_summary(report: MitigationReport) -> dict[str, Any]:
    return {
        "policy": report.policy_name,
        "action_counts": dict(report.action_counts),
        "attacker_actors": report.attacker_actors,
        "attacker_actors_blocked": report.attacker_actors_blocked,
        "benign_attempted": report.benign_attempted,
        "benign_denied": report.benign_denied,
        "humans_total": report.humans_total,
        "humans_challenged": report.humans_challenged,
        "humans_challenges_failed": report.humans_challenges_failed,
        "humans_denied_ever": report.humans_denied_ever,
    }
