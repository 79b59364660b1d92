"""Command-line interface (``repro-scrapeguard``).

Every analysis subcommand is a thin shim over :mod:`repro.runspec`: it
builds a declarative :class:`~repro.runspec.spec.RunSpec` from its
arguments, hands it to :func:`~repro.runspec.execute.execute`, and
prints the uniform :class:`~repro.runspec.result.RunResult` -- rendered
as plain-text tables by default, or as structured JSON with ``--json``.

Subcommands
-----------
``generate``
    Generate the synthetic access log for a scenario and write it to disk
    as an Apache combined-log-format file (plus a JSON label file).
``tables``
    Run the two stand-in tools on a scenario (or an existing log file) and
    print the reproduction of the paper's Tables 1-4.
``evaluate``
    Print the labelled extension analyses: per-tool sensitivity /
    specificity, the k-out-of-2 adjudication schemes and the parallel vs
    serial configuration comparison.
``stream``
    Replay a scenario (or an existing log file) through the real-time
    streaming engine (:mod:`repro.stream`): live alert totals while the
    stream runs, then a final Table-1-style summary with the adjudicated
    ensemble verdict and throughput.
``defend``
    Run the closed-loop enforcement simulation (:mod:`repro.mitigation`):
    a scraping campaign against the enforcement gateway, reported as a
    Table-5-style summary, optionally contrasting the scripted campaign
    with its adaptive variant.
``run``
    Execute any saved run specification: ``repro run --config spec.json``
    replays exactly the workload the JSON spec describes.
``scenarios``
    List the available preset scenarios with their traffic mix.
``obs``
    Observability (:mod:`repro.obs`): ``obs dump`` prints the metric
    reference catalog, or -- given ``--config`` -- executes a saved run
    spec with a live metrics registry and dumps the resulting telemetry
    snapshot as JSON or Prometheus exposition text.  Every executing
    subcommand additionally takes ``--log-level`` (structured key=value
    logging) and ``--metrics-port`` (a live Prometheus ``/metrics``
    endpoint served for the duration of the run), and its ``--json``
    output carries the full telemetry snapshot.
``trace``
    The persistent trace store (:mod:`repro.trace`): ``trace record``
    generates a scenario once and records it as a replayable columnar
    trace file, ``trace info`` prints a trace's footer summary in O(1),
    ``trace import`` ingests real Apache access logs (gzipped and
    rotated sets included) into a trace, and ``trace mix`` interleaves a
    recorded attack onto a recorded background.  Recorded traces replay
    through every analysis subcommand via
    ``--config`` specs with ``traffic.source = "trace"``.
``runs``
    The persistent run store (:mod:`repro.runstore`).  Every executing
    subcommand takes ``--store PATH`` (or honours ``REPRO_RUN_STORE``)
    to append its result -- spec, tables, metrics, telemetry, traffic
    fingerprint, profile -- to a SQLite store; ``runs list`` / ``runs
    show`` browse it, ``runs diff`` compares two stored runs (spec
    deltas plus metric/counter/quantile deltas, and per-span
    self-time/peak-memory deltas when both runs were profiled, with
    ``--fail-on-regression`` for CI), ``runs export`` emits the exact
    stored ``RunResult`` JSON, ``runs gc`` trims old re-runs, and
    ``runs serve`` starts the stdlib web dashboard (including a per-run
    flame / top-spans view).
``profile``
    The sampling profiler (:mod:`repro.prof`).  Every executing
    subcommand takes ``--profile`` (and ``--profile-hz``) to sample
    stacks on a background thread and attribute CPU time and memory to
    the run's tracing spans; ``profile run`` executes a saved spec under
    the profiler with export switches (``--collapsed`` for
    flamegraph.pl input, ``--speedscope`` for speedscope.app JSON),
    ``profile report`` prints a stored run's top-spans / top-functions
    report, and ``profile export`` re-emits a stored profile in any of
    the three formats.
``lint``
    Project-invariant static analysis (:mod:`repro.lint`): ``repro lint``
    checks the paper's guarantees (seeded determinism, columnar parity,
    metric-catalogue discipline, spec round-trips, lock hygiene, CLI
    drift) over the source tree, with ``--json`` findings output, a
    checked-in baseline (``--update-baseline`` to accept), and
    ``--fail-on`` severity gating for CI.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Iterator, Sequence

from repro import __version__
from repro.logs.writer import LogWriter
from repro.mitigation import list_policies, render_comparison
from repro.obs import logging_setup
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import METRIC_REFERENCE
from repro.obs.prometheus import render as render_prometheus
from repro.obs.prometheus import serve_metrics
from repro.runspec import (
    DEFAULT_SCENARIO,
    AdjudicationSpec,
    ExecutionSpec,
    PolicySpec,
    RunSpec,
    TrafficSpec,
    build_dataset,
    execute,
    load_runspec,
)
from repro.runstore import (
    DEFAULT_THRESHOLD,
    RUN_STORE_ENV,
    RunStore,
    diff_runs,
    serve_dashboard,
)
from repro.stream.engine import StreamEngine
from repro.trace import (
    DEFAULT_BLOCK_SIZE,
    import_clf,
    interleave_traces,
    trace_info,
    write_trace,
)
from repro.traffic.scenarios import get_scenario, list_scenarios


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-scrapeguard",
        description="Diverse detectors for malicious web scraping (DSN 2018 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Shared argument blocks.  ``json_parent`` gives every subcommand a
    # structured-output switch; ``scenario_parent`` carries the scenario
    # selection that generate/tables/evaluate/stream all take.
    json_parent = argparse.ArgumentParser(add_help=False)
    json_parent.add_argument(
        "--json", action="store_true", help="emit the structured result as JSON"
    )
    # ``obs_parent`` gives every executing subcommand the observability
    # switches: structured logging verbosity and a live Prometheus
    # endpoint served for the duration of the run.
    obs_parent = argparse.ArgumentParser(add_help=False)
    obs_parent.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="enable structured key=value logging at this level",
    )
    obs_parent.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve a Prometheus /metrics endpoint on this port while the run executes (0 picks a free port)",
    )
    obs_parent.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "append the run's result and telemetry to this SQLite run store "
            f"(created on first use; defaults to ${RUN_STORE_ENV} when set)"
        ),
    )
    obs_parent.add_argument(
        "--profile",
        action="store_true",
        help=(
            "profile the run: sample stacks on a background thread and "
            "attribute CPU time and memory to the pipeline stages "
            "(the capture rides along in --json output and the run store)"
        ),
    )
    obs_parent.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="stack-sampling rate with --profile (default 97)",
    )
    scenario_parent = argparse.ArgumentParser(add_help=False)
    scenario_parent.add_argument(
        "--scenario", default=DEFAULT_SCENARIO, help="preset scenario name"
    )
    scenario_parent.add_argument(
        "--scale",
        type=float,
        default=None,
        help=(
            "fraction of the paper's data-set size, for scenarios that take a "
            f"scale (default 0.02 for {DEFAULT_SCENARIO})"
        ),
    )
    scenario_parent.add_argument("--seed", type=int, default=2018, help="simulation seed")
    # ``workers_parent`` is the one sharding knob of tables/evaluate/stream.
    workers_parent = argparse.ArgumentParser(add_help=False)
    workers_parent.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the run by visitor across N worker processes",
    )

    generate = subparsers.add_parser(
        "generate",
        parents=[scenario_parent, json_parent],
        help="generate a synthetic access log",
    )
    generate.add_argument("--output", required=True, help="path of the access-log file to write")
    generate.add_argument("--labels", default=None, help="optional path for the ground-truth JSON")

    tables = subparsers.add_parser(
        "tables",
        parents=[scenario_parent, json_parent, obs_parent, workers_parent],
        help="reproduce the paper's tables",
    )
    tables.add_argument("--log-file", default=None, help="analyse an existing access log instead of generating one")

    evaluate = subparsers.add_parser(
        "evaluate",
        parents=[scenario_parent, json_parent, obs_parent, workers_parent],
        help="labelled extension analyses",
    )
    evaluate.add_argument("--configurations", action="store_true", help="also compare parallel vs serial deployments")

    stream = subparsers.add_parser(
        "stream",
        parents=[scenario_parent, json_parent, obs_parent, workers_parent],
        help="replay traffic through the streaming engine",
    )
    stream.add_argument("--log-file", default=None, help="replay an existing access log instead of generating one")
    stream.add_argument("--k", type=int, default=1, help="detector votes required to alert (k-out-of-4)")
    stream.add_argument("--window", type=float, default=300.0, help="adjudication window in seconds")
    stream.add_argument("--skew", type=float, default=0.0, help="reorder-buffer bound for out-of-order records (seconds)")
    stream.add_argument(
        "--progress-every",
        type=int,
        default=0,
        help="print live alert totals every N requests (single-worker runs only; 0 disables)",
    )
    stream.add_argument(
        "--track-latency",
        action="store_true",
        help="record per-request detection latency percentiles in the result",
    )

    defend = subparsers.add_parser(
        "defend",
        parents=[json_parent, obs_parent],
        help="closed-loop enforcement simulation",
    )
    defend.add_argument("--requests", type=int, default=6000, help="total request budget of the simulation")
    defend.add_argument("--seed", type=int, default=314, help="simulation seed")
    defend.add_argument(
        "--policy",
        choices=list_policies(),
        default="standard",
        help="enforcement policy preset",
    )
    defend.add_argument("--k", type=int, default=2, help="detector votes required to alert (k-out-of-4)")
    defend.add_argument(
        "--campaign",
        choices=["scripted", "adaptive", "both"],
        default="both",
        help="which scraping campaign to simulate (default: both, with a comparison)",
    )
    defend.add_argument(
        "--identities",
        type=int,
        default=8,
        help="identity pool size of each adaptive node (an n-identity node can rotate n-1 times before giving up)",
    )

    run = subparsers.add_parser(
        "run",
        parents=[json_parent, obs_parent],
        help="execute a saved run specification",
    )
    run.add_argument("--config", required=True, help="path of the RunSpec JSON file to execute")

    subparsers.add_parser(
        "scenarios",
        parents=[json_parent],
        help="list preset scenarios with their traffic mix",
    )

    obs = subparsers.add_parser(
        "obs",
        help="observability: metric reference catalog and telemetry dumps",
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    dump = obs_commands.add_parser(
        "dump",
        parents=[json_parent],
        help="print the metric reference, or a run's full telemetry snapshot",
    )
    dump.add_argument(
        "--config",
        default=None,
        help="RunSpec JSON file to execute with a live registry (omit to print the metric reference)",
    )
    dump.add_argument(
        "--format",
        choices=["json", "prometheus"],
        default="json",
        help="telemetry output format (with --config)",
    )
    dump.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "append the executed run to this SQLite run store "
            f"(with --config; defaults to ${RUN_STORE_ENV} when set)"
        ),
    )

    trace = subparsers.add_parser(
        "trace",
        help="record, inspect, import and compose persistent trace files",
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_commands.add_parser(
        "record",
        parents=[scenario_parent, json_parent],
        help="generate a scenario once and record it as a replayable trace",
    )
    record.add_argument("--output", required=True, help="path of the trace file to write")
    record.add_argument(
        "--block-size",
        type=int,
        default=DEFAULT_BLOCK_SIZE,
        help="records per columnar block (the unit of out-of-core replay)",
    )

    info = trace_commands.add_parser(
        "info",
        parents=[json_parent],
        help="print a trace's footer summary (O(1), no block is read)",
    )
    info.add_argument("trace", help="trace file to inspect")

    importer = trace_commands.add_parser(
        "import",
        parents=[json_parent],
        help="import Apache access logs (plain or .gz) into a trace",
    )
    importer.add_argument("logs", nargs="+", help="access-log files, oldest first")
    importer.add_argument("--output", required=True, help="path of the trace file to write")
    importer.add_argument(
        "--rotated",
        action="store_true",
        help="expand each input into its rotation set (access.log.N[.gz], oldest first)",
    )
    importer.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first malformed line instead of counting and skipping it",
    )

    mix = trace_commands.add_parser(
        "mix",
        parents=[json_parent],
        help="interleave a recorded overlay (e.g. an attack) onto a recorded background",
    )
    mix.add_argument("--base", required=True, help="background trace")
    mix.add_argument("--overlay", required=True, help="overlay trace merged on top")
    mix.add_argument("--output", required=True, help="path of the mixed trace to write")
    mix.add_argument(
        "--shift",
        type=float,
        default=0.0,
        help="time-shift the overlay by this many seconds before merging",
    )
    mix.add_argument(
        "--sample",
        type=float,
        default=None,
        help="keep only this fraction of overlay records (0 < f <= 1)",
    )
    mix.add_argument("--seed", type=int, default=0, help="seed of the overlay sampling draw")

    # The run store (repro.runstore).  Every ``runs`` subcommand reads a
    # store named by --store or $REPRO_RUN_STORE.
    store_parent = argparse.ArgumentParser(add_help=False)
    store_parent.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=f"the SQLite run store to operate on (defaults to ${RUN_STORE_ENV})",
    )

    runs = subparsers.add_parser(
        "runs",
        help="browse, diff, export, trim and serve the persistent run store",
    )
    runs_commands = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_commands.add_parser(
        "list",
        parents=[store_parent, json_parent],
        help="list stored runs, newest first",
    )
    runs_list.add_argument("--mode", default=None, help="only runs of this workload mode")
    runs_list.add_argument(
        "--series", default=None, metavar="HASH", help="only runs of this spec-hash series (prefix ok)"
    )
    runs_list.add_argument("--limit", type=int, default=None, help="show at most N runs")

    runs_show = runs_commands.add_parser(
        "show",
        parents=[store_parent, json_parent],
        help="one stored run: report by default, the exact RunResult dict with --json",
    )
    runs_show.add_argument("run_id", type=int, help="run id (see `runs list`)")

    runs_diff = runs_commands.add_parser(
        "diff",
        parents=[store_parent, json_parent],
        help=(
            "compare two stored runs: spec deltas plus "
            "metric/counter/quantile/profile deltas"
        ),
    )
    runs_diff.add_argument("left", type=int, help="baseline run id")
    runs_diff.add_argument("right", type=int, help="candidate run id")
    runs_diff.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative change above which a metric/counter delta is a regression",
    )
    runs_diff.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero when any delta exceeds the threshold (the CI gate)",
    )
    runs_diff.add_argument(
        "--all", action="store_true", help="print unchanged quantities too"
    )

    runs_export = runs_commands.add_parser(
        "export",
        parents=[store_parent],
        help="emit one stored run as its exact RunResult JSON",
    )
    runs_export.add_argument("run_id", type=int, help="run id (see `runs list`)")
    runs_export.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )

    runs_gc = runs_commands.add_parser(
        "gc",
        parents=[store_parent, json_parent],
        help="trim every spec series to its newest N runs and compact the file",
    )
    runs_gc.add_argument(
        "--keep", type=int, default=10, help="runs kept per spec series (newest first)"
    )

    runs_serve = runs_commands.add_parser(
        "serve",
        parents=[store_parent],
        help="serve the run-store web dashboard (stdlib http.server)",
    )
    runs_serve.add_argument("--port", type=int, default=0, help="port to bind (0 picks a free one)")
    runs_serve.add_argument("--host", default="127.0.0.1", help="address to bind")

    # The sampling profiler (repro.prof).
    profile = subparsers.add_parser(
        "profile",
        help="profile runs: flamegraph/speedscope exports and hot-span reports",
    )
    profile_commands = profile.add_subparsers(dest="profile_command", required=True)

    profile_run = profile_commands.add_parser(
        "run",
        parents=[json_parent],
        help="execute a saved run specification under the sampling profiler",
    )
    profile_run.add_argument(
        "--config", required=True, help="path of the RunSpec JSON file to execute"
    )
    profile_run.add_argument(
        "--hz", type=float, default=None, help="stack-sampling rate (default 97)"
    )
    profile_run.add_argument(
        "--no-memory",
        action="store_true",
        help="skip per-span memory attribution (CPU samples only)",
    )
    profile_run.add_argument(
        "--precise-memory",
        action="store_true",
        help=(
            "use tracemalloc for exact per-span traced bytes instead of "
            "resident-set reads (precise, but several times slower on "
            "allocation-heavy runs)"
        ),
    )
    profile_run.add_argument(
        "--top", type=int, default=10, help="rows per report table (default 10)"
    )
    profile_run.add_argument(
        "--collapsed",
        default=None,
        metavar="PATH",
        help="also write flamegraph.pl-compatible collapsed stacks to this file",
    )
    profile_run.add_argument(
        "--speedscope",
        default=None,
        metavar="PATH",
        help="also write a speedscope.app JSON profile to this file",
    )
    profile_run.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "append the profiled run (result, telemetry and profile) to this "
            f"SQLite run store (defaults to ${RUN_STORE_ENV} when set)"
        ),
    )

    profile_report = profile_commands.add_parser(
        "report",
        parents=[store_parent, json_parent],
        help="print a stored run's top-spans / top-functions profile report",
    )
    profile_report.add_argument("run_id", type=int, help="run id (see `runs list`)")
    profile_report.add_argument(
        "--top", type=int, default=10, help="rows per report table (default 10)"
    )

    profile_export = profile_commands.add_parser(
        "export",
        parents=[store_parent],
        help="emit a stored run's profile as collapsed stacks, speedscope or JSON",
    )
    profile_export.add_argument("run_id", type=int, help="run id (see `runs list`)")
    profile_export.add_argument(
        "--format",
        choices=["collapsed", "speedscope", "json"],
        default="collapsed",
        help="export format (default: collapsed stacks for flamegraph.pl)",
    )
    profile_export.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )

    lint = subparsers.add_parser(
        "lint",
        parents=[json_parent],
        help="check the project's paper invariants (repro.lint)",
    )
    lint.add_argument("--root", default=".", help="repository root to lint (default: .)")
    lint.add_argument(
        "--baseline",
        default=None,
        help="baseline file of accepted findings (default: [tool.repro-lint] baseline)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true", help="ignore the baseline file entirely"
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="accept the current findings: rewrite the baseline file and exit 0",
    )
    lint.add_argument(
        "--fail-on",
        choices=["info", "warning", "error"],
        default="warning",
        help="lowest severity that fails the run (default: warning)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="describe every registered rule and exit"
    )
    return parser


# ----------------------------------------------------------------------
# Spec builders (one per argparse namespace shape)
# ----------------------------------------------------------------------
def _traffic_spec(args: argparse.Namespace, *, log_file: str | None = None) -> TrafficSpec:
    """The traffic block shared by the scenario-driven subcommands."""
    scale = args.scale
    if scale is None and args.scenario == DEFAULT_SCENARIO:
        scale = 0.02
    # An explicit --scale is always forwarded; a scenario whose factory
    # does not take one rejects it loudly instead of ignoring it.
    return TrafficSpec(
        scenario=args.scenario,
        scale=scale,
        seed=args.seed,
        log_file=log_file,
    )


def _print_result(result, args: argparse.Namespace) -> None:
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
        _maybe_print_profile(result, args)


def _profile_options(args: argparse.Namespace):
    """The ``execute(profile=...)`` value of this invocation (None = off)."""
    if not getattr(args, "profile", False):
        return None
    hz = getattr(args, "profile_hz", None)
    return {"hz": hz} if hz is not None else True


def _maybe_print_profile(result, args: argparse.Namespace) -> None:
    """After a non-JSON report, append the profile summary when captured."""
    if getattr(args, "json", False) or not getattr(result, "profile", None):
        return
    from repro.prof import Profile

    print()
    print(Profile.from_dict(result.profile).render_report())


def _store_path(args: argparse.Namespace) -> str | None:
    """The run-store path of this invocation (flag beats environment)."""
    explicit = getattr(args, "store", None)
    return explicit or os.environ.get(RUN_STORE_ENV) or None


def _require_store_path(args: argparse.Namespace) -> str:
    path = _store_path(args)
    if path is None:
        raise SystemExit(
            f"no run store given: pass --store PATH or set ${RUN_STORE_ENV}"
        )
    return path


@contextlib.contextmanager
def _obs_session(args: argparse.Namespace) -> Iterator[MetricsRegistry]:
    """A live metrics registry for one CLI run.

    Every executing subcommand collects telemetry into a fresh registry
    (the snapshot rides along in the ``--json`` output as ``telemetry``);
    with ``--metrics-port`` the registry is additionally served as a
    Prometheus ``/metrics`` endpoint for the duration of the run.
    """
    registry = MetricsRegistry()
    server = None
    port = getattr(args, "metrics_port", None)
    if port is not None:
        server = serve_metrics(registry, port=port)
        if not getattr(args, "json", False):
            print(f"serving metrics at {server.url}")
    try:
        yield registry
    finally:
        if server is not None:
            server.close()


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------
def _command_generate(args: argparse.Namespace) -> int:
    dataset = build_dataset(_traffic_spec(args))
    count = LogWriter().write_file(dataset.records, args.output)
    if args.labels:
        dataset.save_labels(args.labels)
    if args.json:
        print(
            json.dumps(
                {
                    "scenario": args.scenario,
                    "records": count,
                    "output": args.output,
                    "labels": args.labels,
                },
                indent=2,
            )
        )
        return 0
    print(f"wrote {count:,} log lines to {args.output}")
    if args.labels:
        print(f"wrote ground-truth labels to {args.labels}")
    return 0


def _command_tables(args: argparse.Namespace) -> int:
    spec = RunSpec(
        mode="tables",
        traffic=_traffic_spec(args, log_file=args.log_file),
        execution=ExecutionSpec(workers=args.workers),
    )
    with _obs_session(args) as registry:
        result = execute(
            spec, registry=registry, store=_store_path(args), profile=_profile_options(args)
        )
    _print_result(result, args)
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    spec = RunSpec(
        mode="evaluate",
        traffic=_traffic_spec(args),
        execution=ExecutionSpec(
            compare_configurations=args.configurations,
            workers=args.workers,
        ),
    )
    with _obs_session(args) as registry:
        result = execute(
            spec, registry=registry, store=_store_path(args), profile=_profile_options(args)
        )
    _print_result(result, args)
    return 0


def _progress_printer(progress_every: int):
    def report(engine: StreamEngine) -> None:
        totals = ", ".join(
            f"{name}={count:,}" for name, count in engine.stats.online_alerts.items()
        )
        print(
            f"  after {engine.stats.records:,} requests: {totals}, "
            f"ensemble={engine.stats.ensemble_alerts:,}, "
            f"window rate {engine.adjudicator.window_alert_rate():.1%}"
        )

    return report if progress_every else None


def _command_stream(args: argparse.Namespace) -> int:
    spec = RunSpec(
        mode="stream",
        traffic=_traffic_spec(args, log_file=args.log_file),
        adjudication=AdjudicationSpec(k=args.k, window_seconds=args.window),
        execution=ExecutionSpec(
            workers=args.workers,
            max_skew_seconds=args.skew,
            track_latency=args.track_latency,
            progress_every=args.progress_every,
        ),
    )
    progress = None
    if not args.json:
        source = args.log_file or args.scenario
        print(
            f"streaming {source} through the engine "
            f"({args.workers} worker{'s' if args.workers != 1 else ''}, k={args.k}-out-of-4)"
        )
        progress = _progress_printer(args.progress_every)
    with _obs_session(args) as registry:
        result = execute(
            spec,
            progress=progress,
            registry=registry,
            store=_store_path(args),
            profile=_profile_options(args),
        )
    if not args.json:
        print()
    _print_result(result, args)
    return 0


def _defend_spec(args: argparse.Namespace, campaign: str) -> RunSpec:
    return RunSpec(
        mode="defend",
        traffic=TrafficSpec(
            campaign=campaign,
            total_requests=args.requests,
            seed=args.seed,
            identities_per_node=args.identities,
        ),
        adjudication=AdjudicationSpec(k=args.k, window_seconds=600.0),
        policy=PolicySpec(name=args.policy),
    )


def _command_defend(args: argparse.Namespace) -> int:
    campaigns = ["scripted", "adaptive"] if args.campaign == "both" else [args.campaign]
    results = {}
    # One registry for the whole command: with --campaign both the
    # counters are cumulative across campaigns, the Prometheus way.
    with _obs_session(args) as registry:
        for campaign in campaigns:
            if not args.json:
                print(
                    f"simulating the {campaign} campaign against the {args.policy!r} policy "
                    f"(~{args.requests:,} requests, k={args.k}-out-of-4) ..."
                )
            results[campaign] = execute(
                _defend_spec(args, campaign),
                registry=registry,
                store=_store_path(args),
                profile=_profile_options(args),
            )
            if not args.json:
                print()
                print(results[campaign].render())
                _maybe_print_profile(results[campaign], args)
                print()
    if args.json:
        print(
            json.dumps(
                {campaign: result.to_dict() for campaign, result in results.items()},
                indent=2,
            )
        )
    elif len(results) == 2:
        print(
            render_comparison(
                results["scripted"].raw["report"], results["adaptive"].raw["report"]
            )
        )
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    handlers = {
        "record": _trace_record,
        "info": _trace_info,
        "import": _trace_import,
        "mix": _trace_mix,
    }
    return handlers[args.trace_command](args)


def _print_trace_info(info, args: argparse.Namespace) -> None:
    if args.json:
        print(json.dumps(info.to_dict(), indent=2))
    else:
        print(info.render())


def _trace_record(args: argparse.Namespace) -> int:
    dataset = build_dataset(_traffic_spec(args))
    info = write_trace(dataset, args.output, block_size=args.block_size)
    if not args.json:
        print(f"recorded {info.records:,} requests to {args.output}")
    _print_trace_info(info, args)
    return 0


def _trace_info(args: argparse.Namespace) -> int:
    _print_trace_info(trace_info(args.trace), args)
    return 0


def _trace_import(args: argparse.Namespace) -> int:
    report = import_clf(
        args.logs,
        args.output,
        rotated=args.rotated,
        skip_malformed=not args.strict,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    print(
        f"imported {report.parsed:,} of {report.total_lines:,} log lines "
        f"from {len(report.files)} file(s) ({report.skipped:,} skipped)"
    )
    assert report.trace is not None
    print(report.trace.render())
    return 0


def _trace_mix(args: argparse.Namespace) -> int:
    info = interleave_traces(
        args.base,
        args.overlay,
        args.output,
        shift_overlay_seconds=args.shift,
        sample_overlay=args.sample,
        seed=args.seed,
    )
    if not args.json:
        print(f"mixed {args.overlay} onto {args.base} -> {args.output}")
    _print_trace_info(info, args)
    return 0


def _command_run(args: argparse.Namespace) -> int:
    spec = load_runspec(args.config)
    with _obs_session(args) as registry:
        result = execute(
            spec, registry=registry, store=_store_path(args), profile=_profile_options(args)
        )
    _print_result(result, args)
    return 0


def _command_obs(args: argparse.Namespace) -> int:
    return {"dump": _obs_dump}[args.obs_command](args)


def _obs_dump(args: argparse.Namespace) -> int:
    if args.config is None:
        # No run to instrument: print the metric reference catalog.
        if args.json:
            print(
                json.dumps(
                    [
                        {"name": name, "kind": kind, "labels": labels, "help": help_text}
                        for name, kind, labels, help_text in METRIC_REFERENCE
                    ],
                    indent=2,
                )
            )
            return 0
        for name, kind, labels, help_text in METRIC_REFERENCE:
            print(f"{name} ({kind}; labels: {labels}): {help_text}")
        return 0
    spec = load_runspec(args.config)
    registry = MetricsRegistry()
    execute(spec, registry=registry, store=_store_path(args))
    if args.format == "prometheus":
        print(render_prometheus(registry), end="")
    else:
        print(json.dumps(registry.to_dict(), indent=2))
    return 0


def _command_runs(args: argparse.Namespace) -> int:
    handlers = {
        "list": _runs_list,
        "show": _runs_show,
        "diff": _runs_diff,
        "export": _runs_export,
        "gc": _runs_gc,
        "serve": _runs_serve,
    }
    return handlers[args.runs_command](args)


def _format_run_row(summary) -> str:
    label = f" [{summary.label}]" if summary.label else ""
    wall = "-" if summary.wall_seconds is None else f"{summary.wall_seconds:.2f}s"
    when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(summary.recorded_at))
    return (
        f"#{summary.run_id:<5} {summary.mode:<9} {summary.source:<24} "
        f"{summary.total_requests:>10,}  {wall:>8}  {when}  "
        f"{summary.spec_hash[:12]}{label}"
    )


def _runs_list(args: argparse.Namespace) -> int:
    with RunStore(_require_store_path(args), create=False) as store:
        summaries = store.list_runs(mode=args.mode, spec_hash=args.series, limit=args.limit)
        stats = store.stats()
    if args.json:
        print(
            json.dumps(
                {
                    "stats": stats.to_dict(),
                    "runs": [summary.to_dict() for summary in summaries],
                },
                indent=2,
            )
        )
        return 0
    if not summaries:
        print("run store is empty (record with --store on any executing subcommand)")
        return 0
    print(f"{stats.runs} run(s) over {stats.specs} spec(s):")
    print(
        f"{'run':<6} {'mode':<9} {'source':<24} {'requests':>10}  "
        f"{'wall':>8}  {'recorded':<19}  series"
    )
    for summary in summaries:
        print(_format_run_row(summary))
    return 0


def _runs_show(args: argparse.Namespace) -> int:
    with RunStore(_require_store_path(args), create=False) as store:
        summary = store.get(args.run_id)
        data = store.export(args.run_id)
    if args.json:
        # The exact stored RunResult.to_dict() -- the replay contract:
        # this output round-trips through every RunResult consumer.
        print(json.dumps(data, indent=2))
        return 0
    from repro.prof import Profile
    from repro.runspec.result import RunResult

    print(_format_run_row(summary))
    print()
    print(RunResult.from_dict(data).render())
    if data.get("profile"):
        print()
        print(Profile.from_dict(data["profile"]).render_report())
    return 0


def _runs_diff(args: argparse.Namespace) -> int:
    with RunStore(_require_store_path(args), create=False) as store:
        diff = diff_runs(store, args.left, args.right)
    regressions = diff.regressions(args.threshold)
    if args.json:
        payload = diff.to_dict()
        payload["threshold"] = args.threshold
        payload["regressions"] = [delta.to_dict() for delta in regressions]
        print(json.dumps(payload, indent=2))
    else:
        print(diff.render(threshold=args.threshold, all_deltas=args.all))
        if regressions:
            print()
            print(f"{len(regressions)} regression(s) beyond {args.threshold:.0%}:")
            for delta in regressions:
                change = "new" if delta.change == float("inf") else f"{delta.change:+.1%}"
                print(f"  {delta.name}: {delta.left:g} -> {delta.right:g} ({change})")
    if args.fail_on_regression and regressions:
        return 1
    return 0


def _runs_export(args: argparse.Namespace) -> int:
    with RunStore(_require_store_path(args), create=False) as store:
        data = store.export(args.run_id)
    text = json.dumps(data, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"exported run #{args.run_id} to {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _runs_gc(args: argparse.Namespace) -> int:
    with RunStore(_require_store_path(args), create=False) as store:
        deleted = store.gc(keep_last=args.keep)
        remaining = len(store)
    if args.json:
        print(json.dumps({"deleted": deleted, "remaining": remaining, "keep": args.keep}, indent=2))
    else:
        print(f"deleted {deleted} run(s); {remaining} remain (keeping {args.keep} per series)")
    return 0


def _runs_serve(args: argparse.Namespace) -> int:
    server = serve_dashboard(_require_store_path(args), port=args.port, host=args.host)
    print(f"serving the run-store dashboard at {server.url} (Ctrl-C to stop)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down")
        return 0
    finally:
        server.close()


def _command_profile(args: argparse.Namespace) -> int:
    handlers = {
        "run": _profile_run,
        "report": _profile_report,
        "export": _profile_export,
    }
    return handlers[args.profile_command](args)


def _profile_run(args: argparse.Namespace) -> int:
    from repro.prof import Profile

    spec = load_runspec(args.config)
    options: dict = {}
    if args.hz is not None:
        options["hz"] = args.hz
    if args.no_memory:
        options["memory"] = False
    if args.precise_memory:
        options["precise_memory"] = True
    result = execute(spec, store=_store_path(args), profile=options or True)
    assert result.profile is not None  # execute(profile=...) always captures
    profile = Profile.from_dict(result.profile)
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write(profile.collapsed())
        print(f"wrote collapsed stacks to {args.collapsed}", file=sys.stderr)
    if args.speedscope:
        with open(args.speedscope, "w", encoding="utf-8") as handle:
            json.dump(profile.speedscope(os.path.basename(args.config)), handle)
            handle.write("\n")
        print(f"wrote speedscope profile to {args.speedscope}", file=sys.stderr)
    if args.json:
        print(json.dumps(result.profile, indent=2))
    else:
        print(result.render())
        print()
        print(profile.render_report(limit=args.top))
    return 0


def _stored_profile(args: argparse.Namespace):
    from repro.prof import Profile

    with RunStore(_require_store_path(args), create=False) as store:
        stored = store.profile(args.run_id)
    if stored is None:
        raise SystemExit(
            f"run #{args.run_id} has no profile; re-run with --profile to capture one"
        )
    return stored, Profile.from_dict(stored)


def _profile_report(args: argparse.Namespace) -> int:
    stored, profile = _stored_profile(args)
    if args.json:
        print(json.dumps(stored, indent=2))
    else:
        print(profile.render_report(limit=args.top))
    return 0


def _profile_export(args: argparse.Namespace) -> int:
    stored, profile = _stored_profile(args)
    if args.format == "collapsed":
        text = profile.collapsed()
    elif args.format == "speedscope":
        text = json.dumps(profile.speedscope(f"run #{args.run_id}")) + "\n"
    else:
        text = json.dumps(stored, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"exported run #{args.run_id} profile to {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _command_scenarios(args: argparse.Namespace) -> int:
    if args.json:
        listing = []
        for name in list_scenarios():
            scenario = get_scenario(name)
            listing.append(
                {
                    "name": name,
                    "total_requests": scenario.total_requests,
                    "days": scenario.window.days,
                    "mix": dict(scenario.mix),
                }
            )
        print(json.dumps(listing, indent=2))
        return 0
    for name in list_scenarios():
        scenario = get_scenario(name)
        mix = " ".join(
            f"{traffic_class}={fraction:.4f}".rstrip("0").rstrip(".")
            for traffic_class, fraction in scenario.mix.items()
        )
        print(f"{name}: {mix}")
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.lint import available_rules, load_config, run_lint, write_baseline
    from repro.lint.config import replace_baseline

    if args.list_rules:
        rules = available_rules()
        if args.json:
            print(
                json.dumps(
                    [
                        {
                            "rule": rule.rule_id,
                            "severity": rule.severity,
                            "summary": rule.summary,
                            "fix": rule.autofix_hint,
                        }
                        for rule in rules
                    ],
                    indent=2,
                )
            )
            return 0
        for rule in rules:
            print(f"{rule.rule_id} [{rule.severity}] {rule.summary}")
            if rule.autofix_hint:
                print(f"    fix: {rule.autofix_hint}")
        return 0

    config = load_config(args.root)
    if args.no_baseline:
        config = replace_baseline(config, None)
    elif args.baseline is not None:
        config = replace_baseline(config, args.baseline)

    if args.update_baseline:
        if config.baseline is None:
            raise SystemExit("--update-baseline needs a baseline path (not --no-baseline)")
        report = run_lint(args.root, config=config, baseline=set())
        count = write_baseline(
            os.path.join(args.root, config.baseline), report.findings
        )
        if not args.json:
            print(f"baseline {config.baseline}: {count} accepted finding(s)")
        return 0

    report = run_lint(args.root, config=config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        counts = report.counts()
        summary = (
            ", ".join(f"{counts[s]} {s}(s)" for s in ("error", "warning", "info") if s in counts)
            or "no findings"
        )
        print(
            f"checked {report.checked_files} file(s): {summary}"
            + (f", {len(report.baselined)} baselined" if report.baselined else "")
            + (f", {report.suppressed} suppressed" if report.suppressed else "")
        )
        for fingerprint in report.stale_baseline:
            print(f"note: stale baseline entry (fixed? run --update-baseline): {fingerprint}")
    return 1 if report.worst_at_or_above(args.fail_on) else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "log_level", None):
        logging_setup(args.log_level)
    handlers = {
        "generate": _command_generate,
        "tables": _command_tables,
        "evaluate": _command_evaluate,
        "stream": _command_stream,
        "defend": _command_defend,
        "run": _command_run,
        "scenarios": _command_scenarios,
        "obs": _command_obs,
        "trace": _command_trace,
        "runs": _command_runs,
        "profile": _command_profile,
        "lint": _command_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
