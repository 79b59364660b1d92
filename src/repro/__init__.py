"""repro -- diverse detectors for detecting malicious web scraping activity.

A from-scratch reproduction of Marques et al., "Using Diverse Detectors
for Detecting Malicious Web Scraping Activity" (DSN 2018), grown into a
full synthetic deployment: traffic generation, batch and real-time
detection, diversity analysis, and a closed-loop enforcement gateway.

The front door is :mod:`repro.runspec`: every workload -- the paper's
batch tables, the labelled evaluation, real-time streaming, the
closed-loop defense -- is described by one declarative, JSON-serializable
:class:`RunSpec` and executed by one :func:`execute` call returning a
uniform :class:`RunResult`::

    from repro import RunSpec, TrafficSpec, execute, load_runspec

    spec = RunSpec(mode="tables", traffic=TrafficSpec(scale=0.02, seed=2018))
    result = execute(spec)
    print(result.render())        # the paper's Tables 1-4
    print(result.alert_counts)    # {'commercial': ..., 'inhouse': ...}

    spec.save("spec.json")        # specs are data: queue, sweep, diff, replay
    result2 = execute(load_runspec("spec.json"))

Switching workload is a one-field change -- ``mode="stream"`` replays
the same traffic through the real-time engine, ``mode="defend"`` runs a
scraping campaign against the enforcement gateway.  Detectors,
scenarios and policies are referenced by registry name, so third-party
components plug in without touching this package (see
:mod:`repro.registry`); adjudication is a k-out-of-n vote or a serial
mode, set by :class:`AdjudicationSpec`.

The underlying subsystems remain directly usable:

* :mod:`repro.logs` -- Apache access-log parsing, writing, data sets,
  sessionization.
* :mod:`repro.columns` -- the columnar in-memory substrate the batch
  pipeline runs on by default: numpy record frames with
  dictionary-encoded strings, vectorized sessionization and batched
  feature extraction, bit-identical to the record-object path.
* :mod:`repro.traffic` -- a synthetic e-commerce traffic generator with
  human visitors, legitimate crawlers and several scraper families,
  calibrated to the structure of the paper's data set.
* :mod:`repro.detectors` -- a family of scraping detectors, including the
  commercial-product and in-house-tool stand-ins the reproduction uses in
  place of the paper's proprietary Distil and Arcane tools.
* :mod:`repro.anomaly` / :mod:`repro.ml` -- from-scratch anomaly-detection
  and classification algorithms used by the statistical detectors.
* :mod:`repro.core` -- the diversity analysis itself: alert matrices,
  the paper's Tables 1-4, diversity metrics, the k-out-of-n and
  weighted-vote kernels, parallel/serial deployment configurations and
  labelled evaluation.
* :mod:`repro.stream` -- the real-time counterpart of the batch
  pipeline: an event-driven engine with incremental sessionization,
  online ports of the detectors, windowed 1oo2/2oo2 adjudication of live
  votes, and visitor-sharded multi-worker execution.
* :mod:`repro.mitigation` -- the closed loop on top of the stream: a
  policy-driven enforcement gateway, feedback-driven adaptive attackers,
  and a Table-5-style report of time-to-block, attacker cost, savings
  and collateral damage.
* :mod:`repro.trace` -- the persistence layer: a chunked columnar trace
  format that records any traffic stream once and replays it at I/O
  speed (out-of-core, labels included), the content-addressed
  generation cache behind ``TrafficSpec(cache=True)``, trace
  composition operators, and an importer for real (gzipped, rotated)
  Apache access logs.
* :mod:`repro.obs` -- unified observability: the injectable
  :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  histograms with quantile estimates), nested tracing spans, the
  Prometheus text exposition and ``/metrics`` server, and structured
  key=value logging.  Every workload takes ``execute(spec,
  registry=...)``; with no registry the instrumentation is a no-op.
* :mod:`repro.runstore` -- the persistent control plane: a SQLite run
  store recording every executed spec/result/telemetry (content-hash
  keyed, so re-runs form longitudinal series), run diffing with
  regression thresholds, and a stdlib web dashboard.  ``execute(spec,
  store="runs.db")`` records; ``repro runs`` browses, diffs and serves.
* :mod:`repro.prof` -- the sampling profiler: a low-overhead
  background-thread stack sampler plus per-span memory attribution
  (resident-set by default, tracemalloc-exact on request), all
  correlated against the live span tree, with
  collapsed-stack / speedscope exports and run-store persistence.
  ``execute(spec, profile=True)`` captures; ``repro profile`` reports.
"""

from repro.columns import FeatureMatrix, FrameSessions, RecordFrame, sessionize_frame
from repro.core.experiment import ExperimentResult, PaperExperiment
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.registry import register_detector
from repro.logs.dataset import Dataset
from repro.mitigation.policy import register_policy
from repro.obs import MetricsRegistry, logging_setup, serve_metrics, trace_span
from repro.prof import Profile, ProfileOptions, Profiler, profile_run
from repro.stream.detectors import register_online_detector
from repro.mitigation import (
    Action,
    ClosedLoopSimulator,
    EnforcementGateway,
    Policy,
    build_report,
    pass_through_policy,
    render_mitigation_report,
    run_defense,
    standard_policy,
)
from repro.runspec import (
    AdjudicationSpec,
    DetectorSpec,
    ExecutionSpec,
    PolicySpec,
    RunResult,
    RunSpec,
    TrafficSpec,
    execute,
    load_runspec,
)
from repro.runstore import RunStore, diff_runs, serve_dashboard
from repro.stream import (
    ShardedStreamRunner,
    StreamEngine,
    WindowedAdjudicator,
    default_online_detectors,
)
from repro.trace import (
    GenerationCache,
    TraceReader,
    TraceWriter,
    read_trace,
    trace_info,
    write_trace,
)
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import (
    amadeus_march_2018,
    balanced_small,
    get_scenario,
    register_scenario,
    stealth_heavy,
)

__version__ = "1.10.0"

__all__ = [
    "Action",
    "AdjudicationSpec",
    "ClosedLoopSimulator",
    "CommercialBotDefenceDetector",
    "Dataset",
    "DetectorSpec",
    "EnforcementGateway",
    "ExecutionSpec",
    "ExperimentResult",
    "FeatureMatrix",
    "FrameSessions",
    "GenerationCache",
    "InHouseHeuristicDetector",
    "MetricsRegistry",
    "PaperExperiment",
    "Policy",
    "PolicySpec",
    "Profile",
    "ProfileOptions",
    "Profiler",
    "RecordFrame",
    "RunResult",
    "RunSpec",
    "RunStore",
    "ShardedStreamRunner",
    "StreamEngine",
    "TraceReader",
    "TraceWriter",
    "TrafficSpec",
    "WindowedAdjudicator",
    "__version__",
    "amadeus_march_2018",
    "balanced_small",
    "build_report",
    "default_online_detectors",
    "diff_runs",
    "execute",
    "generate_dataset",
    "get_scenario",
    "load_runspec",
    "logging_setup",
    "pass_through_policy",
    "profile_run",
    "read_trace",
    "register_detector",
    "register_online_detector",
    "register_policy",
    "register_scenario",
    "render_mitigation_report",
    "run_defense",
    "serve_dashboard",
    "serve_metrics",
    "sessionize_frame",
    "standard_policy",
    "stealth_heavy",
    "trace_info",
    "trace_span",
    "write_trace",
]
