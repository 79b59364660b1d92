"""The four benchmark workloads, each timed untraced and traced.

Every workload exposes the same four steps to :mod:`child`:

* ``warm()`` -- let imports, lazy tables and allocator pools settle;
* ``op()`` -- one untraced operation, returning an :class:`Op` with the
  per-record verdict latencies a user would see and the outputs that
  must repeat exactly;
* ``traced_op(ledger_dir)`` -- the same operation with every layer timed
  from outside (:mod:`tracing`), returning a :class:`Traced`;
* ``checks(outputs)`` -- correctness checks that hold for any seed,
  beyond "every repeat is identical" (which :mod:`child` checks).

The universal layer keys of a traced operation (``ingest``,
``sessionize``, ``detect``, ``decide``) map onto each workload's own
modules as listed in README.md; ``unattributed`` is the operation's wall
time minus those four.
"""

from __future__ import annotations

import hashlib
import os
import resource
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.experiment import PaperExperiment
from repro.detectors.pipeline import DetectionPipeline
from repro.logs.dataset import Dataset
from repro.mitigation.metrics import build_report
from repro.mitigation.scenarios import build_gateway, defense_population
from repro.mitigation.simulator import ClosedLoopSimulator
from repro.runspec import AdjudicationSpec, ExecutionSpec, RunSpec, TrafficSpec, execute
from repro.stream import StreamEngine, WindowedAdjudicator, default_online_detectors, shard_of
from repro.stream.bridge import ported_detector_pairs
from repro.trace.store import TraceReader

from tracing import Durations, Ledger, SpanLog, TimedProxy

#: A verdict slower than this counts as a stall (stream and defend).
STALL_SECONDS = 0.005

#: Workers the sharded tables run asks for: one per core of the 2-core
#: machine the benchmark was calibrated on.
SHARD_WORKERS = 2

TABLE_KEYS = ("table1", "table2", "table3", "table4")


@dataclass
class Op:
    """One untraced operation."""

    records: int
    wall: float
    #: Per-record verdict latencies in seconds; batch ops leave this
    #: empty (every record's verdict is out when the run ends).
    latencies: list[float]
    outputs: dict[str, Any]


@dataclass
class Traced:
    """One traced operation: the wall it is compared on, and its layers."""

    wall: float
    layers: dict[str, float]
    outputs: dict[str, Any]
    detail: dict[str, float]


def _tables_digest(tables: dict[str, str]) -> str:
    text = "\n\n".join(tables[key] for key in TABLE_KEYS)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _layers(wall: float, **busy: float) -> dict[str, float]:
    layers = dict(busy)
    layers["unattributed"] = wall - sum(busy.values())
    return layers


def _batch_alert_ids(dataset: Dataset) -> dict[str, set[str]]:
    """Alerted ids of the batch counterparts of the four online detectors."""
    detectors = [batch() for _online, batch in ported_detector_pairs()]
    result = DetectionPipeline(detectors).run(dataset)
    return {d.name: result.alert_set(d.name).request_ids() for d in detectors}


def _equivalence_failures(stream_sets: list, dataset: Dataset) -> list[str]:
    """Batch/stream equivalence: the same records give the same alert ids."""
    batch = _batch_alert_ids(dataset)
    failures = []
    for (name, batch_ids), stream_set in zip(batch.items(), stream_sets):
        stream_ids = stream_set.request_ids()
        if stream_ids != batch_ids:
            failures.append(
                f"{stream_set.detector_name}: stream alerted {len(stream_ids)} requests, "
                f"batch {name} alerted {len(batch_ids)}"
            )
    return failures


# ----------------------------------------------------------------------
# Batch tables
# ----------------------------------------------------------------------
class Tables:
    """``execute(RunSpec(mode="tables"))`` over the set-up trace."""

    def __init__(self, trace_path: str, seed: int, sizes: Any, *, workers: int) -> None:
        self.path = trace_path
        self.workers = workers
        self.spec = RunSpec(
            mode="tables",
            traffic=TrafficSpec(source="trace", path=trace_path),
            execution=ExecutionSpec(workers=workers),
        )

    def warm(self) -> None:
        self.op()

    def op(self) -> Op:
        started = time.perf_counter()
        result = execute(self.spec)
        wall = time.perf_counter() - started
        return Op(
            result.total_requests,
            wall,
            [],
            {"tables_sha256": _tables_digest(result.tables), "alert_counts": result.alert_counts},
        )

    def checks(self, outputs: dict[str, Any]) -> list[str]:
        failures = []
        records = len(TraceReader(self.path))
        counts = outputs["alert_counts"]
        if not all(0 < count <= records for count in counts.values()):
            failures.append(f"alert counts {counts} out of range for {records} records")
        if self.workers > 1:
            # The sharded run must reproduce the single-process tables.
            reference = execute(
                RunSpec(mode="tables", traffic=TrafficSpec(source="trace", path=self.path))
            )
            if _tables_digest(reference.tables) != outputs["tables_sha256"]:
                failures.append("sharded tables differ from the single-process tables")
        return failures

    # ------------------------------------------------------------------
    def traced_op(self, ledger_dir: str) -> Traced:
        """``read_frame`` + ``PaperExperiment.run_on_frame``, as ``execute()`` runs them.

        The detectors and the frame are proxies that log every
        ``alert_columns`` and ``frame.take`` call to a span file, from the
        parent or from the forked shard workers alike; the layers are cut
        out of the run along those span timestamps.
        """
        log = SpanLog(os.path.join(ledger_dir, f"spans-{time.perf_counter_ns()}.jsonl"))
        defaults = PaperExperiment()
        experiment = PaperExperiment(
            *(
                TimedProxy(d, ("alert_columns",), log, f"detectors.{d.name}")
                for d in (defaults.first_detector, defaults.second_detector)
            )
        )
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        frame = TraceReader(self.path).read_frame()
        analysed = time.perf_counter()
        result = experiment.run_on_frame(
            TimedProxy(frame, ("take",), log, "frame"), workers=self.workers
        )
        tables = {key: getattr(result, f"render_{key}")() for key in TABLE_KEYS}
        ended = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)

        # Group the spans into shards.  A shard starts at its frame.take()
        # in a worker -- or, unsharded, where run_on_frame starts -- and
        # owns the detector calls that follow it in the same process.
        current = {os.getpid(): {"start": analysed, "first": 0.0, "detect": 0.0}}
        shards = list(current.values())
        per_detector: dict[str, float] = {}
        last_detect_end = analysed
        for pid, key, begin, end in log.read():
            if key == "frame.take":
                current[pid] = {"start": end, "first": 0.0, "detect": 0.0}
                shards.append(current[pid])
                continue
            shard = current[pid]
            shard["first"] = shard["first"] or begin
            shard["detect"] += end - begin
            per_detector[key] = per_detector.get(key, 0.0) + end - begin
            last_detect_end = max(last_detect_end, end)
        shards = [shard for shard in shards if shard["first"]]
        for shard in shards:
            shard["sessionize"] = shard["first"] - shard["start"]
        slowest = max(shards, key=lambda s: s["sessionize"] + s["detect"])
        # Everything after the last detector call is analysis, except the
        # sharded executor's scatter-merge, which it times itself.
        decide = ended - last_detect_end - result.timings.get("merge", 0.0)

        ingest = analysed - started
        wall = ended - started
        detail = {
            "trace.read_frame_s": ingest,
            "trace.read_mb_per_s": os.path.getsize(self.path) / 1e6 / ingest,
            "core.analysis_s": decide,
            **{f"pipeline.{stage}_s": seconds for stage, seconds in result.timings.items()},
            **{f"{key.removesuffix('.alert_columns')}_s": s for key, s in per_detector.items()},
            **{f"detectors.{name}_alerts": n for name, n in result.alert_counts.items()},
        }
        if self.workers > 1:
            ips = frame.tables["client_ip"]
            per_ip = np.fromiter((shard_of(ip, self.workers) for ip in ips), np.int64, len(ips))
            rows = np.bincount(per_ip[frame.codes["client_ip"]], minlength=self.workers)
            detail.update({
                "shards.count": len(shards),
                "shards.row_skew": float(rows.max() / rows.mean()),
                "shards.worker_peak_rss_mb": after.ru_maxrss / 1024,
                "shards.worker_cpu_s": (after.ru_utime + after.ru_stime)
                - (before.ru_utime + before.ru_stime),
            })  # fmt: skip
        layers = _layers(
            wall,
            ingest=ingest,
            sessionize=slowest["sessionize"],
            detect=slowest["detect"],
            decide=decide,
        )
        outputs = {"tables_sha256": _tables_digest(tables), "alert_counts": result.alert_counts}
        return Traced(wall, layers, outputs, detail)


# ----------------------------------------------------------------------
# Stream replay
# ----------------------------------------------------------------------
def _online_engine(detectors) -> StreamEngine:
    """A single-shard engine with the stream mode's default adjudication."""
    spec = AdjudicationSpec()
    adjudicator = WindowedAdjudicator(
        [d.name for d in detectors], k=spec.k, mode=spec.mode, window_seconds=spec.window_seconds
    )
    return StreamEngine(detectors, adjudicator=adjudicator)


def _instrument_engine(engine: StreamEngine, ledger: Ledger) -> None:
    """Swap the engine's sessionizer, detectors and adjudicator for timing proxies."""
    engine.sessionizer = TimedProxy(
        engine.sessionizer, ("observe", "flush"), ledger, "stream.sessionizer"
    )
    engine.detectors = [
        TimedProxy(
            d, ("observe", "on_session_close", "finalize"), ledger, f"detectors.{d.name}"
        )
        for d in engine.detectors
    ]
    engine.adjudicator = TimedProxy(
        engine.adjudicator, ("observe", "to_result"), ledger, "stream.adjudicator"
    )


def _engine_detail(ledger: Ledger, detectors) -> dict[str, float]:
    detail: dict[str, float] = {}
    for d in detectors:
        prefix = f"detectors.{d.name}"
        detail[f"stream.detector.{d.name}.observe_s"] = ledger.seconds.get(f"{prefix}.observe", 0.0)
        detail[f"stream.detector.{d.name}.close_s"] = ledger.seconds.get(
            f"{prefix}.on_session_close", 0.0
        ) + ledger.seconds.get(f"{prefix}.finalize", 0.0)
        detail[f"stream.detector.{d.name}.close_calls"] = ledger.calls.get(
            f"{prefix}.on_session_close", 0
        )
    return detail


def _stalls(latencies: list[float]) -> tuple[int, float]:
    slow = [seconds for seconds in latencies if seconds > STALL_SECONDS]
    return len(slow), sum(slow)


def _stream_outputs(result) -> dict[str, Any]:
    return {
        "alert_counts": result.alert_counts(),
        "ensemble_alerts": result.stats.ensemble_alerts,
        "sessions_closed": result.stats.sessions_closed,
    }


class StreamReplay:
    """The trace replayed closed-loop, one record per ``process()`` call."""

    #: Share of the records that warms a throwaway engine before timing.
    WARM_SHARE = 8

    def __init__(self, trace_path: str, seed: int, sizes: Any) -> None:
        self.path = trace_path
        self.records = list(TraceReader(trace_path).iter_records())
        self.last = None

    def warm(self) -> None:
        engine = _online_engine(default_online_detectors())
        for record in self.records[: len(self.records) // self.WARM_SHARE]:
            engine.process(record)
        engine.finish()

    def _feed(self, engine: StreamEngine) -> list[float]:
        """Feed every record, closed loop; return each process() call's duration."""
        latencies: list[float] = []
        append_latency = latencies.append
        clock = time.perf_counter
        process = engine.process
        for record in self.records:
            begin = clock()
            process(record)
            append_latency(clock() - begin)
        return latencies

    def op(self) -> Op:
        engine = _online_engine(default_online_detectors())
        started = time.perf_counter()
        latencies = self._feed(engine)
        self.last = engine.finish()
        wall = time.perf_counter() - started
        return Op(len(self.records), wall, latencies, _stream_outputs(self.last))

    def checks(self, outputs: dict[str, Any]) -> list[str]:
        return _equivalence_failures(self.last.alert_sets, Dataset(self.records))

    def traced_op(self, ledger_dir: str) -> Traced:
        ledger = Ledger()
        with ledger.timed("ingest"):
            records = list(TraceReader(self.path).iter_records())
        if len(records) != len(self.records):
            raise RuntimeError("trace decoded to a different record count")
        detectors = default_online_detectors()
        engine = _online_engine(detectors)
        _instrument_engine(engine, ledger)
        started = time.perf_counter()
        latencies = self._feed(engine)
        fed = time.perf_counter() - started
        in_components = ledger.total("detectors.", "stream.")
        result = engine.finish()
        wall = time.perf_counter() - started
        layers = _layers(
            wall,
            sessionize=ledger.total("stream.sessionizer."),
            detect=ledger.total("detectors."),
            decide=ledger.total("stream.adjudicator."),
        )
        layers["ingest"] = ledger.seconds["ingest"]
        stall_records, stall_s = _stalls(latencies)
        process_s = sum(latencies)
        detail = {
            "trace.decode_s": ledger.seconds["ingest"],
            "stream.process_s": process_s,
            "stream.finish_s": wall - fed,
            # process() time spent outside the sessionizer, detectors and adjudicator.
            "stream.other_s": process_s - in_components,
            "stream.stall_records": stall_records,
            "stream.stall_s": stall_s,
            "stream.sessions": result.stats.sessions_closed,
            **_engine_detail(ledger, detectors),
        }
        return Traced(wall, layers, _stream_outputs(result), detail)


# ----------------------------------------------------------------------
# Closed-loop defend
# ----------------------------------------------------------------------
def _table5(report) -> dict[str, Any]:
    return {
        "total_requests": report.total_requests,
        "served_requests": report.served_requests,
        "denied_requests": report.denied_requests,
        "challenges_passed": report.challenges_passed,
        "challenges_failed": report.challenges_failed,
        "bytes_saved": report.bytes_saved,
        "attacker_attempted": report.attacker_attempted,
        "attacker_served": report.attacker_served,
        "attacker_yield": report.attacker_yield,
        "attacker_actors_blocked": report.attacker_actors_blocked,
        "median_time_to_first_block": report.median_time_to_first_block,
        "false_block_rate": report.false_block_rate,
        "human_lockout_rate": report.human_lockout_rate,
        "action_counts": dict(sorted(report.action_counts.items())),
    }


class DefendScripted:
    """The scripted scraping campaign against the enforcement gateway."""

    def __init__(self, trace_path: str, seed: int, sizes: Any) -> None:
        self.seed = seed
        self.requests = sizes.defend_requests
        self.last = None

    def _simulate(self, gateway, requests: int):
        population, window = defense_population(
            total_requests=requests, adaptive=False, seed=self.seed
        )
        simulator = ClosedLoopSimulator(population, window, gateway, seed=self.seed)
        started = time.perf_counter()
        result = simulator.run(dataset_name="defense_scripted")
        return time.perf_counter() - started, result

    def warm(self) -> None:
        self._simulate(build_gateway(), max(1_000, self.requests // 10))

    def op(self) -> Op:
        gateway = build_gateway()
        latencies = Durations()
        timer = TimedProxy(gateway, ("handle",), latencies, "gateway")
        wall, result = self._simulate(timer, self.requests)
        report = build_report(result, policy_name=gateway.policy.name)
        self.last = result
        outputs = {
            "table5": _table5(report),
            "alert_counts": result.stream_result.alert_counts(),
        }
        return Op(result.total_requests, wall, latencies, outputs)

    def checks(self, outputs: dict[str, Any]) -> list[str]:
        table5 = outputs["table5"]
        failures = []
        total = table5["total_requests"]
        if table5["served_requests"] + table5["denied_requests"] != total:
            failures.append("served + denied requests differ from attempted requests")
        if sum(table5["action_counts"].values()) != total:
            failures.append("enforcement actions do not cover every request")
        # Denied requests are still observed, so the gateway's detectors
        # must agree with a batch run over every attempted request.
        failures += _equivalence_failures(self.last.stream_result.alert_sets, self.last.dataset)
        return failures

    def traced_op(self, ledger_dir: str) -> Traced:
        ledger = Ledger()
        gateway = build_gateway()
        engine = gateway.engine
        detectors = list(engine.detectors)
        _instrument_engine(engine, ledger)
        gateway.engine = TimedProxy(engine, ("process",), ledger, "stream.engine")
        timed_gateway = TimedProxy(
            gateway, ("handle", "finish"), ledger, "mitigation"
        )
        wall, result = self._simulate(timed_gateway, self.requests)
        with ledger.timed("mitigation.report"):
            report = build_report(result, policy_name=gateway.policy.name)
        handle_s = ledger.seconds["mitigation.handle"]
        policy_s = handle_s - ledger.seconds["stream.engine.process"]
        stepping_s = wall - handle_s - ledger.seconds["mitigation.finish"]
        layers = _layers(
            wall,
            ingest=stepping_s,
            sessionize=ledger.total("stream.sessionizer."),
            detect=ledger.total("detectors."),
            decide=ledger.total("stream.adjudicator.") + policy_s,
        )
        table5 = _table5(report)
        detail = {
            "traffic.stepping_s": stepping_s,
            "mitigation.handle_s": handle_s,
            "mitigation.handle_share": handle_s / wall,
            "mitigation.policy_s": policy_s,
            "mitigation.finish_s": ledger.seconds["mitigation.finish"],
            "mitigation.report_s": ledger.seconds["mitigation.report"],
            "mitigation.denied_share": table5["denied_requests"] / table5["total_requests"],
            "stream.sessions": result.stream_result.stats.sessions_closed,
            **{f"mitigation.actions.{a}": n for a, n in table5["action_counts"].items()},
            **_engine_detail(ledger, detectors),
        }
        outputs = {"table5": table5, "alert_counts": result.stream_result.alert_counts()}
        return Traced(wall, layers, outputs, detail)


WORKLOADS = {
    "tables": lambda path, seed, sizes: Tables(path, seed, sizes, workers=1),
    "tables-sharded": lambda path, seed, sizes: Tables(
        path, seed, sizes, workers=SHARD_WORKERS
    ),
    "stream-replay": StreamReplay,
    "defend-scripted": DefendScripted,
}
