"""One fresh benchmark process: a set-up, or one measured workload run.

Run by :mod:`harness` in a subprocess, never by hand::

    python child.py setup --seed N --scale X --out trace.bin
    python child.py measure --workload W --trace-path trace.bin --seed N \
        --seconds S --traced 0|1 --sizes full|quick --workdir DIR

Each prints one JSON object on its last line of standard output.  A
fresh process per run keeps one run's heap, caches and peak resident
set out of the next, and keeps the set-up's peak memory out of the
measured run's.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from types import SimpleNamespace
from typing import Any

from repro.runspec import TrafficSpec
from repro.runspec.execute import build_dataset
from repro.trace.store import write_trace

import workloads
from harness import SCENARIO, SIZES

#: Operations per run at least, however long they take: each record's
#: latency is the fastest of its repeats (see :func:`measure`).
MIN_REPEATS = 3

#: Share of ``--seconds`` a traced run adds for its traced operations.
TRACED_SHARE = 0.25


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # Linux reports KiB


def _keep_going(started: float, ops: int, seconds: float, min_ops: int) -> bool:
    """Start another operation only if it should end near the deadline."""
    elapsed = time.perf_counter() - started
    return ops < min_ops or elapsed + 0.5 * elapsed / ops < seconds


def setup(args: argparse.Namespace) -> dict[str, Any]:
    started = time.perf_counter()
    dataset = build_dataset(TrafficSpec(scenario=SCENARIO, scale=args.scale, seed=args.seed))
    generated = time.perf_counter()
    info = write_trace(dataset, args.out)
    written = time.perf_counter()
    return {
        "generate_s": generated - started,
        "write_s": written - generated,
        "records": info.records,
        "bytes": info.file_size,
    }


def measure(args: argparse.Namespace) -> dict[str, Any]:
    workload = workloads.WORKLOADS[args.workload](
        args.trace_path, args.seed, SimpleNamespace(**SIZES[args.sizes])
    )
    workload.warm()
    ops: list[workloads.Op] = []
    cpu: list[float] = []
    started = time.perf_counter()
    while _keep_going(started, len(ops), args.seconds, MIN_REPEATS):
        before = _cpu_seconds()
        ops.append(workload.op())
        cpu.append(_cpu_seconds() - before)
    peak_rss_mb = _peak_rss_mb()
    # A traced run then spends a share of the measured time more on traced
    # operations, at least one.
    traced: list[workloads.Traced] = []
    started = time.perf_counter()
    while args.traced and _keep_going(started, len(traced), TRACED_SHARE * args.seconds, 1):
        traced.append(workload.traced_op(args.workdir))

    failures = []
    outputs = ops[0].outputs
    for index, op in enumerate(ops[1:], start=1):
        if op.outputs != outputs:
            failures.append(f"repeat {index} outputs differ from repeat 0")
    for index, run in enumerate(traced):
        if run.outputs != outputs:
            failures.append(f"traced run {index} outputs differ from the untraced run")
    failures += workload.checks(outputs)

    # Every repeat does identical work on identical input, so each record's
    # verdict latency is taken as the fastest of its repeats: the program's
    # own cost, with bursts of interference from other tenants of the
    # machine filtered out.  A batch run's verdicts all come out when the
    # run ends, so there every record's latency is the run's wall time.
    if ops[0].latencies:
        if len({len(op.latencies) for op in ops}) != 1:
            raise RuntimeError("repeats timed different numbers of verdicts")
        latencies = sorted(map(min, zip(*(op.latencies for op in ops))))
    else:
        latencies = [min(op.wall for op in ops)] * ops[0].records
    result: dict[str, Any] = {
        "ops": len(ops),
        "records": ops[0].records,
        "wall_s": min(op.wall for op in ops),
        "cpu_s": min(cpu),
        "peak_rss_mb": peak_rss_mb,
        "latency_s": {
            "p50": percentile(latencies, 0.50),
            "p99": percentile(latencies, 0.99),
            "p999": percentile(latencies, 0.999),
            "samples": len(latencies),
        },
        "outputs": outputs,
        # Repeats, traced runs and the workload's own checks.
        "checks": len(ops) - 1 + len(traced) + 1,
        "failures": failures,
    }
    if traced:
        result["traced"] = {
            "walls": [run.wall for run in traced],
            "layers": _medians([run.layers for run in traced]),
            "detail": _medians([run.detail for run in traced]),
        }
    return result


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    setup_parser = commands.add_parser("setup")
    setup_parser.add_argument("--seed", type=int, required=True)
    setup_parser.add_argument("--scale", type=float, required=True)
    setup_parser.add_argument("--out", required=True)
    measure_parser = commands.add_parser("measure")
    measure_parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    measure_parser.add_argument("--trace-path", required=True)
    measure_parser.add_argument("--seed", type=int, required=True)
    measure_parser.add_argument("--seconds", type=float, required=True)
    measure_parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    measure_parser.add_argument("--sizes", choices=sorted(SIZES), required=True)
    measure_parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    result = setup(args) if args.command == "setup" else measure(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
