"""End-to-end benchmark of the scraping-detection system, layer by layer.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload tables --seed 7 --seconds 10 --trace 0

sets up the traffic three times in fresh processes, measures the
workload for ``--seconds`` in a fresh process, checks its outputs, and
prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``), ending with one JSON line.

The whole suite::

    python3 benchmarks/e2e/run.py --seed 2018 [--quick] [--out DIR]

runs every workload three times untraced and once traced, each time as a
whole single run (set-ups included), checks outputs across all of them,
prints every metric by name and unit, and writes a results JSON to
``--out`` for ``compare.py``.  ``--quick`` uses the smoke test's tiny
inputs and one untraced run.  Both forms exit non-zero when an output
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any

import harness


def _summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = harness.quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _golden(workload: str, outputs: dict[str, Any], seed: int, sizes: str) -> tuple[int, list[str]]:
    failures = harness.golden_failures(workload, outputs, seed, sizes)
    return (0, []) if failures is None else (1, failures)


def one_run(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    prepared, run = harness.single_run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.sizes
    )
    golden_checks, golden_failures = _golden(args.workload, run["outputs"], args.seed, args.sizes)
    failures = run["failures"] + golden_failures
    if args.trace:
        declared, values = spec["per_layer"], harness.per_layer(prepared, run)
    else:
        declared, values = spec["end_to_end"], harness.end_to_end(prepared, run)
    units = {metric["name"]: metric["unit"] for metric in declared}
    metrics = {name: values[name] for name in units}

    print(f"{args.workload} seed={args.seed} ops={run['ops']} "
          f"verdict samples={run['latency_s']['samples']}")
    print(harness.render(metrics, units))
    if args.trace:
        print(harness.render(run["traced"]["detail"], {}, indent="  detail "))
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": run["ops"] + run["checks"] + golden_checks,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))  # fmt: skip
    return 0 if not failures else 1


def suite(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    started = time.perf_counter()
    end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    repeats = harness.SIZES[args.sizes]["runs"]
    report: dict[str, Any] = {
        "seed": args.seed,
        "sizes": args.sizes,
        "seconds": args.seconds,
        "repeats": repeats,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {},
    }  # fmt: skip
    attempted = failed = 0
    names = [w["name"] for w in spec["workloads"]]
    # Each run is a whole single run, set-ups included, so that every
    # end-to-end metric (set-up time too) gets one sample per run.  The
    # workloads take turns, so a slow spell of the machine or a workload's
    # after-effects on the next one spread over all of them instead of
    # landing on one workload's repeats.
    rounds = [
        {name: harness.single_run(name, args.seed, args.seconds, False, args.sizes)
         for name in names}
        for _ in range(repeats)
    ]  # fmt: skip
    for workload in names:
        runs = [done[workload] for done in rounds]
        traced_setup, traced = harness.single_run(
            workload, args.seed, args.seconds, True, args.sizes
        )
        measured = [run for _, run in runs] + [traced]
        failures = [f for run in measured for f in run["failures"]]
        checks = sum(run["ops"] + run["checks"] for run in measured)
        # Every fresh run of the same seed gives the same outputs.
        for index, run in enumerate(measured[1:], start=1):
            checks += 1
            if run["outputs"] != measured[0]["outputs"]:
                failures.append(f"run {index} outputs differ from run 0")
        golden_checks, golden_failures = _golden(
            workload, measured[0]["outputs"], args.seed, args.sizes
        )
        checks += golden_checks
        failures += golden_failures
        report["workloads"][workload] = {
            "runs": [harness.end_to_end(prepared, run) for prepared, run in runs],
            "setups": [prepared["samples"] for prepared, _ in runs],
            "traced": harness.per_layer(traced_setup, traced),
            "detail": traced["traced"]["detail"],
            "verdict_samples": [run["latency_s"]["samples"] for _, run in runs],
            "outputs": measured[0]["outputs"],
            "attempted": checks,
            "failures": failures,
        }
        print(f"{workload}: {len(measured)} runs, {len(failures)} failed checks", flush=True)
        attempted += checks
        failed += len(failures)

    for workload, entry in report["workloads"].items():
        entry["error_rate"] = len(entry["failures"]) / entry["attempted"]
        entry["summary"] = {
            name: {**_summary([run[name] for run in entry["runs"]]), "unit": unit}
            for name, unit in end_units.items()
        }
        print(f"\n{workload}  (median [q1, q3] of {repeats} fresh runs)")
        for name, row in entry["summary"].items():
            print(f"  {name:<28} {row['median']:>14.6g} [{row['q1']:.6g}, {row['q3']:.6g}] "
                  f"{row['unit']}")  # fmt: skip
        print(f"  {'error_rate':<28} {entry['error_rate']:>14.6g} failed/attempted")
        print("  traced run:")
        print(harness.render(entry["traced"], layer_units, indent="    "))
        print(harness.render(entry["detail"], {}, indent="    detail "))
        for failure in entry["failures"]:
            print(f"  CHECK FAILED: {failure}", file=sys.stderr)

    report["wall_s"] = time.perf_counter() - started
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(
        args.out, f"e2e-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(f"\nwall {report['wall_s']:.1f} s; results in {path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "results": path}))  # fmt: skip
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload (the BENCHMARK.json form)")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true", help="tiny inputs (the smoke test's)")
    parser.add_argument("--out", default=str(harness.ROOT / ".e2e-results"),
                        help="suite: directory for the results JSON")  # fmt: skip
    args = parser.parse_args(argv)
    if not harness.program_present():
        print(f"no program to benchmark: {harness.SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = harness.benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    args.sizes = "quick" if args.quick else "full"
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])
    return one_run(args, spec) if args.workload else suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
