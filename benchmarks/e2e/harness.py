"""Parent-side plumbing: set-up, fresh measured processes, metrics, checks.

The parent never imports the program.  It runs :mod:`child` in fresh
subprocesses -- several set-ups, then one measured run per call to
:func:`single_run` -- and turns their JSON reports into the metrics
``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

SCENARIO = "amadeus_march_2018"

#: Input sizes, set-ups per run (``setup_s`` is their median) and the
#: suite's untraced runs per workload: the benchmark's, and the smoke
#: test's tiny ones.  Scale 0.05 of the paper's week is ~72k requests; it
#: keeps one set-up near 2.5 s so a run with three set-ups fits the
#: benchmark's time cap.
SIZES = {
    "full": {"scale": 0.05, "defend_requests": 45_000, "setup_repeats": 3, "runs": 3},
    "quick": {"scale": 0.005, "defend_requests": 3_000, "setup_repeats": 1, "runs": 1},
}

#: No single child may outlive this (a hung run fails instead of hanging).
CHILD_TIMEOUT_S = 170


def benchmark_spec() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


@contextmanager
def workdir() -> Iterator[str]:
    """A private scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".e2e-work" / f"run-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _child(*args: str) -> dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"child {args[0]} exited with {completed.returncode}:\n{completed.stderr[-4000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def setup(seed: int, sizes: str, directory: str) -> dict[str, Any]:
    """Generate the traffic and write its trace, ``setup_repeats`` times."""
    trace = os.path.join(directory, "traffic.trace")
    samples = [
        _child(
            "setup", "--seed", str(seed), "--scale", str(SIZES[sizes]["scale"]), "--out", trace
        )
        for _ in range(SIZES[sizes]["setup_repeats"])
    ]
    return {
        "trace": trace,
        "samples": samples,
        "setup_s": statistics.median(s["generate_s"] + s["write_s"] for s in samples),
        "generate_s": statistics.median(s["generate_s"] for s in samples),
        "write_s": statistics.median(s["write_s"] for s in samples),
        "bytes": samples[0]["bytes"],
        "records": samples[0]["records"],
    }


def single_run(
    workload: str, seed: int, seconds: float, traced: bool, sizes: str
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One run: the set-ups, then ``workload`` in a fresh process.

    Returns the set-up summary and the measured run's report.
    """
    with workdir() as directory:
        prepared = setup(seed, sizes, directory)
        run = _child(
            "measure",
            "--workload", workload,
            "--trace-path", prepared["trace"],
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--traced", "1" if traced else "0",
            "--sizes", sizes,
            "--workdir", directory,
        )  # fmt: skip
    return prepared, run


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(prepared: dict[str, Any], run: dict[str, Any]) -> dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    latency = run["latency_s"]
    return {
        "setup_s": prepared["setup_s"],
        "records_per_s": run["records"] / run["wall_s"],
        "cpu_us_per_record": 1e6 * run["cpu_s"] / run["records"],
        "peak_rss_mb": run["peak_rss_mb"],
        "verdict_p50_us": 1e6 * latency["p50"],
        "verdict_p999_us": 1e6 * latency["p999"],
    }


def per_layer(prepared: dict[str, Any], run: dict[str, Any]) -> dict[str, float]:
    """The per-layer metrics of one traced run."""
    traced = run["traced"]
    layers = traced["layers"]
    untraced = run["wall_s"]
    return {
        "traffic.generate_s": prepared["generate_s"],
        "trace.write_s": prepared["write_s"],
        "trace.mb": prepared["bytes"] / 1e6,
        "ingest_s": layers["ingest"],
        "sessionize_s": layers["sessionize"],
        "detect_s": layers["detect"],
        "decide_s": layers["decide"],
        "unattributed_s": layers["unattributed"],
        "alerts": sum(run["outputs"]["alert_counts"].values()),
        "trace_overhead_pct": 100 * (min(traced["walls"]) / untraced - 1),
        # Demoted from the end-to-end set: see README.md, "Calibration".
        "verdict_p99_us": 1e6 * run["latency_s"]["p99"],
    }


def golden_failures(
    workload: str, outputs: dict[str, Any], seed: int, sizes: str
) -> list[str] | None:
    """Compare against ``golden.json``; ``None`` when it holds no outputs for this run."""
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        golden = json.load(handle)
    if seed != golden["seed"] or sizes != golden["sizes"]:
        return None
    if workload.startswith("tables"):
        expected, actual = golden["tables_sha256"], outputs["tables_sha256"]
    elif workload == "stream-replay":
        expected, actual = golden["stream"], outputs
    else:
        expected, actual = golden["defend_table5"], outputs["table5"]
    if expected != actual:
        return [f"{workload} outputs differ from golden.json (seed {seed})"]
    return []


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def render(metrics: dict[str, float], units: dict[str, str], indent: str = "  ") -> str:
    return "\n".join(
        f"{indent}{name:<28} {value:>14.6g} {units.get(name, '')}"
        for name, value in metrics.items()
    )
