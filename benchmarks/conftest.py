"""Shared fixtures for the benchmark harness.

Every paper-table benchmark consumes the same memoised experiment run
(see :mod:`repro.bench.harness`), mirroring how the paper derives all four
tables from a single analysed week of traffic.  The benchmarked portion
of each module is the analysis step that produces the table; the
generation/detection cost is measured separately by the ``perf_*``
benchmarks.

Machine-readable results: any benchmark can take the ``record_bench``
fixture and call ``record_bench(group, name, **values)``; at session end
each group is written to ``BENCH_<group>.json`` in the working
directory, so CI jobs and tooling consume benchmark numbers without
scraping stdout.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench.harness import BENCH_SCALE, BENCH_SEED, experiment_result, scenario_dataset  # noqa: E402


@pytest.fixture(scope="session")
def bench_dataset():
    """The calibrated March-2018 data set at the benchmark scale."""
    return scenario_dataset(BENCH_SCALE, BENCH_SEED)


@pytest.fixture(scope="session")
def bench_frame(bench_dataset):
    """The benchmark data set's ``(frame, sessions, features)`` triple.

    Built once and shared, as :class:`~repro.detectors.pipeline.DetectionPipeline`
    shares it between detectors: a detector's ``alert_columns(*bench_frame)``
    is its own cost on top of the shared sessionization and features.
    """
    from repro.columns import FeatureMatrix, RecordFrame, sessionize_frame

    frame = RecordFrame.from_dataset(bench_dataset)
    sessions = sessionize_frame(frame)
    return frame, sessions, FeatureMatrix.from_frame(frame, sessions)


@pytest.fixture(scope="session")
def bench_experiment():
    """Both stand-in tools run over the benchmark data set."""
    return experiment_result(BENCH_SCALE, BENCH_SEED)


# ----------------------------------------------------------------------
# Machine-readable benchmark output (BENCH_<group>.json)
# ----------------------------------------------------------------------
_BENCH_RESULTS: dict[str, dict[str, dict]] = {}


@pytest.fixture(scope="session")
def record_bench():
    """Record one named measurement into a benchmark group.

    Usage: ``record_bench("trace", "replay_vs_regenerate", seconds=...,
    speedup=...)``.  Values must be JSON-serializable; the session hook
    below writes each group to ``BENCH_<group>.json``.  Pass
    ``metrics=<MetricsRegistry or snapshot dict>`` to embed the run's
    telemetry snapshot alongside the numbers.
    """

    def record(group: str, name: str, *, metrics=None, **values) -> None:
        if metrics is not None:
            # Accept either a MetricsRegistry or an already-exported
            # snapshot dict; the JSON file embeds the snapshot so tooling
            # (scripts/bench_summary.py) can lift throughput counters.
            to_dict = getattr(metrics, "to_dict", None)
            values["metrics"] = to_dict() if callable(to_dict) else metrics
        _BENCH_RESULTS.setdefault(group, {})[name] = values

    return record


def _store_bench_runs(store_path: str) -> None:
    """Land each benchmark group in a run store as a ``bench``-mode run.

    The pseudo-spec is the group's identity (group/scale/seed), so
    repeated benchmark sessions at the same scale append to one series
    and ``repro runs diff`` / ``scripts/bench_summary.py --store`` can
    track performance longitudinally.
    """
    from repro.runspec.result import RunResult
    from repro.runstore import RunStore

    with RunStore(store_path) as store:
        for group, results in _BENCH_RESULTS.items():
            metrics: dict[str, float] = {}
            telemetry = None
            for name, values in results.items():
                for key, value in values.items():
                    if key == "metrics":
                        telemetry = value
                    elif isinstance(value, (int, float)) and not isinstance(value, bool):
                        metrics[f"{name}.{key}"] = value
            result = RunResult(
                mode="bench",
                source=group,
                total_requests=0,
                metrics=metrics,
                telemetry=telemetry,
                spec={"bench_group": group, "scale": BENCH_SCALE, "seed": BENCH_SEED},
            )
            store.record(result)


def pytest_sessionfinish(session, exitstatus):
    for group, results in _BENCH_RESULTS.items():
        payload = {
            "group": group,
            "scale": BENCH_SCALE,
            "seed": BENCH_SEED,
            "results": results,
        }
        with open(f"BENCH_{group}.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    store_path = os.environ.get("REPRO_RUN_STORE")
    if store_path and _BENCH_RESULTS:
        _store_bench_runs(store_path)
