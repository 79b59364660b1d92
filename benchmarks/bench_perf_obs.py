"""Experiment ``perf_obs``: instrumentation overhead of the metrics layer.

:mod:`repro.obs` claims near-zero overhead: every hot path gates on
``registry.enabled``, so an uninstrumented run pays a handful of
attribute checks and an instrumented run pays dict lookups and integer
adds on batch boundaries only.  This module measures both claims at the
obs benchmark scale (``REPRO_OBS_BENCH_SCALE``, default 0.1 -- about
144k requests, the ISSUE's acceptance bar):

* **tables overhead** -- the full paper experiment
  (``PaperExperiment.run_on`` on the columnar engine) with a live
  ``MetricsRegistry`` against the same run with none; the acceptance
  ceiling is 5% overhead;
* **null-registry dispatch** -- the per-call cost of the disabled
  instrument path, which is what uninstrumented library code pays.

All numbers land in ``BENCH_perf_obs.json`` via the shared conftest
hook; the instrumented run's telemetry snapshot is embedded alongside
the timings (``record_bench(..., metrics=...)``) so downstream tooling
can read throughput counters straight out of the benchmark artifact.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench.harness import BENCH_SEED, scenario_dataset
from repro.core.experiment import PaperExperiment
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

#: Scale of the obs benchmarks (fraction of the paper's 1.47M requests).
OBS_SCALE = float(os.environ.get("REPRO_OBS_BENCH_SCALE", "0.1"))

#: Acceptance ceiling on instrumentation overhead for the tables run.
OVERHEAD_CEILING = 0.05


def _best_of(callable_, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def obs_dataset():
    """The calibrated scenario at the obs benchmark scale (memoised)."""
    return scenario_dataset(OBS_SCALE, BENCH_SEED)


def test_perf_tables_instrumentation_overhead(obs_dataset, record_bench):
    """A live registry must cost < 5% on the scale-0.1 tables run."""
    experiment = PaperExperiment()
    registries: list[MetricsRegistry] = []

    def plain_run():
        experiment.run_on(obs_dataset)

    def instrumented_run():
        registry = MetricsRegistry()
        experiment.run_on(obs_dataset, registry=registry)
        registries.append(registry)

    # One warm-up apiece so caches and allocators settle before timing.
    plain_run()
    instrumented_run()
    plain_seconds = _best_of(plain_run, rounds=3)
    instrumented_seconds = _best_of(instrumented_run, rounds=3)
    overhead = instrumented_seconds / plain_seconds - 1.0
    print(
        f"\n{len(obs_dataset):,} records: plain {plain_seconds:.3f}s, "
        f"instrumented {instrumented_seconds:.3f}s "
        f"(overhead {overhead * 100:+.2f}%)"
    )
    record_bench(
        "perf_obs",
        "tables_overhead",
        scale=OBS_SCALE,
        records=len(obs_dataset),
        plain_seconds=plain_seconds,
        instrumented_seconds=instrumented_seconds,
        overhead_fraction=overhead,
        metrics=registries[-1],
    )
    assert overhead < OVERHEAD_CEILING, (
        f"instrumentation overhead {overhead * 100:.1f}% exceeds the "
        f"{OVERHEAD_CEILING * 100:.0f}% ceiling on the tables run"
    )


def test_perf_null_registry_dispatch(record_bench):
    """The disabled path must stay in the tens-of-nanoseconds regime."""
    counter = NULL_REGISTRY.counter("repro_bench_noop_total")
    calls = 200_000

    def burn():
        for _ in range(calls):
            counter.inc()

    seconds_per_call = _best_of(burn, rounds=3) / calls
    print(f"\nnull-registry inc: {seconds_per_call * 1e9:.0f} ns/call")
    record_bench(
        "perf_obs",
        "null_dispatch",
        calls=calls,
        seconds_per_call=seconds_per_call,
    )
    # Generous ceiling: a no-op method call should never approach the
    # microsecond range, even on a loaded CI worker.
    assert seconds_per_call < 2e-5
