"""Experiment ``perf_prof``: overhead of the sampling profiler.

:mod:`repro.prof` claims low overhead: the stack sampler wakes on its
own thread at 97 Hz (the profiled workload pays nothing between ticks)
and the default memory capture reads the resident set only at span
boundaries and sampler ticks.  This module measures the claim at the
profiler benchmark scale (``REPRO_PROF_BENCH_SCALE``, default 0.1 --
about 144k requests, the ISSUE's acceptance bar):

* **tables overhead** -- the full paper experiment on the columnar
  engine under the default profile (sampling + memory capture) against
  the same instrumented run unprofiled; the acceptance ceiling is 10%;
* **precise-memory overhead** -- the same run with
  ``precise_memory=True`` (continuous tracemalloc).  Tracemalloc taxes
  every allocation, which costs several *hundred* percent on this
  allocation-heavy workload -- exactly why precision is opt-in rather
  than the default.  Recorded for the longitudinal artifact, not
  ceilinged;
* **no-op dispatch** -- the cost of the disabled path, i.e. what every
  unprofiled ``execute`` call pays for the ``profile=`` parameter.

Numbers land in ``BENCH_perf_prof.json`` via the shared conftest hook,
with the captured profile's own aggregates embedded alongside the
timings so a regression in sampler throughput is visible in the
artifact itself.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench.harness import BENCH_SEED, scenario_dataset
from repro.core.experiment import PaperExperiment
from repro.obs.metrics import MetricsRegistry
from repro.prof import Profile, ProfileOptions, Profiler

#: Scale of the profiler benchmarks (fraction of the paper's 1.47M requests).
PROF_SCALE = float(os.environ.get("REPRO_PROF_BENCH_SCALE", "0.1"))

#: Acceptance ceiling on default-profile overhead for the tables run.
OVERHEAD_CEILING = 0.10


def _best_of(callable_, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def prof_dataset():
    """The calibrated scenario at the profiler benchmark scale (memoised)."""
    return scenario_dataset(PROF_SCALE, BENCH_SEED)


def _timed_runs(dataset, options: ProfileOptions, rounds: int) -> tuple[float, float, Profile]:
    """Best-of times for the plain and profiled tables run."""
    experiment = PaperExperiment()
    profiles: list[Profile] = []

    def plain_run():
        experiment.run_on(dataset, registry=MetricsRegistry())

    def profiled_run():
        registry = MetricsRegistry()
        profiler = Profiler(registry, options)
        profiler.start()
        try:
            experiment.run_on(dataset, registry=registry)
        finally:
            profiles.append(profiler.stop())

    # One warm-up apiece so caches and allocators settle before timing.
    plain_run()
    profiled_run()
    # Interleave the timed rounds: machine-load drift (CI neighbours, GC,
    # page cache) then hits both variants alike instead of biasing
    # whichever ran last, which matters with a ceiling this tight.
    plain_seconds = profiled_seconds = float("inf")
    for _ in range(rounds):
        plain_seconds = min(plain_seconds, _best_of(plain_run, rounds=1))
        profiled_seconds = min(profiled_seconds, _best_of(profiled_run, rounds=1))
    return plain_seconds, profiled_seconds, profiles[-1]


def test_perf_tables_profiling_overhead(prof_dataset, record_bench):
    """The default profile must cost < 10% on the scale-0.1 tables run."""
    plain_seconds, profiled_seconds, profile = _timed_runs(
        prof_dataset, ProfileOptions(), rounds=4
    )
    overhead = profiled_seconds / plain_seconds - 1.0
    print(
        f"\n{len(prof_dataset):,} records: plain {plain_seconds:.3f}s, "
        f"profiled {profiled_seconds:.3f}s (overhead {overhead * 100:+.2f}%, "
        f"{profile.sample_count()} samples)"
    )
    record_bench(
        "perf_prof",
        "tables_overhead",
        scale=PROF_SCALE,
        records=len(prof_dataset),
        plain_seconds=plain_seconds,
        profiled_seconds=profiled_seconds,
        overhead_fraction=overhead,
        sample_count=profile.sample_count(),
        span_paths=len(profile.spans),
    )
    # The capture must be real, not an empty profiler that ran for free.
    assert profile.sample_count() > 0
    roots = {stat.path.split("/")[0] for stat in profile.spans}
    assert roots & {"sessionize", "features", "detectors"}
    assert any(stat.peak_bytes > 0 for stat in profile.spans)
    assert overhead < OVERHEAD_CEILING, (
        f"profiling overhead {overhead * 100:.1f}% exceeds the "
        f"{OVERHEAD_CEILING * 100:.0f}% ceiling on the tables run"
    )


def test_perf_precise_memory_overhead(prof_dataset, record_bench):
    """Record (not ceiling) what continuous tracemalloc actually costs."""
    plain_seconds, profiled_seconds, profile = _timed_runs(
        prof_dataset, ProfileOptions(precise_memory=True), rounds=1
    )
    overhead = profiled_seconds / plain_seconds - 1.0
    print(
        f"\nprecise memory: plain {plain_seconds:.3f}s, "
        f"profiled {profiled_seconds:.3f}s (overhead {overhead * 100:+.1f}%)"
    )
    record_bench(
        "perf_prof",
        "precise_memory_overhead",
        scale=PROF_SCALE,
        records=len(prof_dataset),
        plain_seconds=plain_seconds,
        profiled_seconds=profiled_seconds,
        overhead_fraction=overhead,
    )
    # Tracemalloc mode must still attribute exact traced bytes per span.
    assert any(stat.peak_bytes > 0 for stat in profile.spans)


def test_perf_disabled_profile_dispatch(record_bench):
    """The no-op path (``profile=None``) must add no measurable cost."""
    calls = 200_000

    def burn():
        for _ in range(calls):
            ProfileOptions.coerce(None)

    seconds_per_call = _best_of(burn, rounds=3) / calls
    print(f"\ndisabled profile coerce: {seconds_per_call * 1e9:.0f} ns/call")
    record_bench(
        "perf_prof",
        "noop_dispatch",
        calls=calls,
        seconds_per_call=seconds_per_call,
    )
    # One None check per execute() call; sub-microsecond even on a
    # loaded CI worker means unprofiled runs pay nothing observable.
    assert seconds_per_call < 2e-6
