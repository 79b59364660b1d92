"""Experiment ``perf_trace``: trace replay vs regeneration, out-of-core cost.

The point of :mod:`repro.trace` is that traffic should be *generated
once and replayed many times*.  This module measures the four claims
behind that design, at the scale named by the trace subsystem's issue
(``REPRO_TRACE_BENCH_SCALE``, default 0.1 -- about 144k requests):

* **replay vs regenerate** -- materialising a data set from its trace
  must beat re-running the traffic simulation outright;
* **warm generation cache** -- ``TrafficSpec(cache=True)`` end to end:
  the cold run generates and records, warm runs replay (from disk in a
  new process, from the in-process LRU within one), so the dataset
  materialisation step must collapse on a warm cache;
* **out-of-core iteration** -- streaming a trace block by block must
  keep peak memory far below materialising the whole data set;
* **O(1) info** -- the footer summary must cost milliseconds regardless
  of trace size.

All numbers land in ``BENCH_trace.json`` via the shared conftest hook.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import pytest

from repro.bench.harness import BENCH_SEED, scenario_dataset
from repro.runspec import RunSpec, TrafficSpec, build_dataset, execute
from repro.trace import TraceReader, read_trace, trace_info, traffic_fingerprint, write_trace
from repro.trace.cache import CACHE_DIR_ENV, GenerationCache

#: Scale of the trace benchmarks (fraction of the paper's 1.47M requests).
TRACE_SCALE = float(os.environ.get("REPRO_TRACE_BENCH_SCALE", "0.1"))


def _best_of(callable_, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def trace_dataset():
    """The calibrated scenario at the trace benchmark scale (memoised)."""
    return scenario_dataset(TRACE_SCALE, BENCH_SEED)


@pytest.fixture(scope="module")
def recorded_trace(trace_dataset, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("trace-bench") / "bench.trace")
    write_trace(trace_dataset, path)
    return path


def test_perf_trace_replay_vs_regenerate(trace_dataset, recorded_trace, record_bench):
    """Replaying a recorded trace must clearly beat regenerating."""
    generate_seconds = _best_of(
        lambda: build_dataset(
            TrafficSpec(scenario="amadeus_march_2018", scale=TRACE_SCALE, seed=BENCH_SEED)
        ),
        rounds=2,
    )
    replay_seconds = _best_of(lambda: read_trace(recorded_trace))
    speedup = generate_seconds / replay_seconds
    size = os.path.getsize(recorded_trace)
    print(
        f"\n{len(trace_dataset):,} records: generate {generate_seconds:.2f}s, "
        f"trace replay {replay_seconds:.2f}s (x{speedup:.1f}), "
        f"{size / len(trace_dataset):.1f} bytes/record on disk"
    )
    record_bench(
        "trace",
        "replay_vs_regenerate",
        records=len(trace_dataset),
        trace_scale=TRACE_SCALE,
        generate_seconds=generate_seconds,
        replay_seconds=replay_seconds,
        speedup=speedup,
        trace_bytes=size,
    )
    # Measured ~4-5x on a development host; 2x leaves margin for slow CI.
    assert speedup >= 2.0, (
        "trace replay should be at least 2x faster than regeneration "
        f"(got {speedup:.2f}x: generate {generate_seconds:.2f}s vs replay {replay_seconds:.2f}s)"
    )


def test_perf_trace_warm_generation_cache(record_bench, tmp_path, monkeypatch):
    """End-to-end ``cache=True`` runs: cold records, warm replays."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    traffic = TrafficSpec(
        scenario="amadeus_march_2018", scale=TRACE_SCALE, seed=BENCH_SEED, cache=True
    )
    spec = RunSpec(mode="tables", traffic=traffic, label="bench-trace-cache")

    # Cold: cache miss, generate and record.
    cold_materialize = _best_of(lambda: build_dataset(traffic), rounds=1)

    # Warm from disk: a fresh cache object stands in for a new process,
    # with its in-process memo dropped before every round.
    fingerprint = traffic_fingerprint(
        scenario="amadeus_march_2018", scale=TRACE_SCALE, seed=BENCH_SEED
    )
    fresh = GenerationCache(str(tmp_path / "cache"))

    def load_from_disk() -> None:
        fresh.clear_memory()
        assert fresh.load(fingerprint) is not None

    disk_materialize = _best_of(load_from_disk)

    # Warm in process: the LRU hit a sweep's later specs see.
    warm_materialize = _best_of(lambda: build_dataset(traffic))

    warm_tables = _best_of(lambda: execute(spec), rounds=1)  # replay + detect
    disk_speedup = cold_materialize / disk_materialize
    warm_speedup = cold_materialize / max(warm_materialize, 1e-9)
    print(
        f"\nmaterialisation: cold (generate+record) {cold_materialize:.2f}s, "
        f"warm from disk {disk_materialize:.2f}s (x{disk_speedup:.1f}), "
        f"warm in process {warm_materialize * 1e3:.2f}ms (x{warm_speedup:,.0f}); "
        f"warm end-to-end tables run {warm_tables:.2f}s"
    )
    record_bench(
        "trace",
        "warm_generation_cache",
        cold_materialize_seconds=cold_materialize,
        disk_materialize_seconds=disk_materialize,
        memo_materialize_seconds=warm_materialize,
        disk_speedup=disk_speedup,
        memo_speedup=warm_speedup,
        warm_tables_run_seconds=warm_tables,
    )
    # A warm cache makes materialisation at least 5x cheaper than the cold
    # generate-and-record path, from disk alone (a disk hit maps the trace
    # into a frame and builds no record).
    assert disk_speedup >= 5.0, (
        "a disk hit should be >=5x faster than cold materialisation "
        f"(disk x{disk_speedup:.2f}, memo x{warm_speedup:.2f})"
    )
    assert warm_materialize < disk_materialize < cold_materialize


def test_perf_trace_out_of_core_iteration(trace_dataset, recorded_trace, record_bench):
    """Block-by-block replay keeps peak memory bounded by the block size."""
    reader = TraceReader(recorded_trace)

    tracemalloc.start()
    count = 0
    for _record in reader.iter_records():
        count += 1
    _, streaming_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    dataset = read_trace(recorded_trace)
    _, materialised_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    started = time.perf_counter()
    for _record in reader.iter_records():
        pass
    throughput = count / (time.perf_counter() - started)

    assert count == len(trace_dataset) == len(dataset)
    ratio = materialised_peak / streaming_peak
    print(
        f"\nout-of-core: {count:,} records at {throughput:,.0f} records/sec; "
        f"peak memory streaming {streaming_peak / 1e6:.1f} MB vs "
        f"materialised {materialised_peak / 1e6:.1f} MB (x{ratio:.1f})"
    )
    record_bench(
        "trace",
        "out_of_core_iteration",
        records=count,
        records_per_second=throughput,
        streaming_peak_bytes=streaming_peak,
        materialised_peak_bytes=materialised_peak,
        peak_ratio=ratio,
    )
    # The streaming floor is the trace-global string tables (shared by
    # every block); record storage itself stays one block deep, so the
    # ratio keeps growing with trace size.  3x holds at the 0.1 scale.
    assert streaming_peak * 3 < materialised_peak, (
        "streaming a trace should need a small fraction of the memory of "
        "materialising it "
        f"({streaming_peak / 1e6:.1f} MB vs {materialised_peak / 1e6:.1f} MB)"
    )


def test_perf_trace_info_is_constant_time(recorded_trace, record_bench):
    """The footer summary never touches the blocks."""
    info_seconds = _best_of(lambda: trace_info(recorded_trace), rounds=5)
    info = trace_info(recorded_trace)
    print(
        f"\ntrace info on {info.records:,} records "
        f"({info.file_size / 1e6:.1f} MB): {info_seconds * 1e3:.2f}ms"
    )
    record_bench(
        "trace",
        "info_o1",
        records=info.records,
        file_size=info.file_size,
        info_seconds=info_seconds,
    )
    assert info_seconds < 0.05, f"trace info took {info_seconds:.3f}s; the footer should be O(1)"
