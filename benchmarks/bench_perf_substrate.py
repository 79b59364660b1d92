"""Experiments ``perf_parser`` and ``perf_generator``: substrate throughput.

These benchmarks measure the two substrate components every experiment
depends on: combined-log-format parsing and synthetic traffic generation.
They are pure performance benchmarks (no paper table corresponds to them)
and exist so regressions in the substrate show up in the benchmark run.
"""

from __future__ import annotations

from repro.columns import sessionize_frame
from repro.logs.parser import LogParser
from repro.logs.writer import LogWriter
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small


def test_perf_parser_throughput(benchmark, bench_dataset):
    """Parse ~10k combined-log-format lines."""
    lines = LogWriter().to_lines(bench_dataset.records[:10_000])
    parser = LogParser()

    records = benchmark(parser.parse, lines)

    assert len(records) == len(lines)
    print(f"\nparsed {len(records):,} log lines per round")


def test_perf_writer_throughput(benchmark, bench_dataset):
    """Format ~10k records back into combined log format."""
    records = bench_dataset.records[:10_000]
    writer = LogWriter()

    lines = benchmark(writer.to_lines, records)

    assert len(lines) == len(records)


def test_perf_generator_throughput(benchmark):
    """Generate a ~6k-request scenario end to end."""
    scenario = balanced_small(total_requests=6_000, seed=99)

    dataset = benchmark.pedantic(generate_dataset, args=(scenario,), rounds=3, iterations=1)

    assert len(dataset) > 3_000
    print(f"\ngenerated {len(dataset):,} labelled requests per round")


def test_perf_sessionization_throughput(benchmark, bench_dataset, bench_frame):
    """Sessionize the benchmark frame."""
    sessions = benchmark(sessionize_frame, bench_frame[0])

    assert len(sessions) > 0
    print(f"\n{len(bench_dataset):,} requests -> {len(sessions):,} sessions per round")
