"""Experiment ``perf_analysis``: the frame-native analysis slice, absolutely bounded.

The frame-native tables pipeline claims the *analysis* slice of a run --
Tables 1-4, the pairwise diversity metrics and the labelled evaluations
-- is a handful of ``np.bincount`` / ``np.count_nonzero`` kernels over
the :class:`~repro.columns.frame.RecordFrame`, that the Section-V
configuration comparison reuses the experiment's alert columns, and that
a trace-backed ``tables`` run therefore fits in bounded memory: the
columnar frame is the *only* copy of the data, no
:class:`~repro.logs.dataset.Dataset` and no per-record objects exist at
any point.

Three measurements, all at the analysis benchmark scale
(``REPRO_ANALYSIS_BENCH_SCALE``, default 0.1 -- about 144k requests):

* **analysis slice** -- every post-detection analysis of
  ``PaperExperiment`` (status tables, exclusive status tables, pairwise
  diversity incl. double fault, per-tool and adjudicated confusion
  evaluations), best of 3; bounded at 0.25 s;
* **configuration comparison** -- ``compare_configurations`` over the
  experiment's frame and matrix (two flag-column outcomes, four serial
  re-judgements of the forwarded rows), best of 3; bounded at 3 s;
* **bounded-memory streamed run** -- a full tables experiment on a
  frame streamed straight out of a trace file must peak well below the
  same experiment run from a materialised :class:`Dataset` (every record
  object, plus the frame built from them), proving a trace-backed run
  never pays for the record objects.

The bounds are absolute: the slice and the comparison are the
repository's only implementations, so there is no second path to race.
All numbers land in ``BENCH_perf_analysis.json`` via the shared conftest
hook, and every bound is asserted so a regression fails the job loudly.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import pytest

from repro.bench.harness import BENCH_SEED, scenario_dataset
from repro.columns import RecordFrame
from repro.core.configurations import compare_configurations
from repro.core.diversity import diversity_breakdown
from repro.core.experiment import PaperExperiment
from repro.core.framestats import (
    evaluate_ensemble_from_frame,
    evaluate_matrix_from_frame,
    pairwise_diversity_from_frame,
    status_tables_from_frame,
)
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.pipeline import DetectionPipeline
from repro.trace import TraceReader, read_trace, write_trace

#: Scale of the analysis benchmarks (fraction of the paper's 1.47M requests).
ANALYSIS_SCALE = float(os.environ.get("REPRO_ANALYSIS_BENCH_SCALE", "0.1"))

#: Wall-time bound (seconds) of the analysis slice at the default scale.
ANALYSIS_SLICE_BOUND_S = 0.25

#: Wall-time bound (seconds) of the configuration comparison at the default scale.
CONFIGURATIONS_BOUND_S = 3.0


def _best_of(callable_, rounds: int = 3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - started)
    return best, result


def _detectors():
    return [CommercialBotDefenceDetector(), InHouseHeuristicDetector()]


@pytest.fixture(scope="module")
def analysis_dataset():
    """The calibrated scenario at the analysis benchmark scale (memoised)."""
    return scenario_dataset(ANALYSIS_SCALE, BENCH_SEED)


@pytest.fixture(scope="module")
def analysis_run(analysis_dataset):
    """``(frame, matrix, detectors)`` -- detection done once, analysis timed below."""
    frame = RecordFrame.from_dataset(analysis_dataset)
    detectors = _detectors()
    result = DetectionPipeline(detectors).run_frame(frame)
    return frame, result.matrix, detectors


def test_perf_analysis_slice(analysis_run, record_bench):
    """The post-detection analysis slice stays within its absolute bound."""
    frame, matrix, detectors = analysis_run
    first, second = (detector.name for detector in detectors)

    def analysis_slice():
        breakdown = diversity_breakdown(matrix, first, second)
        status, exclusive = status_tables_from_frame(frame, matrix, (first, second))
        metrics = pairwise_diversity_from_frame(frame, matrix, first, second)
        tools = evaluate_matrix_from_frame(frame, matrix)
        schemes = evaluate_ensemble_from_frame(frame, matrix)
        return breakdown, status, exclusive, metrics, tools, schemes

    seconds, (breakdown, status, _exclusive, metrics, tools, schemes) = _best_of(analysis_slice)
    assert breakdown.total == len(frame)
    assert status[first].total() == breakdown.first_total
    assert metrics.double_fault is not None
    assert len(tools) == 2 and len(schemes) == 2

    print(f"\n{len(frame):,} records: analysis slice {seconds:.3f}s")
    record_bench(
        "perf_analysis",
        "analysis_slice",
        scale=ANALYSIS_SCALE,
        records=len(frame),
        seconds=seconds,
        bound_seconds=ANALYSIS_SLICE_BOUND_S,
    )
    assert seconds <= ANALYSIS_SLICE_BOUND_S, (
        f"frame-kernel analysis regressed: {seconds:.3f}s > {ANALYSIS_SLICE_BOUND_S}s"
    )


def test_perf_configuration_comparison(analysis_run, record_bench):
    """The six deployment configurations stay within their absolute bound."""
    frame, matrix, (first, second) = analysis_run

    seconds, comparison = _best_of(
        lambda: compare_configurations(frame, matrix, first, second)
    )
    assert len(comparison.outcomes) == 6
    parallel = comparison.by_name("parallel-1oo2")
    assert parallel.alert_count == int((matrix.column(first.name) | matrix.column(second.name)).sum())

    print(f"\n{len(frame):,} records: configuration comparison {seconds:.3f}s")
    record_bench(
        "perf_analysis",
        "configuration_comparison",
        scale=ANALYSIS_SCALE,
        records=len(frame),
        seconds=seconds,
        bound_seconds=CONFIGURATIONS_BOUND_S,
    )
    assert seconds <= CONFIGURATIONS_BOUND_S, (
        f"configuration comparison regressed: {seconds:.2f}s > {CONFIGURATIONS_BOUND_S}s"
    )


def test_perf_streamed_tables_bounded_memory(
    analysis_dataset, record_bench, tmp_path
):
    """A trace-streamed tables run peaks well below a Dataset-backed one.

    The frame read out of the trace is the only copy of the data for the
    whole experiment -- detection, Tables 1-4, diversity, evaluations.
    Reading the trace into a :class:`Dataset` and running
    :meth:`PaperExperiment.run_on` pays for the materialised record
    objects on top of the frame built from them, so its peak must sit
    comfortably above the streamed run's.
    """
    path = str(tmp_path / "analysis-bench.trace")
    write_trace(analysis_dataset, path)

    tracemalloc.start()
    frame = TraceReader(path).read_frame()
    result = PaperExperiment().run_on_frame(frame)
    _, streamed_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert result.total_requests == len(analysis_dataset)

    tracemalloc.start()
    dataset = read_trace(path)
    by_dataset = PaperExperiment().run_on(dataset)
    _, dataset_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert by_dataset.render_all() == result.render_all()  # same tables

    ratio = dataset_peak / streamed_peak
    bytes_per_record = streamed_peak / max(len(frame), 1)
    print(
        f"\nstreamed tables run: {len(frame):,} records, peak "
        f"{streamed_peak / 1e6:.1f} MB ({bytes_per_record:.0f} B/record) vs "
        f"{dataset_peak / 1e6:.1f} MB through a Dataset (x{ratio:.1f})"
    )
    record_bench(
        "perf_analysis",
        "streamed_tables_memory",
        scale=ANALYSIS_SCALE,
        records=len(frame),
        streamed_peak_bytes=streamed_peak,
        dataset_peak_bytes=dataset_peak,
        peak_ratio=ratio,
        bytes_per_record=bytes_per_record,
    )
    # The Dataset-backed run holds every record object as well as the
    # frame; 1.5x holds at the 0.1 scale.
    assert streamed_peak * 1.5 < dataset_peak, (
        "the streamed frame tables run should peak well below a Dataset-backed "
        f"run ({streamed_peak / 1e6:.1f} MB vs {dataset_peak / 1e6:.1f} MB)"
    )
