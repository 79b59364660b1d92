"""Experiment ``perf_columns``: the columnar substrate's batch hot path.

The :mod:`repro.columns` substrate runs the batch detection hot path --
sessionization and feature extraction -- as batched numpy kernels.  This
module measures two layers at the columns benchmark scale
(``REPRO_COLUMNS_BENCH_SCALE``, default 0.1 -- about 144k requests):

* **dataset-wide feature extraction** -- ``RecordFrame.from_dataset`` +
  ``sessionize_frame`` + ``FeatureMatrix.from_frame``, best of 3 rounds,
  bounded at 0.2 s at scale 0.1 (the bound scales with the scale);
* **zero-decode trace ingestion** -- ``TraceReader.read_frame`` against
  ``read_dataset`` + ``from_dataset`` for trace-backed runs.

The full tables run is measured in absolute terms by the end-to-end
``tables`` workload in ``benchmarks/e2e``.

All numbers land in ``BENCH_perf_columns.json`` via the shared conftest
hook, and both gates are asserted so a regression in the hot path fails
the job loudly.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench.harness import BENCH_SEED, scenario_dataset
from repro.columns import FeatureMatrix, RecordFrame, sessionize_frame
from repro.trace import TraceReader, write_trace

#: Scale of the columns benchmarks (fraction of the paper's 1.47M requests).
COLUMNS_SCALE = float(os.environ.get("REPRO_COLUMNS_BENCH_SCALE", "0.1"))

#: Bound on dataset-wide feature extraction, best of 3, in seconds: 0.2 s
#: at scale 0.1, proportional to the scale.
FEATURE_SECONDS_BOUND = 0.2 * COLUMNS_SCALE / 0.1


def _best_of(callable_, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def columns_dataset():
    """The calibrated scenario at the columns benchmark scale (memoised)."""
    return scenario_dataset(COLUMNS_SCALE, BENCH_SEED)


def test_perf_feature_extraction(columns_dataset, record_bench):
    """Dataset-wide sessions and features must stay within the absolute bound."""

    def frame_path():
        frame = RecordFrame.from_dataset(columns_dataset)
        return FeatureMatrix.from_frame(frame, sessionize_frame(frame))

    frame_seconds = _best_of(frame_path, rounds=3)
    n_sessions = len(frame_path())
    print(
        f"\n{len(columns_dataset):,} records, {n_sessions:,} sessions: "
        f"frame path {frame_seconds:.3f}s (bound {FEATURE_SECONDS_BOUND:.3f}s)"
    )
    record_bench(
        "perf_columns",
        "feature_extraction",
        scale=COLUMNS_SCALE,
        records=len(columns_dataset),
        sessions=n_sessions,
        frame_seconds=frame_seconds,
        bound_seconds=FEATURE_SECONDS_BOUND,
    )
    assert frame_seconds <= FEATURE_SECONDS_BOUND, (
        f"frame-path feature extraction regressed: {frame_seconds:.3f}s > "
        f"{FEATURE_SECONDS_BOUND:.3f}s"
    )


def test_perf_trace_read_frame_zero_decode(columns_dataset, record_bench, tmp_path):
    """Mapping a trace into a frame must beat decode-then-columnarise."""
    path = str(tmp_path / "columns-bench.trace")
    write_trace(columns_dataset, path)

    frame_seconds = _best_of(lambda: TraceReader(path).read_frame())
    decode_seconds = _best_of(
        lambda: RecordFrame.from_dataset(TraceReader(path).read_dataset())
    )
    speedup = decode_seconds / frame_seconds
    print(
        f"\ntrace -> frame: read_frame {frame_seconds:.2f}s, "
        f"read_dataset+from_dataset {decode_seconds:.2f}s (x{speedup:.1f})"
    )
    record_bench(
        "perf_columns",
        "trace_read_frame",
        records=len(columns_dataset),
        read_frame_seconds=frame_seconds,
        decode_then_columnarise_seconds=decode_seconds,
        speedup=speedup,
    )
    assert speedup >= 2.0, (
        f"read_frame lost its zero-decode advantage ({speedup:.1f}x < 2x)"
    )
