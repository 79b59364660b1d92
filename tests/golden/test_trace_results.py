"""Traces of the golden presets: their layout, and the runs replayed from them.

See :mod:`tests.golden.layout` for what is digested (the presets'
``write_trace`` output and the record-stream writers: the log importer
and the interleave operator) and how to regenerate the layout fixture.  The trace-sourced runs are checked
against the committed batch digests of ``batch_results.json``: a batch
run from a trace goes through ``TraceReader.read_frame`` instead of the
in-memory data set, and must not tell the difference.
"""

from __future__ import annotations

import os

import pytest

from tests.golden import batch, layout


@pytest.fixture(scope="module")
def preset_traces(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-traces")
    paths = {}
    for name in batch.PRESETS:
        paths[name] = os.path.join(directory, f"{name}.trace")
        layout.write_preset_trace(name, paths[name])
    return paths


@pytest.mark.parametrize("case", sorted(batch.PRESETS))
def test_trace_layout_matches_golden(case, preset_traces):
    expected = layout.load_fixture()[case]
    digest = layout.layout_digest(preset_traces[case])
    assert {"records": expected["records"], **digest} == expected


@pytest.mark.parametrize("case", layout.RECORD_STREAMS)
def test_record_stream_layout_matches_golden(case):
    assert layout.record_stream_layout(case) == layout.load_fixture()[case]


@pytest.mark.parametrize("case", sorted(batch.PRESETS))
def test_trace_sourced_runs_match_batch_golden(case, preset_traces):
    expected = batch.load_fixture()[case]
    digests = layout.trace_run_digests(preset_traces[case])
    assert digests == {"tables": expected["tables"], "evaluate": expected["evaluate"]}
