"""Golden digests of the trace layout, and trace-sourced batch runs.

Two things are pinned for each preset of :mod:`tests.golden.batch`:

* the layout of ``write_trace``: a SHA-256 of every section's
  *decompressed* payload -- each block body and the string tables, in
  file order.  The meta section is left out (it carries the library
  version), and digesting the decompressed payloads keeps the digests
  independent of the zlib build;
* the ``tables`` and ``evaluate`` runs replayed from that trace through
  ``TrafficSpec(source="trace")``, which must reproduce the committed
  batch digests of ``batch_results.json`` exactly (checked by
  ``test_trace_results.py``; nothing extra is stored for them).

The same layout digest also pins the two writers that stream records
rather than a whole data set (:data:`RECORD_STREAMS`): ``import_clf``
over the access log of a generated preset, and ``interleave_traces`` of
two preset traces with a time shift and a sample of the overlay.

Regenerate the committed layout fixture (only when a change to the trace
bytes is intended) from the repository root::

    PYTHONPATH=src python -m tests.golden.layout --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import tempfile
import zlib
from typing import Any

from repro.runspec import RunSpec, TrafficSpec, execute
from repro.runspec.spec import ExecutionSpec
from repro.logs.writer import LogWriter
from repro.trace import import_clf, interleave_traces, write_trace
from repro.trace.format import (
    BLOCK_TAG,
    MAGIC,
    STRINGS_TAG,
    TRAILER_SIZE,
    decode_trailer,
    read_section,
)
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import get_scenario
from tests.golden.batch import PRESETS, run_digest

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_layout.json")

#: The record-stream writers pinned next to the presets: fixture key ->
#: how its trace is written (see :func:`write_record_stream`).
IMPORT_PRESET = "amadeus_march_2018"
MIX_BASE, MIX_OVERLAY = "amadeus_march_2018", "balanced_small"
MIX_SHIFT_S, MIX_SAMPLE, MIX_SEED = 1800.0, 0.5, 5
RECORD_STREAMS = (f"import:{IMPORT_PRESET}", f"mix:{MIX_BASE}+{MIX_OVERLAY}")


def write_preset_trace(name: str, path: str) -> int:
    """Record one preset's generated traffic as a trace; returns its record count."""
    dataset = generate_dataset(get_scenario(name, **PRESETS[name]))
    write_trace(dataset, path)
    return len(dataset)


def write_record_stream(key: str, directory: str, path: str) -> int:
    """Write one :data:`RECORD_STREAMS` trace to ``path``; returns its record count."""
    if key == RECORD_STREAMS[0]:
        log = os.path.join(directory, f"{IMPORT_PRESET}.log")
        dataset = generate_dataset(get_scenario(IMPORT_PRESET, **PRESETS[IMPORT_PRESET]))
        LogWriter().write_file(dataset, log)
        report = import_clf([log], path, skip_malformed=False)
        assert report.trace is not None
        return report.trace.records
    if key == RECORD_STREAMS[1]:
        base = os.path.join(directory, f"{MIX_BASE}.trace")
        overlay = os.path.join(directory, f"{MIX_OVERLAY}.trace")
        write_preset_trace(MIX_BASE, base)
        write_preset_trace(MIX_OVERLAY, overlay)
        info = interleave_traces(
            base,
            overlay,
            path,
            shift_overlay_seconds=MIX_SHIFT_S,
            sample_overlay=MIX_SAMPLE,
            seed=MIX_SEED,
        )
        return info.records
    raise KeyError(key)


def layout_digest(path: str) -> dict[str, Any]:
    """SHA-256 of each block's and of the string tables' decompressed payload."""
    with open(path, "rb") as handle:
        handle.seek(-TRAILER_SIZE, os.SEEK_END)
        strings_offset, _meta_offset = decode_trailer(handle.read(TRAILER_SIZE))
        handle.seek(len(MAGIC))
        blocks = []
        while handle.tell() < strings_offset:
            payload = zlib.decompress(read_section(handle, BLOCK_TAG))
            blocks.append(hashlib.sha256(payload).hexdigest())
        strings = zlib.decompress(read_section(handle, STRINGS_TAG))
    return {"blocks": blocks, "strings": hashlib.sha256(strings).hexdigest()}


def trace_run_digests(path: str) -> dict[str, Any]:
    """The ``tables`` and ``evaluate`` (with the comparison) digests of a trace."""
    traffic = TrafficSpec(source="trace", path=path)
    tables = execute(RunSpec(mode="tables", traffic=traffic))
    evaluate = execute(
        RunSpec(
            mode="evaluate",
            traffic=traffic,
            execution=ExecutionSpec(compare_configurations=True),
        )
    )
    return {"tables": run_digest(tables), "evaluate": run_digest(evaluate)}


def preset_layout(name: str) -> dict[str, Any]:
    """The layout digest of one preset's freshly written trace."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, f"{name}.trace")
        records = write_preset_trace(name, path)
        return {"records": records, **layout_digest(path)}


def record_stream_layout(key: str) -> dict[str, Any]:
    """The layout digest of one freshly written :data:`RECORD_STREAMS` trace."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "out.trace")
        records = write_record_stream(key, directory, path)
        return {"records": records, **layout_digest(path)}


def load_fixture() -> dict[str, Any]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the committed fixture")
    args = parser.parse_args()
    computed = {name: preset_layout(name) for name in PRESETS}
    computed.update({key: record_stream_layout(key) for key in RECORD_STREAMS})
    text = json.dumps(computed, indent=2, sort_keys=True) + "\n"
    if args.write:
        with open(FIXTURE, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
