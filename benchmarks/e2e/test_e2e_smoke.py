"""Smoke test of the end-to-end benchmark on tiny inputs.

Runs the whole suite with ``--quick`` (a 0.005-scale trace, a 3k-request
defend budget, one set-up per run, one untraced and one traced run per
workload) and one
single-workload run, then checks that every metric BENCHMARK.json names
is emitted with its unit, that no output check failed, and that
``compare.py`` accepts identical inputs and flags a throughput drop
larger than the bound BENCHMARK.json sets for it.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def suite(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("e2e") / "base"
    completed = _run(str(HERE / "run.py"), "--quick", "--out", str(out))
    assert completed.returncode == 0, completed.stderr[-3000:]
    assert json.loads(completed.stdout.splitlines()[-1])["correct"] is True
    return out


def _report(directory: Path) -> dict:
    (path,) = directory.glob("*.json")
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_declared_metric_is_emitted_without_errors(suite):
    report = _report(suite)
    assert set(report["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for workload, entry in report["workloads"].items():
        assert entry["error_rate"] == 0, (workload, entry["failures"])
        for metric in SPEC["end_to_end"]:
            assert entry["summary"][metric["name"]]["unit"] == metric["unit"]
            assert entry["runs"][0][metric["name"]] > 0, (workload, metric["name"])
        assert set(entry["traced"]) == {metric["name"] for metric in SPEC["per_layer"]}


def test_single_workload_run_ends_with_the_result_line():
    completed = _run(
        str(HERE / "run.py"), "--workload", "tables", "--seed", "11",
        "--seconds", "0.5", "--trace", "0", "--quick",
    )  # fmt: skip
    assert completed.returncode == 0, completed.stderr[-3000:]
    line = json.loads(completed.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: value["unit"] for name, value in line["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]
    }


def test_compare_passes_identical_and_flags_a_throughput_drop(suite, tmp_path):
    same = _run(str(HERE / "compare.py"), str(suite), str(suite))
    assert same.returncode == 0, same.stdout

    (bound,) = (m["bound"] for m in SPEC["end_to_end"] if m["name"] == "records_per_s")
    slower = copy.deepcopy(_report(suite))
    for entry in slower["workloads"].values():
        for run in entry["runs"]:
            run["records_per_s"] *= 1 - 1.2 * bound
    (tmp_path / "slower.json").write_text(json.dumps(slower), encoding="utf-8")
    dropped = _run(str(HERE / "compare.py"), str(suite), str(tmp_path))
    assert dropped.returncode == 1
    assert "records_per_s" in dropped.stdout and "REGRESSION" in dropped.stdout
