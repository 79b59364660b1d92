"""The shard executor (``repro.sharding``) and the runs built on it.

Covers the executor's contract on both paths (forked workers and the
in-process fallback), fault injection through the batch pipeline and
the stream runner (a shard that raises, a worker killed by a signal),
and the worker telemetry a sharded batch run folds back into the
parent's registry.  The kill cases run in a subprocess under a timeout,
so an executor that waits forever on a dead worker fails the test
instead of hanging the suite.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap
import zlib

import pytest

from repro import sharding
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.pipeline import DetectionPipeline
from repro.exceptions import ShardError
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry
from repro.runspec import ExecutionSpec, RunSpec, TrafficSpec, execute
from repro.sharding import run_shards, shard_of
from repro.stream import ShardedStreamRunner, StreamEngine
from repro.stream.detectors import OnlineRequestRateLimiter
from repro.stream.sources import dataset_replay
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

needs_fork = pytest.mark.skipif(not sharding.fork_available(), reason="needs fork")


@pytest.fixture(scope="module")
def traffic():
    return generate_dataset(balanced_small(total_requests=2000, seed=7))


def _first_ip_shard(frame) -> int:
    return shard_of(frame.tables["client_ip"][frame.codes["client_ip"][0]], 2)


class RaisingDetector(InHouseHeuristicDetector):
    """Raises while judging the rows of shard 1."""

    def alert_columns(self, frame, sessions, features):
        if len(frame) and _first_ip_shard(frame) == 1:
            raise RuntimeError("boom in worker")
        return super().alert_columns(frame, sessions, features)


class RaisingOnlineDetector(OnlineRequestRateLimiter):
    """Raises on the first record of a shard-1 visitor."""

    def observe(self, record, session=None):
        if shard_of(record.client_ip, 2) == 1:
            raise RuntimeError("boom in worker")
        return super().observe(record, session)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class TestRunShards:
    def test_results_come_back_in_shard_order(self, shard_path):
        assert run_shards(lambda index: index * index, 3) == [0, 1, 4]

    def test_forks_only_with_several_workers_and_fork(self, monkeypatch):
        assert not sharding.forks(1)
        monkeypatch.setattr(sharding, "fork_available", lambda: True)
        assert sharding.forks(2)
        monkeypatch.setattr(sharding, "fork_available", lambda: False)
        assert not sharding.forks(2)

    def test_one_worker_runs_in_process(self, monkeypatch):
        def no_fork():  # pragma: no cover - called means regression
            raise AssertionError("a single shard forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        assert run_shards(lambda index: os.getpid(), 1) == [os.getpid()]

    @needs_fork
    def test_forked_shards_run_in_their_own_processes(self):
        pids = run_shards(lambda index: os.getpid(), 2)
        assert os.getpid() not in pids and len(set(pids)) == 2

    def test_a_raising_shard_is_named(self, shard_path):
        def task(index):
            if index == 1:
                raise ValueError("bad shard input")
            return index

        with pytest.raises(ShardError, match=r"shard 1 failed: ValueError\('bad shard input'\)"):
            run_shards(task, 2)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_a_forked_failure_carries_the_worker_traceback(self):
        def task(index):
            raise KeyError(index)

        with pytest.raises(ShardError) as caught:
            run_shards(task, 2)
        assert "Traceback" in caught.value.__notes__[0]

    def test_workers_below_one_rejected(self):
        with pytest.raises(ShardError, match="at least 1"):
            run_shards(lambda index: index, 0)

    def test_shard_of_is_the_crc32_partition(self):
        for ip in ("10.0.0.1", "192.168.7.42", "2001:db8::1"):
            assert shard_of(ip, 5) == zlib.crc32(ip.encode("utf-8")) % 5


# ----------------------------------------------------------------------
# Fault injection: a shard that raises, a worker that is killed
# ----------------------------------------------------------------------
class TestShardFailures:
    def test_batch_shard_that_raises(self, traffic, shard_path):
        from repro.columns import RecordFrame

        pipeline = DetectionPipeline([InHouseHeuristicDetector(), RaisingDetector(name="raiser")])
        with pytest.raises(ShardError, match=r"shard 1 failed: RuntimeError\('boom in worker'\)"):
            pipeline.run_frame(RecordFrame.from_dataset(traffic), workers=2)
        assert multiprocessing.active_children() == []

    def test_stream_shard_that_raises(self, traffic, shard_path):
        runner = ShardedStreamRunner(
            lambda: StreamEngine([OnlineRequestRateLimiter(), RaisingOnlineDetector(name="raiser")]),
            workers=2,
        )
        with pytest.raises(ShardError, match=r"shard 1 failed: RuntimeError\('boom in worker'\)"):
            runner.run(dataset_replay(traffic))
        assert multiprocessing.active_children() == []

    _KILL_SCRIPT = textwrap.dedent(
        """
        import multiprocessing, os, signal

        from repro.columns import RecordFrame
        from repro.detectors.inhouse import InHouseHeuristicDetector
        from repro.detectors.pipeline import DetectionPipeline
        from repro.exceptions import ShardError
        from repro.sharding import shard_of
        from repro.stream import ShardedStreamRunner, StreamEngine
        from repro.stream.detectors import OnlineRequestRateLimiter
        from repro.stream.sources import dataset_replay
        from repro.traffic.generator import generate_dataset
        from repro.traffic.scenarios import balanced_small


        class KillingDetector(InHouseHeuristicDetector):
            def alert_columns(self, frame, sessions, features):
                ip = frame.tables["client_ip"][frame.codes["client_ip"][0]]
                if shard_of(ip, 2) == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
                return super().alert_columns(frame, sessions, features)


        class KillingOnlineDetector(OnlineRequestRateLimiter):
            def observe(self, record, session=None):
                if shard_of(record.client_ip, 2) == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
                return super().observe(record, session)


        dataset = generate_dataset(balanced_small(total_requests=2000, seed=7))
        try:
            if CASE == "batch":
                pipeline = DetectionPipeline(
                    [InHouseHeuristicDetector(), KillingDetector(name="killer")]
                )
                pipeline.run_frame(RecordFrame.from_dataset(dataset), workers=2)
            else:
                ShardedStreamRunner(
                    lambda: StreamEngine([KillingOnlineDetector(name="killer")]), workers=2
                ).run(dataset_replay(dataset))
        except ShardError as error:
            print("ShardError:", error)
        print("active children:", len(multiprocessing.active_children()))
        """
    )

    @needs_fork
    @pytest.mark.parametrize("case", ["batch", "stream"])
    def test_killed_worker_fails_the_run_promptly(self, case):
        env = {**os.environ, "PYTHONPATH": _SRC}
        completed = subprocess.run(
            [sys.executable, "-c", f"CASE = {case!r}\n{self._KILL_SCRIPT}"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert "ShardError: shard 1 worker died (exit code -9)" in completed.stdout
        assert "active children: 0" in completed.stdout


# ----------------------------------------------------------------------
# Worker telemetry folds back into the parent's registry
# ----------------------------------------------------------------------
def _spec(workers: int) -> RunSpec:
    return RunSpec(
        mode="tables",
        traffic=TrafficSpec(scenario="balanced_small", seed=7),
        execution=ExecutionSpec(workers=workers),
    )


def _counters(telemetry) -> dict:
    return {
        name: entry["series"]
        for name, entry in telemetry["metrics"].items()
        if entry["kind"] == "counter" and name != metric_names.FRAME_SHARD_ROWS
    }


def _find(spans, name):
    for span in spans:
        if span["name"] == name:
            return span
        found = _find(span.get("children", []), name)
        if found is not None:
            return found
    return None


class TestWorkerTelemetry:
    @pytest.fixture(scope="class")
    def single(self):
        return execute(_spec(1), registry=MetricsRegistry())

    def test_sharded_run_reports_the_single_process_counters(self, single, shard_path):
        sharded = execute(_spec(2), registry=MetricsRegistry())
        assert sharded.tables == single.tables
        assert _counters(sharded.telemetry) == _counters(single.telemetry)
        shard_rows = sharded.telemetry["metrics"][metric_names.FRAME_SHARD_ROWS]["series"]
        assert sum(series["value"] for series in shard_rows) == sharded.total_requests
        assert {"sessionize", "features", "detectors", "shards", "merge"} <= set(sharded.timings)

        shards = _find(sharded.telemetry["spans"], "shards")
        workers = shards["children"]
        assert [worker["name"] for worker in workers] == ["worker", "worker"]
        assert sorted(worker["attributes"]["shard"] for worker in workers) == [0, 1]
        for worker in workers:
            assert [child["name"] for child in worker["children"]] == [
                "sessionize",
                "features",
                "detectors",
            ]

    @needs_fork
    def test_forking_under_the_profiler_keeps_the_tables(self, single):
        profiled = execute(_spec(2), profile=True)
        assert profiled.tables == single.tables
        assert profiled.profile is not None
