"""Frame pipeline equivalence: data-set entry points == frame arrays == shards.

The batch pipeline has one engine -- every detector's ``alert_columns``
over a frame -- and several ways in: a :class:`Dataset` through
:meth:`DetectionPipeline.run` / :meth:`PaperExperiment.run_on`, a frame
through :meth:`DetectionPipeline.run_frame` /
:meth:`PaperExperiment.run_on_frame`, single-process or hash-sharded
across ``workers=2`` forked workers (or, without ``fork``, shards run
one after another in-process).  For every preset scenario all of them
must carry byte-identical alerts (ids, scores *and* reasons), identical
matrices and identical Tables 1-4 / labelled evaluations.  The values
themselves are pinned by the golden fixtures in ``tests/golden``.
Trace-backed ``tables`` and ``evaluate`` runs (the latter with the
configuration comparison) additionally prove the frame path never
materialises a :class:`Dataset` at all.
"""

from __future__ import annotations

import importlib

import pytest

from repro.columns import RecordFrame
from repro.core.experiment import PaperExperiment
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.pipeline import DetectionPipeline
from repro.exceptions import DetectorError, SpecError
from repro.runspec import RunSpec, TrafficSpec, execute
from repro.runspec.spec import ExecutionSpec
from repro.trace import write_trace
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import get_scenario

#: The presets the golden batch fixtures pin (seeded, scaled down to
#: keep the suite fast).
PRESETS = [
    ("amadeus_march_2018", {"scale": 0.02, "seed": 2018}),
    ("balanced_small", {"total_requests": 5_000, "seed": 7}),
    ("stealth_heavy", {"total_requests": 5_000, "seed": 23}),
]


@pytest.fixture(scope="module", params=PRESETS, ids=[name for name, _ in PRESETS])
def preset(request):
    name, params = request.param
    dataset = generate_dataset(get_scenario(name, **params))
    return name, params, dataset, RecordFrame.from_dataset(dataset)


def _detectors():
    return [CommercialBotDefenceDetector(), InHouseHeuristicDetector()]


def _full_alerts(alert_set):
    return {alert.request_id: (alert.score, alert.reasons) for alert in alert_set.alerts()}


def _comparable(result):
    """A RunResult's reproducible face (timings/telemetry/spec vary)."""
    payload = result.to_dict()
    payload.pop("timings", None)
    payload.pop("telemetry", None)
    payload.pop("spec", None)
    return payload


class TestFramePipelineEquivalence:
    def test_alert_sets_byte_identical_across_paths(self, preset, shard_path):
        _name, _params, dataset, frame = preset
        single = DetectionPipeline(_detectors()).run_frame(frame)
        sharded = DetectionPipeline(_detectors()).run_frame(frame, workers=2)
        by_dataset = DetectionPipeline(_detectors()).run(dataset)
        expected = [_full_alerts(alert_set) for alert_set in single.alert_sets()]
        for result, alert_sets in (
            (sharded, sharded.alert_sets()),
            (by_dataset, by_dataset.alert_sets),
        ):
            assert result.matrix.request_ids == single.matrix.request_ids
            assert (result.matrix.values == single.matrix.values).all()
            assert [alert_set.detector_name for alert_set in alert_sets] == [
                "commercial",
                "inhouse",
            ]
            assert [_full_alerts(alert_set) for alert_set in alert_sets] == expected

    def test_experiment_tables_identical(self, preset):
        _name, _params, dataset, frame = preset
        single = PaperExperiment().run_on_frame(frame)
        by_dataset = PaperExperiment().run_on(dataset)
        for result in (PaperExperiment().run_on_frame(frame, workers=2), by_dataset):
            assert result.render_all() == single.render_all()
            assert dict(result.alert_counts) == dict(single.alert_counts)
            assert result.diversity_metrics.as_dict() == single.diversity_metrics.as_dict()
            assert [e.as_dict() for e in result.tool_evaluations] == [
                e.as_dict() for e in single.tool_evaluations
            ]
            assert [e.as_dict() for e in result.adjudication_evaluations] == [
                e.as_dict() for e in single.adjudication_evaluations
            ]
        assert single.frame is frame

    @pytest.mark.parametrize("mode", ["tables", "evaluate"])
    def test_execute_identical_across_workers(self, mode, preset, shard_path):
        name, params, dataset, _frame = preset
        traffic = TrafficSpec(
            scenario=name,
            scale=params.get("scale"),
            seed=params.get("seed"),
            params={k: v for k, v in params.items() if k not in ("scale", "seed")},
        )
        single, sharded = (
            execute(
                RunSpec(
                    mode=mode,
                    traffic=traffic,
                    execution=ExecutionSpec(
                        workers=workers, compare_configurations=mode == "evaluate"
                    ),
                ),
                dataset=dataset,
            )
            for workers in (1, 2)
        )
        assert _comparable(sharded) == _comparable(single)
        if mode == "evaluate":
            assert len(single.rows["configurations"]) == 6


class TestModelDetectors:
    def test_unshardable_detectors_identical_across_entry_points(self):
        """Model-based detectors never shard; every entry point agrees."""
        from repro.detectors.naive_bayes import NaiveBayesRobotDetector
        from repro.detectors.ratelimit import RateLimitDetector

        dataset = generate_dataset(get_scenario("balanced_small", total_requests=3_000, seed=11))
        frame = RecordFrame.from_dataset(dataset)
        detectors = lambda: [NaiveBayesRobotDetector(), RateLimitDetector()]  # noqa: E731
        by_dataset = DetectionPipeline(detectors()).run(dataset)
        alone = [detector.analyze(dataset) for detector in detectors()]
        for workers in (1, 2):
            by_frame = DetectionPipeline(detectors()).run_frame(frame, workers=workers)
            for expected, standalone, got in zip(by_dataset.alert_sets, alone, by_frame.alert_sets()):
                assert expected.detector_name == got.detector_name
                assert _full_alerts(expected) == _full_alerts(got) == _full_alerts(standalone)


class TestTraceSourcedTables:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        dataset = generate_dataset(get_scenario("balanced_small", total_requests=2_500, seed=3))
        path = str(tmp_path_factory.mktemp("traces") / "frames.trace")
        write_trace(dataset, path)
        return dataset, path

    @staticmethod
    def _forbid_materialising(monkeypatch):
        execute_module = importlib.import_module("repro.runspec.execute")

        def fail(*_args, **_kwargs):  # pragma: no cover - called means regression
            raise AssertionError("a trace-backed run materialised the whole trace")

        monkeypatch.setattr(execute_module, "read_trace", fail)
        monkeypatch.setattr(RecordFrame, "to_dataset", fail)

    def test_trace_tables_never_materialise_records(self, recorded, monkeypatch):
        """Tables from a trace run frame-natively: no Dataset is ever built."""
        dataset, path = recorded
        expected = execute(RunSpec(mode="tables"), dataset=dataset)
        self._forbid_materialising(monkeypatch)
        for workers in (1, 2):
            result = execute(
                RunSpec(
                    mode="tables",
                    traffic=TrafficSpec(source="trace", path=path),
                    execution=ExecutionSpec(workers=workers),
                )
            )
            assert result.tables == expected.tables
            assert result.source == "balanced_small"

    def test_trace_evaluate_never_materialises_records(self, recorded, monkeypatch):
        """The labelled evaluation and the configuration comparison run on the frame."""
        dataset, path = recorded
        execution = ExecutionSpec(compare_configurations=True)
        expected = execute(RunSpec(mode="evaluate", execution=execution), dataset=dataset)
        self._forbid_materialising(monkeypatch)
        result = execute(
            RunSpec(
                mode="evaluate",
                traffic=TrafficSpec(source="trace", path=path),
                execution=execution,
            )
        )
        assert result.tables == expected.tables
        assert result.rows == expected.rows
        assert len(result.rows["configurations"]) == 6


class TestWorkerValidation:
    def test_workers_below_one_rejected_in_spec(self):
        with pytest.raises(SpecError, match="at least 1"):
            ExecutionSpec(workers=0)

    def test_workers_are_batch_only(self):
        """Workers shard the batch and stream modes; the closed loop rejects them."""
        spec = RunSpec(mode="defend", execution=ExecutionSpec(workers=2))
        with pytest.raises(SpecError, match="single closed loop"):
            execute(spec)

    def test_run_frame_rejects_bad_workers(self):
        frame = RecordFrame.from_records([])
        with pytest.raises(DetectorError, match="at least 1"):
            DetectionPipeline(_detectors()).run_frame(frame, workers=0)
