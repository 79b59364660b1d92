"""Tests for execute(): dispatch, legacy equivalence and cross-workload identities."""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro.exceptions import AdjudicationError, DetectorError, SpecError
from repro.mitigation.actions import PolicyError
from repro.obs.metrics import MetricsRegistry
from repro.runspec import (
    AdjudicationSpec,
    DetectorSpec,
    ExecutionSpec,
    PolicySpec,
    RunResult,
    RunSpec,
    TrafficSpec,
    build_dataset,
    execute,
)

SMALL_TRAFFIC = TrafficSpec(scenario="balanced_small", seed=3, params={"total_requests": 3000})


@pytest.fixture(scope="module")
def small_spec_dataset():
    return build_dataset(SMALL_TRAFFIC)


class TestTablesMode:
    def test_round_tripped_spec_reproduces_legacy_metrics(self, calibrated_dataset, experiment_result):
        """The acceptance criterion: spec -> dict -> spec -> execute matches
        the legacy ``PaperExperiment`` run on the calibrated scenario."""
        spec = RunSpec(
            mode="tables",
            traffic=TrafficSpec(scenario="amadeus_march_2018", scale=0.005, seed=2018),
        )
        result = execute(RunSpec.from_dict(spec.to_dict()))
        assert result.total_requests == experiment_result.total_requests
        assert result.alert_counts == dict(experiment_result.alert_counts)
        assert result.metrics["both"] == experiment_result.breakdown.both
        assert result.metrics["kappa"] == experiment_result.diversity_metrics.kappa

    def test_tables_render_matches_legacy(self, small_spec_dataset):
        from repro.core.experiment import PaperExperiment

        spec = RunSpec(mode="tables", traffic=SMALL_TRAFFIC)
        result = execute(spec, dataset=small_spec_dataset)
        legacy = PaperExperiment().run_on(small_spec_dataset)
        assert result.render() == legacy.render_all()

    def test_custom_detector_pair_by_name(self, small_spec_dataset):
        spec = RunSpec(
            mode="tables",
            detectors=(DetectorSpec(name="rate-limit"), DetectorSpec(name="inhouse")),
        )
        result = execute(spec, dataset=small_spec_dataset)
        assert set(result.alert_counts) == {"rate-limit", "inhouse"}

    def test_wrong_detector_count_rejected(self):
        spec = RunSpec(mode="tables", detectors=(DetectorSpec(name="rate-limit"),))
        with pytest.raises(SpecError, match="pairwise"):
            execute(spec)

    def test_result_carries_spec_and_raw(self, small_spec_dataset):
        spec = RunSpec(mode="tables", traffic=SMALL_TRAFFIC, label="carry")
        result = execute(spec, dataset=small_spec_dataset)
        assert result.spec == spec.to_dict()
        assert result.label == "carry"
        assert result.raw is not None
        # The serialized form round-trips (raw is dropped).
        rebuilt = RunResult.from_dict(result.to_dict())
        assert rebuilt.alert_counts == result.alert_counts
        assert rebuilt.raw is None


class TestEvaluateMode:
    def test_evaluation_rows_present(self, small_spec_dataset):
        spec = RunSpec(mode="evaluate", traffic=SMALL_TRAFFIC)
        result = execute(spec, dataset=small_spec_dataset)
        assert result.rows["tool_evaluation"]
        assert result.rows["adjudication_evaluation"]
        assert result.rows["actor_class_detection"]
        names = {row["name"] for row in result.rows["tool_evaluation"]}
        assert names == set(result.alert_counts)

    def test_configurations_opt_in(self, small_spec_dataset):
        spec = RunSpec(
            mode="evaluate",
            traffic=SMALL_TRAFFIC,
            execution=ExecutionSpec(compare_configurations=True),
        )
        result = execute(spec, dataset=small_spec_dataset)
        configurations = {row["configuration"] for row in result.rows["configurations"]}
        assert any(name.startswith("serial-confirm") for name in configurations)

    def test_configurations_add_no_registry_counts(self, small_spec_dataset):
        """Serial re-judgements are not pipeline runs: every counter is unchanged."""

        def counters(compare: bool) -> dict:
            spec = RunSpec(
                mode="evaluate",
                traffic=SMALL_TRAFFIC,
                execution=ExecutionSpec(compare_configurations=compare),
            )
            result = execute(spec, dataset=small_spec_dataset, registry=MetricsRegistry())
            return {
                name: metric["series"]
                for name, metric in result.telemetry["metrics"].items()
                if metric["kind"] == "counter"
            }

        assert counters(True) == counters(False)


class TestAllBenignTraffic:
    """Labelled traffic without a single malicious request (a human-only capture)."""

    @pytest.fixture(scope="class")
    def benign(self):
        from repro.traffic.generator import generate_dataset
        from repro.traffic.scenarios import balanced_small

        dataset = generate_dataset(balanced_small(total_requests=3000, seed=7))
        truth = dataset.ground_truth
        benign = dataset.filter(lambda record: not truth.is_malicious(record.request_id))
        assert benign.is_labelled and len(benign) == 1234
        return benign

    def test_tables_render_without_double_fault(self, benign):
        result = execute(RunSpec(mode="tables"), dataset=benign)
        assert set(result.tables) == {"table1", "table2", "table3", "table4"}
        assert all(result.tables.values())
        assert "double_fault" not in result.metrics
        assert result.total_requests == 1234

    def test_evaluate_with_configurations(self, benign):
        spec = RunSpec(mode="evaluate", execution=ExecutionSpec(compare_configurations=True))
        result = execute(spec, dataset=benign)
        assert len(result.rows["configurations"]) == 6
        assert all(row["sensitivity"] == 1.0 for row in result.rows["configurations"])


class TestStreamMode:
    def test_batch_stream_equivalence_is_a_one_liner(self, small_spec_dataset):
        """The ported detectors produce identical alert sets in both modes."""
        pair = (DetectorSpec(name="rate-limit"), DetectorSpec(name="inhouse"))
        batch = RunSpec(mode="tables", detectors=pair)
        stream = RunSpec(mode="stream", detectors=pair)
        assert (
            execute(stream, dataset=small_spec_dataset).alert_counts
            == execute(batch, dataset=small_spec_dataset).alert_counts
        )

    def test_default_ensemble_and_adjudication(self, small_spec_dataset):
        spec = RunSpec(mode="stream", adjudication=AdjudicationSpec(k=2))
        result = execute(spec, dataset=small_spec_dataset)
        assert set(result.alert_counts) == {"rate-limit", "ua-fingerprint", "inhouse", "anomaly"}
        assert result.metrics["adjudication_scheme"] == "2-out-of-4"
        assert 0 < result.metrics["adjudicated_alerts"] <= result.total_requests
        assert any("adjudicated" in line for line in result.summary)

    def test_sharded_run_matches_single_shard(self, small_spec_dataset):
        single = RunSpec(mode="stream", adjudication=AdjudicationSpec(k=2))
        sharded = RunSpec(
            mode="stream",
            adjudication=AdjudicationSpec(k=2),
            execution=ExecutionSpec(workers=2),
        )
        first = execute(single, dataset=small_spec_dataset)
        second = execute(sharded, dataset=small_spec_dataset)
        assert first.alert_counts == second.alert_counts

    def test_adjudicated_alerts_do_not_depend_on_workers_without_the_anomaly_port(
        self, small_spec_dataset
    ):
        # The anomaly port refits its live model on each shard's closed
        # sessions, so only the other ports' online votes are shard-invariant.
        detectors = tuple(
            DetectorSpec(name=name) for name in ("rate-limit", "ua-fingerprint", "inhouse")
        )
        alerts = [
            execute(
                RunSpec(
                    mode="stream",
                    detectors=detectors,
                    execution=ExecutionSpec(workers=workers),
                ),
                dataset=small_spec_dataset,
            ).metrics["adjudicated_alerts"]
            for workers in (1, 2)
        ]
        assert alerts[0] == alerts[1] > 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "spec, match",
        [
            (RunSpec(mode="stream", adjudication=AdjudicationSpec(k=5)), "between 1 and 4"),
            (
                RunSpec(
                    mode="stream",
                    detectors=(DetectorSpec(name="rate-limit"),),
                    adjudication=AdjudicationSpec(mode="serial-confirm"),
                ),
                "at least two detectors",
            ),
        ],
    )
    def test_bad_adjudication_fails_before_any_traffic(self, monkeypatch, workers, spec, match):
        def no_traffic(*args, **kwargs):
            raise AssertionError("the traffic was built before the adjudication was checked")

        execute_module = importlib.import_module("repro.runspec.execute")
        monkeypatch.setattr(execute_module, "_stream_source", no_traffic)
        spec = dataclasses.replace(spec, execution=ExecutionSpec(workers=workers))
        with pytest.raises(AdjudicationError, match=match):
            execute(spec)

    def test_progress_hook_fires(self, small_spec_dataset):
        milestones = []
        spec = RunSpec(mode="stream", execution=ExecutionSpec(progress_every=500))
        execute(spec, dataset=small_spec_dataset, progress=lambda engine: milestones.append(engine.stats.records))
        assert milestones and all(count >= 500 for count in milestones)


class TestDefendMode:
    def test_pass_through_policy_enforces_nothing(self):
        spec = RunSpec(
            mode="defend",
            traffic=TrafficSpec(total_requests=800, seed=3),
            policy=PolicySpec(name="pass-through"),
        )
        result = execute(spec)
        assert result.metrics["denied_requests"] == 0
        assert result.metrics["served_requests"] == result.total_requests

    def test_defend_reproduces_legacy_run_defense(self):
        from repro.mitigation import build_report, run_defense

        spec = RunSpec(mode="defend", traffic=TrafficSpec(total_requests=800, seed=3))
        result = execute(spec)
        legacy = build_report(
            run_defense(total_requests=800, seed=3), policy_name="standard"
        )
        assert result.total_requests == legacy.total_requests
        assert result.metrics["denied_requests"] == legacy.denied_requests
        assert result.metrics["attacker_yield"] == legacy.attacker_yield
        assert result.enforcement["action_counts"] == dict(legacy.action_counts)

    def test_defend_rejects_injected_dataset(self, small_spec_dataset):
        spec = RunSpec(mode="defend", traffic=TrafficSpec(total_requests=800, seed=3))
        with pytest.raises(SpecError, match="closed-loop"):
            execute(spec, dataset=small_spec_dataset)

    def test_defend_rejects_custom_detectors(self):
        spec = RunSpec(
            mode="defend",
            traffic=TrafficSpec(total_requests=800, seed=3),
            detectors=(DetectorSpec(name="rate-limit"), DetectorSpec(name="inhouse")),
        )
        with pytest.raises(SpecError, match="online ensemble"):
            execute(spec)


class TestModeValidation:
    """Spec fields the mode would ignore are rejected, not dropped."""

    @pytest.mark.parametrize(
        ("spec", "match"),
        [
            (
                RunSpec(mode="defend", traffic=TrafficSpec(scenario="stealth_heavy")),
                "remove traffic.scenario",
            ),
            (
                RunSpec(mode="defend", traffic=TrafficSpec(scale=0.01)),
                "total_requests",
            ),
            (
                RunSpec(mode="defend", adjudication=AdjudicationSpec(mode="serial-confirm")),
                "parallel",
            ),
            (
                RunSpec(mode="stream", traffic=TrafficSpec(total_requests=500)),
                "traffic.params",
            ),
            (
                RunSpec(mode="tables", traffic=TrafficSpec(campaign="adaptive")),
                "defend-only",
            ),
            (
                RunSpec(mode="tables", policy=PolicySpec()),
                "policy",
            ),
            (
                RunSpec(mode="tables", adjudication=AdjudicationSpec()),
                "adjudication",
            ),
            (
                RunSpec(mode="defend", execution=ExecutionSpec(workers=2)),
                "stream-only",
            ),
            (
                RunSpec(mode="tables", execution=ExecutionSpec(compare_configurations=True)),
                "evaluate-only",
            ),
            (
                RunSpec(mode="defend", execution=ExecutionSpec(progress_every=100)),
                "stream-only",
            ),
            (
                RunSpec(mode="stream", execution=ExecutionSpec(workers=2, progress_every=100)),
                "progress_every needs workers=1",
            ),
        ],
    )
    def test_inapplicable_fields_rejected(self, spec, match):
        with pytest.raises(SpecError, match=match):
            execute(spec)

    def test_scenario_rejects_parameters_it_does_not_take(self):
        with pytest.raises(SpecError, match="does not accept the given parameters"):
            build_dataset(TrafficSpec(scenario="balanced_small", scale=0.01))

    def test_default_scenario_fills_in(self):
        spec = TrafficSpec()
        assert spec.scenario is None
        # build_dataset falls back to the calibrated scenario; a tiny
        # scale keeps this fast.
        dataset = build_dataset(TrafficSpec(scale=0.001, seed=1))
        assert dataset.metadata.name == "amadeus_march_2018"


class TestComponentChecks:
    """A misspelled component name or parameter fails before any traffic is built."""

    @pytest.fixture(autouse=True)
    def no_traffic(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("traffic was built before the spec was checked")

        execute_module = importlib.import_module("repro.runspec.execute")
        monkeypatch.setattr(execute_module, "build_dataset", refuse)
        monkeypatch.setattr(execute_module, "run_defense", refuse)

    @pytest.fixture
    def tuned_policy(self):
        from repro.mitigation.policy import _POLICY_REGISTRY, register_policy, standard_policy

        register_policy("tuned", lambda *, block_seconds=1800.0: standard_policy())
        yield "tuned"
        # The registry is module-global; leave no trace for other tests.
        _POLICY_REGISTRY._factories.pop("tuned")

    @pytest.mark.parametrize("mode", ["tables", "evaluate"])
    def test_bad_batch_parameter(self, mode):
        spec = RunSpec(
            mode=mode,
            traffic=SMALL_TRAFFIC,
            detectors=(DetectorSpec("rate-limit", params={"treshold": 3}), DetectorSpec("inhouse")),
        )
        with pytest.raises(DetectorError, match=r"'treshold' \(did you mean 'threshold_rpm'\?\)"):
            execute(spec)

    def test_bad_online_parameter(self):
        spec = RunSpec(
            mode="stream",
            traffic=SMALL_TRAFFIC,
            detectors=(DetectorSpec("anomaly", params={"contamnation": 0.1}),),
        )
        with pytest.raises(DetectorError, match=r"'contamnation' \(did you mean 'contamination'\?\)"):
            execute(spec)

    def test_bad_policy_parameter(self, tuned_policy):
        spec = RunSpec(mode="defend", policy=PolicySpec(tuned_policy, params={"block_secs": 60}))
        with pytest.raises(PolicyError, match=r"'block_secs' \(did you mean 'block_seconds'\?\)"):
            execute(spec)
        with pytest.raises(PolicyError, match="parameter 'strict'"):
            execute(RunSpec(mode="defend", policy=PolicySpec(params={"strict": True})))

    @pytest.mark.parametrize(
        ("spec", "error", "match"),
        [
            (
                RunSpec(
                    mode="tables",
                    traffic=SMALL_TRAFFIC,
                    detectors=(DetectorSpec("rate-limt"), DetectorSpec("inhouse")),
                ),
                DetectorError,
                "did you mean 'rate-limit'",
            ),
            (
                RunSpec(mode="stream", traffic=SMALL_TRAFFIC, detectors=(DetectorSpec("inhuose"),)),
                DetectorError,
                "did you mean 'inhouse'",
            ),
            (RunSpec(mode="defend", policy=PolicySpec("standad")), PolicyError, "did you mean 'standard'"),
        ],
    )
    def test_bad_name(self, spec, error, match):
        with pytest.raises(error, match=match):
            execute(spec)

    @pytest.mark.parametrize(
        ("spec", "match"),
        [
            # A batch-only detector in the stream, an online-only one in the tables.
            (
                RunSpec(mode="stream", traffic=SMALL_TRAFFIC, detectors=(DetectorSpec("commercial"),)),
                "unknown online detector 'commercial'",
            ),
            (
                RunSpec(
                    mode="tables",
                    traffic=SMALL_TRAFFIC,
                    detectors=(DetectorSpec("request-rate"), DetectorSpec("inhouse")),
                ),
                "unknown detector 'request-rate'",
            ),
        ],
    )
    def test_each_mode_checks_its_own_registry(self, spec, match):
        with pytest.raises(DetectorError, match=match):
            execute(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            RunSpec(
                mode="tables",
                traffic=SMALL_TRAFFIC,
                detectors=(
                    DetectorSpec("rate-limit", params={"threshold_rpm": 3}),
                    DetectorSpec("inhouse"),
                ),
            ),
            RunSpec(
                mode="stream",
                traffic=SMALL_TRAFFIC,
                detectors=(DetectorSpec("anomaly", params={"contamination": 0.1}),),
            ),
            RunSpec(mode="defend", policy=PolicySpec("strict")),
        ],
    )
    def test_valid_components_reach_the_traffic(self, spec):
        with pytest.raises(AssertionError, match="traffic was built"):
            execute(spec)


class TestBuildDataset:
    def test_log_file_replay(self, tmp_path, small_spec_dataset):
        from repro.logs.writer import LogWriter

        path = tmp_path / "access.log"
        LogWriter().write_file(small_spec_dataset.records, str(path))
        replayed = build_dataset(TrafficSpec(log_file=str(path)))
        assert len(replayed) == len(small_spec_dataset)

    def test_unknown_scenario_has_suggestion(self):
        from repro.exceptions import ScenarioError

        with pytest.raises(ScenarioError, match="did you mean"):
            build_dataset(TrafficSpec(scenario="balanced_smal"))
