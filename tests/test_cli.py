"""Tests for the ``repro-scrapeguard`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(["generate", "--output", "x.log", "--scale", "0.01"])
        assert args.command == "generate"
        assert args.scale == 0.01

    def test_version_flag_prints_version_and_exits(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestCommands:
    def test_scenarios_lists_presets_with_mix_fractions(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "amadeus_march_2018" in out
        assert "balanced_small" in out
        # Each preset line carries its traffic mix fractions.
        for line in out.strip().splitlines():
            assert "aggressive=" in line and "human=" in line
        assert "aggressive=0.828" in out

    def test_generate_writes_log_and_labels(self, tmp_path, capsys):
        log_path = tmp_path / "access.log"
        labels_path = tmp_path / "labels.json"
        code = main(
            [
                "generate",
                "--scenario",
                "balanced_small",
                "--seed",
                "3",
                "--output",
                str(log_path),
                "--labels",
                str(labels_path),
            ]
        )
        assert code == 0
        assert log_path.exists() and log_path.stat().st_size > 0
        assert labels_path.exists()
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_tables_from_generated_scenario(self, capsys):
        code = main(["tables", "--scenario", "balanced_small", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "HTTP status" in out

    def test_tables_from_log_file(self, tmp_path, capsys):
        log_path = tmp_path / "access.log"
        main(["generate", "--scenario", "balanced_small", "--seed", "3", "--output", str(log_path)])
        capsys.readouterr()
        code = main(["tables", "--log-file", str(log_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_evaluate_prints_labelled_metrics(self, capsys):
        code = main(["evaluate", "--scenario", "balanced_small", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-tool labelled evaluation" in out
        assert "Adjudication schemes" in out
        assert "actor class" in out

    def test_evaluate_with_configurations(self, capsys):
        code = main(["evaluate", "--scenario", "balanced_small", "--seed", "3", "--configurations"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Parallel vs serial configurations" in out
        assert "serial-confirm" in out


class TestStreamCommand:
    def test_stream_scenario_prints_live_totals_and_summary(self, capsys):
        code = main(
            [
                "stream",
                "--scenario",
                "balanced_small",
                "--seed",
                "3",
                "--progress-every",
                "1000",
                "--k",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "after 1,000 requests" in out  # live alert totals
        assert "Streaming Table 1" in out
        assert "adjudicated (2-out-of-4)" in out
        assert "requests/sec" in out

    def test_stream_from_log_file_with_shards(self, tmp_path, capsys):
        log_path = tmp_path / "access.log"
        main(["generate", "--scenario", "balanced_small", "--seed", "3", "--output", str(log_path)])
        capsys.readouterr()
        code = main(["stream", "--log-file", str(log_path), "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Streaming Table 1" in out
        assert "rate-limit" in out

    def test_stream_parser_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.command == "stream"
        assert args.workers == 1
        assert args.k == 1

    def test_stream_rejects_non_positive_shards(self):
        from repro.exceptions import SpecError

        with pytest.raises(SpecError):
            main(["stream", "--scenario", "balanced_small", "--workers", "0"])

    def test_stream_rejects_progress_with_several_workers(self):
        from repro.exceptions import SpecError

        with pytest.raises(SpecError, match="progress_every needs workers=1"):
            main(
                [
                    "stream",
                    "--scenario",
                    "balanced_small",
                    "--workers",
                    "2",
                    "--progress-every",
                    "100",
                ]
            )


class TestDefendCommand:
    def test_defend_scripted_campaign_prints_table5(self, capsys):
        code = main(["defend", "--requests", "1200", "--seed", "3", "--campaign", "scripted"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "Requests saved (denied)" in out
        assert "Median time to first block" in out

    def test_defend_both_campaigns_prints_comparison(self, capsys):
        code = main(["defend", "--requests", "1200", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("Table 5") == 2
        assert "scripted vs adaptive" in out

    def test_defend_pass_through_policy_denies_nothing(self, capsys):
        code = main(
            ["defend", "--requests", "800", "--seed", "3", "--campaign", "scripted", "--policy", "pass-through"]
        )
        assert code == 0
        out = capsys.readouterr().out
        saved_line = next(
            line for line in out.splitlines() if "Requests saved (denied)" in line
        )
        assert saved_line.rstrip().endswith(" 0")

    def test_defend_parser_defaults(self):
        args = build_parser().parse_args(["defend"])
        assert args.command == "defend"
        assert args.campaign == "both"
        assert args.policy == "standard"
        assert args.k == 2


#: Keys every serialized RunResult carries, whatever the workload.
RUN_RESULT_KEYS = {
    "mode",
    "source",
    "label",
    "total_requests",
    "alert_counts",
    "metrics",
    "tables",
    "rows",
    "timings",
    "telemetry",
    "summary",
    "enforcement",
    "spec",
    "profile",
}


def _json_out(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


class TestJsonOutput:
    """``--json`` on every subcommand emits the structured RunResult."""

    def test_tables_json_schema(self, capsys):
        assert main(["tables", "--scenario", "balanced_small", "--seed", "3", "--json"]) == 0
        data = _json_out(capsys)
        assert set(data) == RUN_RESULT_KEYS
        assert data["mode"] == "tables"
        assert set(data["tables"]) == {"table1", "table2", "table3", "table4"}
        assert set(data["alert_counts"]) == {"commercial", "inhouse"}
        assert data["spec"]["traffic"]["scenario"] == "balanced_small"

    def test_evaluate_json_schema(self, capsys):
        assert main(["evaluate", "--scenario", "balanced_small", "--seed", "3", "--json"]) == 0
        data = _json_out(capsys)
        assert set(data) == RUN_RESULT_KEYS
        assert data["mode"] == "evaluate"
        assert {"tool_evaluation", "adjudication_evaluation"} <= set(data["rows"])

    def test_stream_json_schema(self, capsys):
        assert main(["stream", "--scenario", "balanced_small", "--seed", "3", "--k", "2", "--json"]) == 0
        data = _json_out(capsys)
        assert set(data) == RUN_RESULT_KEYS
        assert data["mode"] == "stream"
        assert data["metrics"]["adjudication_scheme"] == "2-out-of-4"
        assert data["metrics"]["adjudicated_alerts"] <= data["total_requests"]

    def test_defend_json_schema(self, capsys):
        assert main(
            ["defend", "--requests", "800", "--seed", "3", "--campaign", "scripted", "--json"]
        ) == 0
        data = _json_out(capsys)
        assert set(data) == {"scripted"}
        assert set(data["scripted"]) == RUN_RESULT_KEYS
        assert data["scripted"]["enforcement"]["policy"] == "standard"

    def test_generate_json_schema(self, tmp_path, capsys):
        log_path = tmp_path / "access.log"
        assert main(
            [
                "generate", "--scenario", "balanced_small", "--seed", "3",
                "--output", str(log_path), "--json",
            ]
        ) == 0
        data = _json_out(capsys)
        assert set(data) == {"scenario", "records", "output", "labels"}
        assert data["records"] > 0 and log_path.exists()

    def test_scenarios_json_is_machine_readable(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        listing = _json_out(capsys)
        names = {entry["name"] for entry in listing}
        assert {"amadeus_march_2018", "balanced_small", "stealth_heavy"} <= names
        for entry in listing:
            assert set(entry) == {"name", "total_requests", "days", "mix"}
            assert abs(sum(entry["mix"].values()) - 1.0) < 0.03


class TestRunCommand:
    """``repro run --config spec.json`` executes any saved spec."""

    def _write_spec(self, tmp_path, payload: dict) -> str:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_run_config_drives_tables(self, tmp_path, capsys):
        config = self._write_spec(
            tmp_path,
            {"mode": "tables", "traffic": {"scenario": "balanced_small", "seed": 3}},
        )
        assert main(["run", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_run_config_json_matches_subcommand(self, tmp_path, capsys):
        config = self._write_spec(
            tmp_path,
            {"mode": "tables", "traffic": {"scenario": "balanced_small", "seed": 3}},
        )
        assert main(["run", "--config", config, "--json"]) == 0
        from_config = _json_out(capsys)
        assert main(["tables", "--scenario", "balanced_small", "--seed", "3", "--json"]) == 0
        from_subcommand = _json_out(capsys)
        assert from_config["alert_counts"] == from_subcommand["alert_counts"]
        assert from_config["metrics"] == from_subcommand["metrics"]

    def test_run_rejects_unknown_spec_key(self, tmp_path):
        from repro.exceptions import SpecError

        config = self._write_spec(tmp_path, {"mode": "tables", "detektors": []})
        with pytest.raises(SpecError, match="did you mean"):
            main(["run", "--config", config])

    def test_run_rejects_missing_config(self, tmp_path):
        from repro.exceptions import SpecError

        with pytest.raises(SpecError, match="cannot read spec file"):
            main(["run", "--config", str(tmp_path / "absent.json")])


class TestObservability:
    """The obs surface: ``obs dump``, --metrics-port, --log-level, telemetry."""

    def _write_spec(self, tmp_path) -> str:
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"mode": "tables", "traffic": {"scenario": "balanced_small", "seed": 3}})
        )
        return str(path)

    def test_obs_dump_prints_the_metric_reference(self, capsys):
        assert main(["obs", "dump"]) == 0
        out = capsys.readouterr().out
        assert "repro_stage_seconds (histogram" in out
        assert "repro_records_ingested_total (counter" in out

    def test_obs_dump_reference_json(self, capsys):
        assert main(["obs", "dump", "--json"]) == 0
        reference = _json_out(capsys)
        names = {entry["name"] for entry in reference}
        assert "repro_stage_seconds" in names
        assert all({"name", "kind", "labels", "help"} <= set(entry) for entry in reference)

    def test_obs_dump_config_emits_a_snapshot(self, tmp_path, capsys):
        assert main(["obs", "dump", "--config", self._write_spec(tmp_path)]) == 0
        snapshot = _json_out(capsys)
        assert snapshot["format"] == "repro-obs"
        assert "repro_records_ingested_total" in snapshot["metrics"]
        assert snapshot["spans"]

    def test_obs_dump_config_prometheus_format(self, tmp_path, capsys):
        assert main(
            ["obs", "dump", "--config", self._write_spec(tmp_path), "--format", "prometheus"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_stage_seconds histogram" in out
        assert "repro_records_ingested_total" in out

    def test_tables_json_carries_the_telemetry_snapshot(self, capsys):
        assert main(["tables", "--scenario", "balanced_small", "--seed", "3", "--json"]) == 0
        data = _json_out(capsys)
        telemetry = data["telemetry"]
        assert telemetry["format"] == "repro-obs"
        counters = [
            name for name, entry in telemetry["metrics"].items() if entry["kind"] == "counter"
        ]
        assert len(counters) >= 10
        assert telemetry["metrics"]["repro_stage_seconds"]["kind"] == "histogram"

    def test_stream_json_carries_the_telemetry_snapshot(self, capsys):
        assert main(["stream", "--scenario", "balanced_small", "--seed", "3", "--json"]) == 0
        data = _json_out(capsys)
        counters = [
            name
            for name, entry in data["telemetry"]["metrics"].items()
            if entry["kind"] == "counter"
        ]
        assert len(counters) >= 10
        assert "repro_stage_seconds" in data["telemetry"]["metrics"]

    def test_metrics_port_serves_for_the_duration_of_the_run(self, capsys):
        assert main(
            ["tables", "--scenario", "balanced_small", "--seed", "3", "--metrics-port", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "serving metrics at http://" in out
        assert "Table 1" in out

    def test_log_level_installs_the_structured_handler(self):
        import logging

        assert main(
            ["tables", "--scenario", "balanced_small", "--seed", "3", "--log-level", "debug"]
        ) == 0
        logger = logging.getLogger("repro")
        assert any(getattr(h, "_repro_obs", False) for h in logger.handlers)
        assert logger.level == logging.DEBUG


class TestTraceCommands:
    def _record(self, tmp_path, name="rec.trace", seed="3"):
        path = tmp_path / name
        code = main(
            [
                "trace",
                "record",
                "--scenario",
                "balanced_small",
                "--seed",
                seed,
                "--output",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_record_writes_a_trace_and_prints_its_info(self, tmp_path, capsys):
        path = self._record(tmp_path)
        out = capsys.readouterr().out
        assert path.exists() and path.stat().st_size > 0
        assert "recorded" in out and "labelled:     yes" in out

    def test_info_is_machine_readable(self, tmp_path, capsys):
        path = self._record(tmp_path)
        capsys.readouterr()
        assert main(["trace", "info", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] > 0
        assert payload["labelled"] is True
        assert payload["time_ordered"] is True
        assert payload["dataset"]["name"] == "balanced_small"

    def test_recorded_trace_drives_a_run_config(self, tmp_path, capsys):
        path = self._record(tmp_path)
        capsys.readouterr()
        config = tmp_path / "spec.json"
        config.write_text(
            json.dumps(
                {"mode": "tables", "traffic": {"source": "trace", "path": str(path)}}
            )
        )
        assert main(["run", "--config", str(config), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "balanced_small"
        assert payload["alert_counts"]

    def test_import_gzipped_log(self, tmp_path, capsys):
        import gzip

        from repro.logs.writer import format_record
        from tests.helpers import make_records

        log = tmp_path / "access.log.gz"
        with gzip.open(log, "wt", encoding="utf-8") as handle:
            for record in make_records(8, gap_seconds=2):
                handle.write(format_record(record) + "\n")
        out_path = tmp_path / "imported.trace"
        assert main(["trace", "import", str(log), "--output", str(out_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parsed"] == 8
        assert payload["trace"]["records"] == 8
        assert payload["trace"]["labelled"] is False

    def test_mix_interleaves_two_recordings(self, tmp_path, capsys):
        base = self._record(tmp_path, "base.trace", seed="3")
        overlay = self._record(tmp_path, "overlay.trace", seed="4")
        capsys.readouterr()
        mixed = tmp_path / "mixed.trace"
        code = main(
            [
                "trace",
                "mix",
                "--base",
                str(base),
                "--overlay",
                str(overlay),
                "--output",
                str(mixed),
                "--shift",
                "600",
                "--sample",
                "0.5",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["time_ordered"] is True
        assert payload["records"] > 0

    def test_trace_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])
