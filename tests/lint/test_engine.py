"""Engine mechanics: pragmas, baseline, REP000, select/ignore, config."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import LintError
from repro.lint import (
    LintConfig,
    available_rules,
    load_baseline,
    load_config,
    run_lint,
    write_baseline,
)
from repro.lint.engine import collect_sources
from tests.lint.util import write_tree

_CLOCKY = """
import time

def stamp():
    return time.time()
"""

_CLOCKY_ALLOWED = """
import time

def stamp():
    return time.time()  # repro-lint: allow[REP001] display-only timestamp
"""


def _run(root, files, **overrides):
    write_tree(root, files)
    return run_lint(root, config=LintConfig(baseline=None, **overrides))


def test_pragma_suppresses_only_named_rule_on_its_line(lint_tree):
    report = lint_tree({"src/repro/core/clocky.py": _CLOCKY_ALLOWED})
    assert report.findings == []
    assert report.suppressed == 1


def test_pragma_with_several_rules(tmp_path):
    source = _CLOCKY.replace(
        "time.time()",
        "time.time()  # repro-lint: allow[REP001, REP007] reason",
    )
    report = _run(tmp_path, {"src/repro/core/clocky.py": source})
    assert report.findings == []
    assert report.suppressed == 1


def test_pragma_for_other_rule_does_not_suppress(tmp_path):
    source = _CLOCKY.replace(
        "time.time()", "time.time()  # repro-lint: allow[REP007] wrong rule"
    )
    report = _run(tmp_path, {"src/repro/core/clocky.py": source})
    assert [finding.rule for finding in report.findings] == ["REP001"]
    assert report.suppressed == 0


def test_baseline_absorbs_findings_and_reports_stale_entries(tmp_path):
    write_tree(tmp_path, {"src/repro/core/clocky.py": _CLOCKY})
    first = run_lint(tmp_path, config=LintConfig(baseline=None))
    assert len(first.findings) == 1

    baseline_path = tmp_path / "lint-baseline.json"
    write_baseline(baseline_path, first.findings)
    config = LintConfig(baseline="lint-baseline.json")
    absorbed = run_lint(tmp_path, config=config)
    assert absorbed.findings == []
    assert [finding.rule for finding in absorbed.baselined] == ["REP001"]
    assert absorbed.stale_baseline == []

    # The baseline is line-insensitive: shifting the file does not break it.
    path = tmp_path / "src/repro/core/clocky.py"
    path.write_text("# a new leading comment\n" + path.read_text())
    shifted = run_lint(tmp_path, config=config)
    assert shifted.findings == []

    # Fixing the finding leaves a stale entry to burn down.
    path.write_text("def stamp():\n    return 0.0\n")
    fixed = run_lint(tmp_path, config=config)
    assert fixed.findings == []
    assert len(fixed.stale_baseline) == 1
    assert fixed.stale_baseline[0].startswith("REP001|src/repro/core/clocky.py|")


def test_load_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == set()


@pytest.mark.parametrize(
    "payload, match",
    [
        ({"format": "other"}, "not a repro-lint baseline"),
        ({"format": "repro-lint-baseline", "version": 99}, "version"),
        (
            {"format": "repro-lint-baseline", "version": 1, "findings": [1]},
            "fingerprint strings",
        ),
    ],
)
def test_load_baseline_rejects_bad_files(tmp_path, payload, match):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(LintError, match=match):
        load_baseline(path)


def test_unparseable_file_becomes_rep000(tmp_path):
    report = _run(tmp_path, {"src/repro/core/broken.py": "def oops(:\n"})
    (finding,) = report.findings
    assert finding.rule == "REP000"
    assert finding.severity == "error"
    assert "does not parse" in finding.message


def test_select_and_ignore_filter_rules(tmp_path):
    files = {
        "src/repro/core/sloppy.py": """
def run(work):
    try:
        return work()
    except:
        return None
""",
        "src/repro/core/clocky.py": _CLOCKY,
    }
    both = _run(tmp_path, dict(files))
    assert {finding.rule for finding in both.findings} == {"REP001", "REP007"}
    selected = run_lint(
        tmp_path, config=LintConfig(baseline=None, select=("REP001",))
    )
    assert {finding.rule for finding in selected.findings} == {"REP001"}
    ignored = run_lint(
        tmp_path, config=LintConfig(baseline=None, ignore=("REP001",))
    )
    assert {finding.rule for finding in ignored.findings} == {"REP007"}


def test_collect_sources_rejects_missing_root(tmp_path):
    with pytest.raises(LintError, match="does not exist"):
        collect_sources(tmp_path, ("src/absent",))


def test_available_rules_covers_the_documented_suite():
    ids = [rule.rule_id for rule in available_rules()]
    assert ids == [f"REP00{n}" for n in (1, 2, 4, 5, 6, 7, 8, 9)]
    for rule in available_rules():
        assert rule.summary and rule.autofix_hint


def test_load_config_reads_pyproject_section(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        """
[tool.repro-lint]
roots = ["lib"]
ignore = ["REP006"]
baseline = "accepted.json"
deterministic-paths = ["lib/engine"]
"""
    )
    config = load_config(tmp_path)
    assert config.roots == ("lib",)
    assert config.ignore == ("REP006",)
    assert config.baseline == "accepted.json"
    assert config.deterministic_paths == ("lib/engine",)
    # Untouched keys keep their defaults.
    assert config.cli_module == "src/repro/cli.py"


def test_load_config_rejects_unknown_keys_and_bad_types(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\nrootz = ['x']\n")
    with pytest.raises(LintError, match="rootz"):
        load_config(tmp_path)
    (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\nroots = 3\n")
    with pytest.raises(LintError, match="list of strings"):
        load_config(tmp_path)


def test_load_config_defaults_without_pyproject(tmp_path):
    assert load_config(tmp_path) == LintConfig()
