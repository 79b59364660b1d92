"""The ``repro lint`` subcommand: output modes, gating, baseline flow."""

from __future__ import annotations

import json

from repro.cli import main
from tests.lint.util import write_tree

_CLOCKY = """
import time

def stamp():
    return time.time()
"""

_CLEAN = """
def stamp():
    return 0.0
"""


def _project(tmp_path, source=_CLOCKY):
    write_tree(tmp_path, {"src/repro/core/clocky.py": source})
    return str(tmp_path)


def test_lint_reports_findings_and_fails_the_gate(tmp_path, capsys):
    code = main(["lint", "--root", _project(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "REP001" in out
    assert "clocky.py:5:" in out
    assert "1 error(s)" in out


def test_lint_clean_tree_exits_zero(tmp_path, capsys):
    code = main(["lint", "--root", _project(tmp_path, _CLEAN)])
    out = capsys.readouterr().out
    assert code == 0
    assert "no findings" in out


def test_lint_fail_on_threshold(tmp_path, capsys):
    # A swallowed except in an engine path is a warning: --fail-on error
    # lets it pass, the default (warning) does not.
    root = str(tmp_path)
    write_tree(
        tmp_path,
        {
            "src/repro/core/soft.py": """
def run(work):
    try:
        return work()
    except ValueError:
        pass
"""
        },
    )
    assert main(["lint", "--root", root, "--fail-on", "error"]) == 0
    assert main(["lint", "--root", root]) == 1
    capsys.readouterr()


def test_lint_json_output_round_trips(tmp_path, capsys):
    code = main(["lint", "--root", _project(tmp_path), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["format"] == "repro-lint"
    assert payload["counts"] == {"error": 1}
    (finding,) = payload["findings"]
    assert finding["rule"] == "REP001"
    assert finding["path"] == "src/repro/core/clocky.py"


def test_lint_update_baseline_then_clean(tmp_path, capsys):
    root = _project(tmp_path)
    assert main(["lint", "--root", root]) == 1
    assert main(["lint", "--root", root, "--update-baseline"]) == 0
    assert (tmp_path / "lint-baseline.json").is_file()
    assert main(["lint", "--root", root]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out

    # --no-baseline sees through the accepted findings again.
    assert main(["lint", "--root", root, "--no-baseline"]) == 1
    capsys.readouterr()


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in [f"REP00{n}" for n in (1, 2, 4, 5, 6, 7, 8, 9)]:
        assert rule_id in out
    assert "REP003" not in out
    assert "fix:" in out


def test_lint_list_rules_json(capsys):
    assert main(["lint", "--list-rules", "--json"]) == 0
    rules = json.loads(capsys.readouterr().out)
    assert [rule["rule"] for rule in rules] == [f"REP00{n}" for n in (1, 2, 4, 5, 6, 7, 8, 9)]
