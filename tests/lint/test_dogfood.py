"""The suite over the real repository: clean outside the baseline.

This is the no-false-positive test the rules must keep passing: the
shipping ``src/repro`` tree, linted with the shipping configuration,
produces zero findings beyond the checked-in baseline.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import load_config, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repository_is_lint_clean():
    report = run_lint(REPO_ROOT, config=load_config(REPO_ROOT))
    assert report.findings == [], [finding.render() for finding in report.findings]
    assert report.checked_files > 100
    assert report.stale_baseline == []


def test_repository_suppressions_are_the_documented_ones():
    # Every inline pragma in the tree is deliberate; this pins the count
    # so new suppressions show up in review rather than slipping by.
    report = run_lint(REPO_ROOT, config=load_config(REPO_ROOT))
    assert report.suppressed == 4
