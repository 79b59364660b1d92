"""Experiment ``table3``: alerted requests by HTTP status, overall counts (paper Table 3).

Regenerates the per-tool breakdown of alerted requests by HTTP status,
prints both columns next to the paper's, and checks the shape: status 200
dominates, 302 comes second, and both tools' alert populations contain the
long tail of 204/400/304/404/500 responses the paper lists.
"""

from __future__ import annotations

from repro.bench.comparison import ShapeCheck
from repro.bench.expected import PAPER_TABLE3, paper_status_fractions
from repro.core.framestats import status_breakdown_from_frame
from repro.core.reporting import render_side_by_side, render_status_breakdown
from repro.logs.statuses import describe_status


def test_table3_status_breakdown_overall(benchmark, bench_experiment):
    result = bench_experiment
    frame = result.frame
    matrix = result.matrix

    def compute():
        return {
            name: status_breakdown_from_frame(frame, matrix.column(name), name, labelled=False)
            for name in ("commercial", "inhouse")
        }

    tables = benchmark(compute)

    print()
    rendered = [
        render_status_breakdown(result.status_tables[name], title=f"{name} (reproduced)")
        for name in ("inhouse", "commercial")
    ]
    print(render_side_by_side(rendered[0], rendered[1]))
    print()
    for tool in ("inhouse", "commercial"):
        paper_rows = ", ".join(f"{describe_status(s)}={c:,}" for s, c in PAPER_TABLE3[tool].items())
        print(f"Table 3 (paper, {tool}): {paper_rows}")

    check = ShapeCheck("Table 3 shape: status mix of alerted requests")
    for tool in ("commercial", "inhouse"):
        counts = tables[tool].counts
        total = tables[tool].total()
        paper = paper_status_fractions(PAPER_TABLE3, tool)
        check.check_dominant(f"{tool}: 200 dominates", counts, 200)
        check.check_fraction(f"{tool}: fraction of 200", counts.get(200, 0) / total, paper[200], tolerance_factor=1.2)
        check.check_fraction(f"{tool}: fraction of 302", counts.get(302, 0) / total, paper[302], tolerance_factor=3.0)
        check.check_greater(
            f"{tool}: 302 is the second-largest status",
            counts.get(302, 0),
            max((count for status, count in counts.items() if status not in (200, 302)), default=0),
            larger_label="302",
            smaller_label="next largest",
        )
        for status in (204, 400):
            check.add(
                f"{tool}: status {status} present among alerted requests",
                counts.get(status, 0) > 0,
                f"count={counts.get(status, 0)}",
            )
    print()
    print(check.report())
    assert check.passed, check.report()
