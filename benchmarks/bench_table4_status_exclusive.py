"""Experiment ``table4``: status breakdown of single-tool alerts (paper Table 4).

Regenerates the HTTP-status breakdown restricted to requests alerted by
only one of the tools.  The paper's qualitative finding is an asymmetry:
the in-house tool's exclusive alerts are comparatively rich in 204/400/304
probe responses, while the commercial tool's exclusive alerts are almost
entirely ordinary 200/302 traffic.  The shape checks verify exactly that.
"""

from __future__ import annotations

from repro.bench.comparison import ShapeCheck
from repro.bench.expected import PAPER_TABLE4, paper_status_fractions
from repro.core.framestats import status_breakdown_from_frame
from repro.core.reporting import render_side_by_side, render_status_breakdown
from repro.logs.statuses import describe_status

#: Statuses characteristic of API probing (the in-house tool's specialty).
PROBE_STATUSES = (204, 400, 304)


def test_table4_status_breakdown_exclusive(benchmark, bench_experiment):
    result = bench_experiment
    frame = result.frame
    matrix = result.matrix

    def compute():
        single_vote = matrix.votes_per_request() == 1
        return {
            name: status_breakdown_from_frame(
                frame,
                matrix.column(name) & single_vote,
                name,
                dimension="http_status_exclusive",
                labelled=False,
            )
            for name in ("commercial", "inhouse")
        }

    tables = benchmark(compute)

    print()
    rendered = [
        render_status_breakdown(
            result.exclusive_status_tables[name], title=f"{name} only (reproduced)"
        )
        for name in ("inhouse", "commercial")
    ]
    print(render_side_by_side(rendered[0], rendered[1]))
    print()
    for tool in ("inhouse", "commercial"):
        paper_rows = ", ".join(f"{describe_status(s)}={c:,}" for s, c in PAPER_TABLE4[tool].items())
        print(f"Table 4 (paper, {tool} only): {paper_rows}")

    commercial_only = tables["commercial"]
    inhouse_only = tables["inhouse"]
    check = ShapeCheck("Table 4 shape: exclusive alerts status asymmetry")

    check.check_greater(
        "commercial-only larger than inhouse-only",
        commercial_only.total(),
        inhouse_only.total(),
        larger_label="commercial_only total",
        smaller_label="inhouse_only total",
    )
    check.check_dominant("commercial-only: 200 dominates", commercial_only.counts, 200)
    check.check_dominant("inhouse-only: 200 dominates", inhouse_only.counts, 200)

    commercial_paper = paper_status_fractions(PAPER_TABLE4, "commercial")
    check.check_fraction(
        "commercial-only: fraction of 200",
        commercial_only.counts.get(200, 0) / max(1, commercial_only.total()),
        commercial_paper[200],
        tolerance_factor=1.2,
    )

    inhouse_probe = sum(inhouse_only.counts.get(s, 0) for s in PROBE_STATUSES) / max(1, inhouse_only.total())
    commercial_probe = sum(commercial_only.counts.get(s, 0) for s in PROBE_STATUSES) / max(1, commercial_only.total())
    paper_inhouse_probe = sum(
        paper_status_fractions(PAPER_TABLE4, "inhouse").get(s, 0.0) for s in PROBE_STATUSES
    )
    check.check_greater(
        "inhouse-only richer in probe statuses (204/400/304) than commercial-only",
        inhouse_probe,
        commercial_probe,
        larger_label="inhouse probe fraction",
        smaller_label="commercial probe fraction",
    )
    check.check_fraction(
        "inhouse-only probe-status fraction",
        inhouse_probe,
        paper_inhouse_probe,
        tolerance_factor=2.5,
    )
    print()
    print(check.report())
    assert check.passed, check.report()
