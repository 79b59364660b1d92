"""Experiment ``ext_diversity_metrics``: quantifying the tools' diversity.

The paper reports raw agreement counts; the diversity-for-security
literature it builds on quantifies the same information with pairwise
statistics.  This extension computes Cohen's kappa, Yule's Q, the
disagreement measure, the joint-outcome entropy and (since the synthetic
data is labelled) the double-fault measure, both for the reproduced
experiment and for the paper's published Table 2 counts.
"""

from __future__ import annotations

from repro.bench.comparison import ShapeCheck
from repro.bench.expected import PAPER_TABLE2
from repro.core.diversity import DiversityBreakdown
from repro.core.framestats import pairwise_diversity_from_frame
from repro.core.metrics import cohens_kappa, disagreement_measure, yules_q
from repro.core.reporting import render_evaluation_rows


def _paper_breakdown() -> DiversityBreakdown:
    return DiversityBreakdown(
        first_detector="commercial",
        second_detector="inhouse",
        both=PAPER_TABLE2["both"],
        neither=PAPER_TABLE2["neither"],
        first_only=PAPER_TABLE2["commercial_only"],
        second_only=PAPER_TABLE2["inhouse_only"],
    )


def test_ext_diversity_metrics(benchmark, bench_experiment):
    result = bench_experiment
    metrics = benchmark(
        pairwise_diversity_from_frame, result.frame, result.matrix, "commercial", "inhouse"
    )

    paper = _paper_breakdown()
    rows = [
        {"source": "reproduced", **metrics.as_dict()},
        {
            "source": "paper (Table 2 counts)",
            "kappa": cohens_kappa(paper),
            "q_statistic": yules_q(paper),
            "disagreement": disagreement_measure(paper),
        },
    ]
    print()
    print(render_evaluation_rows(rows, title="Pairwise diversity metrics"))

    check = ShapeCheck("Diversity metric shape")
    check.check_fraction("disagreement", metrics.disagreement, disagreement_measure(paper), tolerance_factor=2.5)
    check.add("kappa strongly positive", metrics.kappa > 0.5, f"kappa={metrics.kappa:.4f}")
    check.add("Yule's Q strongly positive", metrics.q_statistic > 0.8, f"Q={metrics.q_statistic:.4f}")
    check.add(
        "double-fault small (the tools rarely miss together)",
        metrics.double_fault is not None and metrics.double_fault < 0.1,
        f"double_fault={metrics.double_fault}",
    )
    check.check_greater(
        "agreement rate comparable to the paper's",
        metrics.breakdown.agreement_rate() + 0.05,
        paper.agreement_rate(),
        larger_label="reproduced + 0.05",
        smaller_label="paper",
    )
    print()
    print(check.report())
    assert check.passed, check.report()
