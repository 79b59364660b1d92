"""Experiment ``ext_serial_parallel``: parallel vs serial deployments (paper Section V).

The paper proposes analysing the FP/FN trade-offs of deploying the tools
in parallel (both monitor everything) versus serially (one tool filters
the traffic the second analyses).  This extension runs both deployments
(plus both serial orders and modes) on the calibrated scenario and
reports detection quality alongside the workload each tool carries.
"""

from __future__ import annotations

from repro.bench.comparison import ShapeCheck
from repro.core.configurations import compare_configurations
from repro.core.reporting import render_evaluation_rows
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector


def test_ext_serial_vs_parallel_configurations(benchmark, bench_experiment):
    def compute():
        return compare_configurations(
            bench_experiment.frame,
            bench_experiment.matrix,
            CommercialBotDefenceDetector(),
            InHouseHeuristicDetector(),
        )

    comparison = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = []
    for outcome in comparison.outcomes:
        row = {
            "configuration": outcome.name,
            "alerts": outcome.alert_count,
            "workload": outcome.total_workload,
            "sensitivity": outcome.confusion.sensitivity(),
            "specificity": outcome.confusion.specificity(),
            "f1": outcome.confusion.f1_score(),
        }
        rows.append(row)
    print()
    print(render_evaluation_rows(rows, title="Parallel vs serial deployment configurations"))

    parallel_union = comparison.by_name("parallel-1oo2")
    parallel_strict = comparison.by_name("parallel-2oo2")
    serial_confirm = comparison.by_name("serial-confirm(commercial->inhouse)")
    serial_escalate = comparison.by_name("serial-escalate(commercial->inhouse)")

    check = ShapeCheck("Serial vs parallel shape")
    check.check_greater(
        "parallel 1oo2 has the highest sensitivity",
        parallel_union.confusion.sensitivity() + 1e-12,
        max(o.confusion.sensitivity() for o in comparison.outcomes if o.name != "parallel-1oo2"),
        larger_label="parallel-1oo2",
        smaller_label="best other",
    )
    check.check_greater(
        "parallel 2oo2 has at least the specificity of 1oo2",
        parallel_strict.confusion.specificity() + 1e-12,
        parallel_union.confusion.specificity(),
        larger_label="parallel-2oo2",
        smaller_label="parallel-1oo2",
    )
    check.check_greater(
        "serial deployments reduce total workload vs parallel",
        parallel_union.total_workload,
        serial_confirm.total_workload,
        larger_label="parallel workload",
        smaller_label="serial-confirm workload",
    )
    check.check_greater(
        "serial-escalate keeps (near) union sensitivity",
        serial_escalate.confusion.sensitivity() + 1e-9,
        parallel_union.confusion.sensitivity() - 0.02,
        larger_label="serial-escalate",
        smaller_label="parallel-1oo2 - 0.02",
    )
    check.check_greater(
        "serial-confirm matches 2oo2 specificity",
        serial_confirm.confusion.specificity() + 1e-9,
        parallel_strict.confusion.specificity() - 0.02,
        larger_label="serial-confirm",
        smaller_label="parallel-2oo2 - 0.02",
    )
    print()
    print(check.report())
    assert check.passed, check.report()
