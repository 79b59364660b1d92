"""Extension study: parallel vs serial deployment of the two tools.

The paper's Section V proposes comparing parallel deployments (both tools
monitor all the traffic) with serial ones (one tool filters the traffic
that the second tool then analyses).  This example quantifies that
comparison on labelled synthetic traffic: detection quality (sensitivity,
specificity, F1) against the workload each tool has to carry.

Run with::

    python examples/serial_vs_parallel.py
"""

from __future__ import annotations

from repro.core.configurations import compare_configurations
from repro.core.experiment import PaperExperiment
from repro.core.reporting import render_evaluation_rows
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import amadeus_march_2018


def main() -> int:
    dataset = generate_dataset(amadeus_march_2018(scale=0.01, seed=2018))
    print(f"Scenario: {len(dataset):,} requests over 8 days, "
          f"{dataset.malicious_fraction():.1%} malicious (calibrated mix).\n")

    # Both tools run once over all the traffic (the parallel deployment);
    # the serial deployments re-judge only the rows the first tool forwards.
    experiment = PaperExperiment()
    result = experiment.run_on(dataset)
    comparison = compare_configurations(
        result.frame,
        result.matrix,
        experiment.first_detector,
        experiment.second_detector,
    )

    rows = []
    for outcome in comparison.outcomes:
        confusion = outcome.confusion
        rows.append(
            {
                "configuration": outcome.name,
                "alerts": outcome.alert_count,
                "tool1_workload": outcome.workload[list(outcome.workload)[0]],
                "tool2_workload": outcome.workload[list(outcome.workload)[1]],
                "sensitivity": confusion.sensitivity(),
                "specificity": confusion.specificity(),
                "f1": confusion.f1_score(),
            }
        )
    print(render_evaluation_rows(rows, title="Deployment configurations compared"))
    print()

    parallel = comparison.by_name("parallel-1oo2")
    confirm = comparison.by_name("serial-confirm(commercial->inhouse)")
    escalate = comparison.by_name("serial-escalate(commercial->inhouse)")
    saved_confirm = 1 - confirm.total_workload / parallel.total_workload
    saved_escalate = 1 - escalate.total_workload / parallel.total_workload
    print("Summary:")
    print(f"  parallel 1-out-of-2: highest sensitivity ({parallel.confusion.sensitivity():.3f}), "
          "both tools process every request.")
    print("  serial confirm (commercial -> inhouse): specificity of 2-out-of-2 "
          f"({confirm.confusion.specificity():.3f}) while the second tool processes "
          f"{confirm.workload['inhouse']:,} requests ({saved_confirm:.0%} less total work).")
    print(f"  serial escalate (commercial -> inhouse): sensitivity {escalate.confusion.sensitivity():.3f} "
          f"at {saved_escalate:.0%} less total work -- the second tool only inspects what the first let through.")
    print()
    print("The best configuration therefore depends on whether the operator is "
          "limited by missed scrapers (deploy in parallel, alarm on either tool) "
          "or by analyst workload and false alarms (deploy serially).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
