"""Drill-down: why does each tool alert on requests the other misses?

The paper's Section V plans "to look more closely into the alerts
generated by only one of the tools, to get a better understanding on the
possible reasons why a given tool is more appropriate to detect certain
behaviors".  This example performs that drill-down on synthetic traffic:
it slices the single-tool alerts by HTTP status, by day and by alert
reason, and cross-references them with the ground-truth actor classes.

Run with::

    python examples/log_analysis_drilldown.py
"""

from __future__ import annotations

from collections import Counter

from repro.columns import RecordFrame
from repro.core.framestats import status_breakdown_from_frame
from repro.core.reporting import render_evaluation_rows, render_status_breakdown
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.pipeline import run_detectors
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import amadeus_march_2018


def main() -> int:
    dataset = generate_dataset(amadeus_march_2018(scale=0.01, seed=7))
    result = run_detectors(dataset, [CommercialBotDefenceDetector(), InHouseHeuristicDetector()])
    matrix = result.matrix
    frame = RecordFrame.from_dataset(dataset)
    single_vote = matrix.votes_per_request() == 1
    truth = dataset.ground_truth

    for tool, other in (("commercial", "inhouse"), ("inhouse", "commercial")):
        exclusive = matrix.alerted_by_exactly(tool)
        print(f"=== Requests alerted by {tool} only ({len(exclusive):,} requests) ===\n")

        # 1. Which actors generated them? (ground truth, not available to the tools)
        actor_counts = Counter(truth.actor_class_of(rid) for rid in exclusive)
        rows = [
            {"actor_class": actor, "requests": count, "share": count / max(1, len(exclusive))}
            for actor, count in actor_counts.most_common()
        ]
        print(render_evaluation_rows(rows, title=f"Ground-truth origin of {tool}-only alerts"))
        print()

        # 2. The paper's Table 4 dimension: HTTP status.
        status_table = status_breakdown_from_frame(
            frame, matrix.column(tool) & single_vote, tool
        )
        print(render_status_breakdown(status_table, title=f"{tool}-only alerts by HTTP status"))
        print()

        # 3. Which detection reasons produced them?
        alert_set = result.alert_set(tool)
        reason_counts: Counter[str] = Counter()
        for rid in exclusive:
            alert = alert_set.get(rid)
            if alert is None:
                continue
            for reason in alert.reasons:
                reason_counts[reason.split(":")[0]] += 1
        rows = [{"reason": reason, "alerts": count} for reason, count in reason_counts.most_common(6)]
        print(render_evaluation_rows(rows, title=f"Top alert reasons behind {tool}-only alerts"))
        print()

        # 4. Stability over the eight days.
        alerted = matrix.alerted_by(tool)
        per_day = Counter(record.day for record in dataset if record.request_id in alerted)
        rows = [{"day": day, "alerts": count} for day, count in sorted(per_day.items())]
        print(render_evaluation_rows(rows, title=f"All {tool} alerts per day"))
        print("\n")

    print("Reading the output: the commercial tool's exclusive alerts come from "
          "the paced stealth campaign (clean 200/302 traffic caught on "
          "behaviour), while the in-house tool's exclusive alerts come from the "
          "API-probing campaign (204/400/304-heavy traffic caught by the "
          "error-probe rules) plus a few heavy human sessions near the rate "
          "threshold -- its false positives.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
