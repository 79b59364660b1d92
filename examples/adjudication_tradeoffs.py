"""Extension study: adjudication schemes and their FP/FN trade-offs.

The paper's Section V asks whether the observed diversity is useful, and
proposes answering it with adjudication schemes (1-out-of-2 vs 2-out-of-2)
once labels exist.  This example runs that analysis on labelled synthetic
traffic -- for the two stand-in tools and for a five-member ensemble that
adds stand-alone statistical detectors -- and prints the full
sensitivity/specificity trade-off curve, plus weighted-voting variants.

Run with::

    python examples/adjudication_tradeoffs.py
"""

from __future__ import annotations

from itertools import combinations

from repro.columns import RecordFrame
from repro.core.evaluation import DetectorEvaluation
from repro.core.framestats import (
    confusion_from_flags,
    evaluate_ensemble_from_frame,
    evaluate_matrix_from_frame,
    pairwise_diversity_from_frame,
    weighted_vote,
)
from repro.core.reporting import render_evaluation_rows
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.naive_bayes import NaiveBayesRobotDetector
from repro.detectors.pipeline import DetectionPipeline
from repro.detectors.ratelimit import RateLimitDetector
from repro.detectors.reputation import IPReputationDetector
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small


def main() -> int:
    # A balanced scenario makes the specificity side of the trade-off visible
    # (the calibrated bot-dominated scenario has very little benign traffic).
    dataset = generate_dataset(balanced_small(total_requests=12_000, seed=41))
    print(f"Scenario: {len(dataset):,} requests, {dataset.malicious_fraction():.1%} malicious.\n")
    frame = RecordFrame.from_dataset(dataset)

    # ------------------------------------------------------------------
    # The paper's two tools.
    # ------------------------------------------------------------------
    two_tools = DetectionPipeline(
        [CommercialBotDefenceDetector(), InHouseHeuristicDetector()]
    ).run_frame(frame)
    rows = [evaluation.as_dict() for evaluation in evaluate_matrix_from_frame(frame, two_tools.matrix)]
    labels = ("1-out-of-2 (either tool)", "2-out-of-2 (both tools)")
    for label, scheme in zip(labels, evaluate_ensemble_from_frame(frame, two_tools.matrix)):
        rows.append(DetectorEvaluation(name=label, confusion=scheme.confusion).as_dict())
    print(render_evaluation_rows(rows, title="Two tools and their adjudications"))
    print()

    # ------------------------------------------------------------------
    # A five-member diverse ensemble.
    # ------------------------------------------------------------------
    ensemble = DetectionPipeline(
        [
            CommercialBotDefenceDetector(),
            InHouseHeuristicDetector(),
            RateLimitDetector(threshold_rpm=45),
            IPReputationDetector(),
            NaiveBayesRobotDetector(),
        ],
    ).run_frame(frame)
    points = [
        {
            "scheme": evaluation.name,
            "sensitivity": evaluation.sensitivity,
            "specificity": evaluation.specificity,
            "precision": evaluation.precision,
            "f1": evaluation.f1,
        }
        for evaluation in evaluate_ensemble_from_frame(frame, ensemble.matrix)
    ]
    print(render_evaluation_rows(points, title="k-out-of-5 trade-off curve"))
    print()

    weighted = weighted_vote(
        ensemble.matrix,
        {"commercial": 2.0, "inhouse": 2.0, "rate-limit": 1.0, "ip-reputation": 0.5, "naive-bayes": 1.0},
        threshold=0.4,
    )
    weighted_confusion = confusion_from_flags(frame.labels, weighted)
    weighted_row = DetectorEvaluation(name="weighted(0.4)", confusion=weighted_confusion).as_dict()
    print(render_evaluation_rows([weighted_row], title="Weighted voting (composite tools weighted double)"))
    print()

    # ------------------------------------------------------------------
    # How diverse are the ensemble members?
    # ------------------------------------------------------------------
    pair_rows = []
    for first, second in combinations(ensemble.matrix.detector_names, 2):
        pair = pairwise_diversity_from_frame(frame, ensemble.matrix, first, second)
        pair_rows.append(
            {
                "pair": f"{pair.first_detector} / {pair.second_detector}",
                "kappa": pair.kappa,
                "disagreement": pair.disagreement,
                "double_fault": pair.double_fault if pair.double_fault is not None else float("nan"),
            }
        )
    print(render_evaluation_rows(pair_rows, title="Pairwise diversity within the ensemble"))
    print()
    print("Reading the tables: 1-out-of-N maximises sensitivity (nothing slips "
          "past every detector), N-out-of-N maximises specificity (no tool "
          "alone can cause a false alarm), and the useful operating points "
          "lie in between -- the trade-off the paper's Section V describes.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
