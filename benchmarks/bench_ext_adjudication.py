"""Experiment ``ext_adjudication``: 1-out-of-N / 2-out-of-N adjudication (paper Section V).

The paper proposes evaluating the tools under adjudication schemes
(1-out-of-2 raises an alarm when either tool does, 2-out-of-2 only when
both do).  This extension evaluates those schemes -- and, as a further
extension, a five-member ensemble including the stand-alone statistical
detectors -- against the ground truth.
"""

from __future__ import annotations

from repro.bench.comparison import ShapeCheck
from repro.core.framestats import evaluate_ensemble_from_frame
from repro.core.reporting import render_evaluation_rows
from repro.detectors.commercial import CommercialBotDefenceDetector
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.naive_bayes import NaiveBayesRobotDetector
from repro.detectors.pipeline import DetectionPipeline
from repro.detectors.ratelimit import RateLimitDetector
from repro.detectors.reputation import IPReputationDetector


def test_ext_adjudication_two_tools(benchmark, bench_experiment):
    result = bench_experiment
    evaluations = benchmark(evaluate_ensemble_from_frame, result.frame, result.matrix)

    print()
    print(render_evaluation_rows([e.as_dict() for e in evaluations], title="Adjudication schemes over the two tools"))

    singles = {evaluation.name: evaluation for evaluation in result.tool_evaluations}
    union = evaluations[0]
    strict = evaluations[-1]

    check = ShapeCheck("Adjudication shape (two tools)")
    check.check_greater(
        "1-out-of-2 sensitivity >= best single tool",
        union.sensitivity + 1e-12,
        max(e.sensitivity for e in singles.values()),
        larger_label="1oo2",
        smaller_label="best single",
    )
    check.check_greater(
        "2-out-of-2 specificity >= best single tool",
        strict.specificity + 1e-12,
        max(e.specificity for e in singles.values()),
        larger_label="2oo2",
        smaller_label="best single",
    )
    check.check_greater(
        "2-out-of-2 trades sensitivity for specificity",
        union.sensitivity + 1e-12,
        strict.sensitivity,
        larger_label="1oo2 sensitivity",
        smaller_label="2oo2 sensitivity",
    )
    print()
    print(check.report())
    assert check.passed, check.report()


def test_ext_adjudication_five_detector_ensemble(benchmark, bench_frame):
    """k-out-of-5 trade-off curve over a more diverse detector ensemble."""
    detectors = [
        CommercialBotDefenceDetector(),
        InHouseHeuristicDetector(),
        RateLimitDetector(threshold_rpm=45),
        IPReputationDetector(),
        NaiveBayesRobotDetector(),
    ]
    frame = bench_frame[0]
    matrix = DetectionPipeline(detectors).run_frame(frame).matrix

    def tradeoff():
        return [
            {
                "scheme": evaluation.name,
                "sensitivity": evaluation.sensitivity,
                "specificity": evaluation.specificity,
                "precision": evaluation.precision,
                "f1": evaluation.f1,
            }
            for evaluation in evaluate_ensemble_from_frame(frame, matrix)
        ]

    points = benchmark(tradeoff)

    print()
    print(render_evaluation_rows(points, title="k-out-of-5 sensitivity/specificity trade-off"))

    check = ShapeCheck("Adjudication shape (five detectors)")
    sensitivities = [point["sensitivity"] for point in points]
    specificities = [point["specificity"] for point in points]
    check.add(
        "sensitivity non-increasing in k",
        all(a >= b - 1e-12 for a, b in zip(sensitivities, sensitivities[1:])),
        f"sensitivities={['%.3f' % s for s in sensitivities]}",
    )
    check.add(
        "specificity non-decreasing in k",
        all(b >= a - 1e-12 for a, b in zip(specificities, specificities[1:])),
        f"specificities={['%.3f' % s for s in specificities]}",
    )
    check.check_greater(
        "1-out-of-5 reaches near-total coverage",
        sensitivities[0],
        0.95,
        larger_label="1oo5 sensitivity",
        smaller_label="0.95",
    )
    print()
    print(check.report())
    assert check.passed, check.report()
