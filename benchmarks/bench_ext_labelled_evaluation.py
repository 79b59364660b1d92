"""Experiment ``ext_labelled``: labelled evaluation of each tool (paper Section V).

The paper could not report sensitivity/specificity because its data was
not yet labelled; the synthetic data set carries ground truth, so this
extension experiment reports the per-tool confusion-matrix rates and the
per-actor-class detection rates that explain *why* the tools differ.
"""

from __future__ import annotations

from repro.bench.comparison import ShapeCheck
from repro.core.framestats import evaluate_matrix_from_frame, per_actor_rates_from_frame
from repro.core.reporting import render_evaluation_rows


def test_ext_labelled_evaluation(benchmark, bench_experiment):
    result = bench_experiment
    frame = result.frame
    matrix = result.matrix

    evaluations = benchmark(evaluate_matrix_from_frame, frame, matrix)

    print()
    print(render_evaluation_rows([e.as_dict() for e in evaluations], title="Per-tool labelled evaluation (extension)"))

    commercial_rates = per_actor_rates_from_frame(frame, matrix.column("commercial"))
    inhouse_rates = per_actor_rates_from_frame(frame, matrix.column("inhouse"))
    rows = [
        {"actor_class": actor, "commercial": commercial_rates[actor], "inhouse": inhouse_rates[actor]}
        for actor in sorted(commercial_rates)
    ]
    print()
    print(render_evaluation_rows(rows, title="Detection rate per actor class"))

    by_name = {evaluation.name: evaluation for evaluation in evaluations}
    check = ShapeCheck("Labelled evaluation shape")
    for name, evaluation in by_name.items():
        check.add(f"{name}: sensitivity above 0.9", evaluation.sensitivity > 0.9, f"sensitivity={evaluation.sensitivity:.4f}")
        check.add(f"{name}: specificity above 0.8", evaluation.specificity > 0.8, f"specificity={evaluation.specificity:.4f}")
    check.check_greater(
        "commercial catches stealth scraping better than inhouse",
        commercial_rates["stealth_scraper"],
        inhouse_rates["stealth_scraper"],
        larger_label="commercial",
        smaller_label="inhouse",
    )
    check.check_greater(
        "inhouse catches probing scraping better than commercial",
        inhouse_rates["probing_scraper"],
        commercial_rates["probing_scraper"],
        larger_label="inhouse",
        smaller_label="commercial",
    )
    check.check_greater(
        "both tools catch nearly all aggressive scraping",
        min(commercial_rates["aggressive_scraper"], inhouse_rates["aggressive_scraper"]),
        0.9,
        larger_label="min aggressive detection",
        smaller_label="0.9",
    )
    print()
    print(check.report())
    assert check.passed, check.report()
