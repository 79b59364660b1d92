"""Diversity analysis core -- the paper's primary contribution.

This package implements the analysis the paper performs on the alerts of
two (or more) scraping detectors observing the same HTTP traffic:

* :mod:`repro.core.alerts` -- alerts, per-detector alert sets and the
  request x detector alert matrix.
* :mod:`repro.core.diversity` -- the both/neither/only-one breakdown of
  Table 2, generalised to N detectors.
* :mod:`repro.core.framestats` -- the frame-native kernels: the HTTP
  status breakdowns of Tables 3 and 4, the double-fault measure, the
  labelled confusion matrices, the k-out-of-n and weighted-vote
  adjudications and the per-actor detection rates, each computed once
  over a :class:`~repro.columns.RecordFrame`.
* :mod:`repro.core.breakdown` -- the breakdown table of Tables 3 and 4.
* :mod:`repro.core.metrics` -- pairwise diversity measures (Cohen's kappa,
  Yule's Q, disagreement, entropy) and their aggregate.
* :mod:`repro.core.confusion` -- confusion matrices and derived rates.
* :mod:`repro.core.evaluation` -- the labelled evaluation record of a
  detector or adjudicated ensemble.
* :mod:`repro.core.configurations` -- parallel vs. serial deployment
  configurations with their detection/cost trade-offs.
* :mod:`repro.core.reporting` -- plain-text rendering of the paper's
  tables.
* :mod:`repro.core.experiment` -- the end-to-end experiment runner that
  regenerates every table of the paper in one call.
"""

from repro.core.alerts import Alert, AlertMatrix, AlertSet
from repro.core.breakdown import BreakdownTable
from repro.core.configurations import ConfigurationComparison, compare_configurations
from repro.core.confusion import ConfusionMatrix
from repro.core.diversity import DiversityBreakdown, diversity_breakdown, multi_detector_breakdown
from repro.core.evaluation import DetectorEvaluation
from repro.core.experiment import ExperimentResult, PaperExperiment
from repro.core.framestats import (
    confusion_from_flags,
    evaluate_ensemble_from_frame,
    evaluate_matrix_from_frame,
    k_out_of_n,
    pairwise_diversity_from_frame,
    per_actor_rates_from_frame,
    status_breakdown_from_frame,
    status_tables_from_frame,
    weighted_vote,
)
from repro.core.metrics import (
    PairwiseDiversity,
    cohens_kappa,
    correlation_coefficient,
    disagreement_measure,
    entropy_measure,
    yules_q,
)
from repro.core.reporting import render_table

__all__ = [
    "Alert",
    "AlertMatrix",
    "AlertSet",
    "BreakdownTable",
    "ConfigurationComparison",
    "ConfusionMatrix",
    "DetectorEvaluation",
    "DiversityBreakdown",
    "ExperimentResult",
    "PairwiseDiversity",
    "PaperExperiment",
    "cohens_kappa",
    "compare_configurations",
    "confusion_from_flags",
    "correlation_coefficient",
    "disagreement_measure",
    "diversity_breakdown",
    "entropy_measure",
    "evaluate_ensemble_from_frame",
    "evaluate_matrix_from_frame",
    "k_out_of_n",
    "multi_detector_breakdown",
    "pairwise_diversity_from_frame",
    "per_actor_rates_from_frame",
    "render_table",
    "status_breakdown_from_frame",
    "status_tables_from_frame",
    "weighted_vote",
    "yules_q",
]
