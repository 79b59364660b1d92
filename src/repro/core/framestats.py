"""Frame-native analysis kernels (Tables 1-4 without per-record Python).

Every analysis the paper experiment reports -- the per-status breakdowns
of Tables 3 and 4, the double-fault diversity measure, the labelled
confusion matrices, the k-out-of-n adjudications and the per-actor
detection rates -- is a vectorized kernel here, over a
:class:`~repro.columns.RecordFrame` and the boolean alert columns of an
:class:`~repro.core.alerts.AlertMatrix`.  This is the one
implementation of each analysis; the result objects
(:class:`BreakdownTable`, :class:`PairwiseDiversity`,
:class:`DetectorEvaluation`) live in :mod:`repro.core.breakdown`,
:mod:`repro.core.metrics` and :mod:`repro.core.evaluation`.

A status breakdown is one ``np.bincount`` over the frame's cached status
dictionary, and a confusion matrix is four boolean reductions over the
label column; the golden batch fixtures pin their values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from repro.core.alerts import AlertMatrix
from repro.core.breakdown import BreakdownTable
from repro.core.confusion import ConfusionMatrix
from repro.core.diversity import diversity_breakdown
from repro.core.evaluation import DetectorEvaluation
from repro.core.metrics import (
    PairwiseDiversity,
    cohens_kappa,
    correlation_coefficient,
    disagreement_measure,
    entropy_measure,
    yules_q,
)
from repro.exceptions import AdjudicationError, AnalysisError, LabelError
from repro.logs.statuses import describe_status

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columns import RecordFrame


def _status_labels(frame: "RecordFrame", labelled: bool) -> list[object]:
    """The breakdown keys for the frame's distinct status values."""
    values, _codes = frame.status_dictionary()
    if labelled:
        return [describe_status(int(value)) for value in values]
    return [int(value) for value in values]


def status_breakdown_from_frame(
    frame: "RecordFrame",
    rows: npt.NDArray[np.bool_],
    detector: str,
    *,
    dimension: str = "http_status",
    labelled: bool = True,
) -> BreakdownTable:
    """Tables 3/4 kernel: a per-status count of the rows in a boolean mask.

    One ``np.bincount`` over the frame's cached status dictionary; only
    statuses that actually occur among the selected rows appear in the
    table, matching the record path's ``Counter`` behaviour.
    """
    _values, codes = frame.status_dictionary()
    labels = _status_labels(frame, labelled)
    counts = np.bincount(codes[rows], minlength=len(labels))
    table = {
        labels[index]: int(count) for index, count in enumerate(counts) if count
    }
    return BreakdownTable(detector=detector, dimension=dimension, counts=table)


def status_tables_from_frame(
    frame: "RecordFrame", matrix: AlertMatrix, names: Sequence[str]
) -> tuple[dict[str, BreakdownTable], dict[str, BreakdownTable]]:
    """Tables 3 and 4 for the named detectors in one pass.

    Returns ``(status_tables, exclusive_status_tables)``: the breakdown
    of every alerted row, and of the rows alerted by exactly that
    detector (the single-vote rows).
    """
    votes = matrix.votes_per_request()
    status_tables: dict[str, BreakdownTable] = {}
    exclusive_tables: dict[str, BreakdownTable] = {}
    for name in names:
        column = matrix.column(name)
        status_tables[name] = status_breakdown_from_frame(frame, column, name)
        exclusive_tables[name] = status_breakdown_from_frame(
            frame,
            column & (votes == 1),
            name,
            dimension="http_status_exclusive",
        )
    return status_tables, exclusive_tables


def double_fault_from_frame(
    frame: "RecordFrame", matrix: AlertMatrix, first: str, second: str
) -> float:
    """Fraction of malicious rows missed by both detectors (label column)."""
    if frame.labels is None:
        raise LabelError("data set has no ground truth labels")
    malicious = frame.labels != 0
    malicious_total = int(np.count_nonzero(malicious))
    if not malicious_total:
        raise AnalysisError("double-fault measure needs at least one malicious request")
    both_missed = int(
        np.count_nonzero(malicious & ~matrix.column(first) & ~matrix.column(second))
    )
    return both_missed / malicious_total


def pairwise_diversity_from_frame(
    frame: "RecordFrame", matrix: AlertMatrix, first: str, second: str
) -> PairwiseDiversity:
    """Every pairwise metric, with the double fault from the label column.

    The double fault is ``None`` when the frame is unlabelled or holds no
    malicious row: Tables 1-4 need no labels, and all-benign labelled
    traffic (a human-only capture, a sampled trace window) still renders.
    """
    breakdown = diversity_breakdown(matrix, first, second)
    double_fault = None
    if frame.labels is not None and np.any(frame.labels != 0):
        double_fault = double_fault_from_frame(frame, matrix, first, second)
    return PairwiseDiversity(
        first_detector=first,
        second_detector=second,
        breakdown=breakdown,
        kappa=cohens_kappa(breakdown),
        q_statistic=yules_q(breakdown),
        correlation=correlation_coefficient(breakdown),
        disagreement=disagreement_measure(breakdown),
        entropy=entropy_measure(breakdown),
        double_fault=double_fault,
    )


def confusion_from_flags(
    labels: npt.NDArray[np.int64], flags: npt.NDArray[np.bool_]
) -> ConfusionMatrix:
    """A confusion matrix from the label column and one boolean alert column."""
    malicious = labels != 0
    return ConfusionMatrix(
        true_positives=int(np.count_nonzero(malicious & flags)),
        false_positives=int(np.count_nonzero(~malicious & flags)),
        true_negatives=int(np.count_nonzero(~malicious & ~flags)),
        false_negatives=int(np.count_nonzero(malicious & ~flags)),
    )


def evaluate_matrix_from_frame(
    frame: "RecordFrame", matrix: AlertMatrix
) -> list[DetectorEvaluation]:
    """Labelled evaluation of every detector column (no id lookups)."""
    if frame.labels is None:
        raise LabelError("data set has no ground truth labels")
    labels = frame.labels
    return [
        DetectorEvaluation(name=name, confusion=confusion_from_flags(labels, matrix.column(name)))
        for name in matrix.detector_names
    ]


def k_out_of_n_name(k: int, n: int) -> str:
    """The name of the k-out-of-n rule, ``"{k}-out-of-{n}"``.

    Raises :class:`~repro.exceptions.AdjudicationError` unless ``k`` is
    between 1 and ``n``: the one vote-threshold check, shared by the batch
    kernel and the stream's :class:`~repro.stream.adjudicator.WindowedAdjudicator`.
    """
    if not 1 <= k <= n:
        raise AdjudicationError(f"k must be between 1 and {n}, got {k}")
    return f"{k}-out-of-{n}"


def k_out_of_n(
    votes: npt.NDArray[np.int64], k: int, n: int
) -> tuple[str, npt.NDArray[np.bool_]]:
    """The k-out-of-n adjudication of per-row vote counts: name and flag column.

    A row alerts when at least ``k`` of the ``n`` detectors alerted on it:
    ``k=1`` is the paper's 1-out-of-2, ``k=n`` its 2-out-of-2, and
    ``k = n // 2 + 1`` a strict majority.
    """
    return k_out_of_n_name(k, n), votes >= k


def weighted_vote(
    matrix: AlertMatrix, weights: Mapping[str, float], *, threshold: float = 0.5
) -> npt.NDArray[np.bool_]:
    """Rows whose weighted detector vote reaches a share of the total weight.

    Weights are given per detector name; missing names weigh 1.0.  The
    threshold is a fraction of the total weight, so ``threshold=0.5`` is
    a weighted majority.
    """
    if not 0.0 < threshold <= 1.0:
        raise AdjudicationError("threshold must be in (0, 1]")
    if any(weight < 0 for weight in weights.values()):
        raise AdjudicationError("detector weights must be non-negative")
    weight_vector = np.array(
        [weights.get(name, 1.0) for name in matrix.detector_names], dtype=float
    )
    total_weight = weight_vector.sum()
    if total_weight <= 0:
        raise AdjudicationError("the total detector weight must be positive")
    flags: npt.NDArray[np.bool_] = (
        matrix.values.astype(float) @ weight_vector >= threshold * total_weight
    )
    return flags


def evaluate_ensemble_from_frame(
    frame: "RecordFrame", matrix: AlertMatrix, *, ks: Sequence[int] | None = None
) -> list[DetectorEvaluation]:
    """Labelled evaluation of the k-out-of-N adjudications (vote threshold)."""
    if frame.labels is None:
        raise LabelError("data set has no ground truth labels")
    labels = frame.labels
    n = matrix.n_detectors
    votes = matrix.votes_per_request()
    evaluations = []
    for k in range(1, n + 1) if ks is None else ks:
        name, flags = k_out_of_n(votes, k, n)
        evaluations.append(
            DetectorEvaluation(name=name, confusion=confusion_from_flags(labels, flags))
        )
    return evaluations


def per_actor_rates_from_frame(
    frame: "RecordFrame", flags: npt.NDArray[np.bool_]
) -> dict[str, float]:
    """Detection rate per ground-truth actor class, from the actor dictionary.

    Two ``np.bincount`` calls over the actor-code column; an empty actor
    class is reported as ``"unknown"`` (the per-class dictionaries merge
    colliding table entries).
    """
    if frame.labels is None:
        raise LabelError("data set has no ground truth labels")
    if frame.actor_codes is None:
        codes = np.zeros(len(frame), dtype=np.int64)
        table = [""]
    else:
        codes = frame.actor_codes
        table = list(frame.actor_table)
    minlength = len(table)
    per_class_total = np.bincount(codes, minlength=minlength)
    per_class_caught = np.bincount(codes[flags], minlength=minlength)
    totals: dict[str, int] = {}
    caught: dict[str, int] = {}
    for index, actor in enumerate(table):
        if not per_class_total[index]:
            continue
        name = actor or "unknown"
        totals[name] = totals.get(name, 0) + int(per_class_total[index])
        caught[name] = caught.get(name, 0) + int(per_class_caught[index])
    return {
        actor: caught.get(actor, 0) / count for actor, count in sorted(totals.items())
    }
