"""Pairwise diversity metrics.

The paper reports raw agreement counts; the diversity literature it cites
(Littlewood & Strigini 2004; Garcia et al. 2014; Bishop et al. 2011)
quantifies diversity with pairwise statistics over the same 2x2
contingency table.  This module implements the standard set:

* Cohen's kappa (chance-corrected agreement),
* Yule's Q statistic,
* the phi/correlation coefficient,
* the disagreement measure,
* the double-fault measure (requires ground truth), and
* the entropy of the joint alerting behaviour.

All pairwise metrics but the double fault are computed from a
:class:`~repro.core.diversity.DiversityBreakdown`, so they apply equally
to labelled and unlabelled data.  The double fault needs the label
column; :func:`repro.core.framestats.pairwise_diversity_from_frame`
computes it and assembles the :class:`PairwiseDiversity` aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.diversity import DiversityBreakdown


# ----------------------------------------------------------------------
# Individual metrics
# ----------------------------------------------------------------------
def cohens_kappa(breakdown: DiversityBreakdown) -> float:
    """Chance-corrected agreement between the two detectors.

    1.0 means perfect agreement, 0.0 means agreement at chance level and
    negative values mean systematic disagreement.
    """
    n = breakdown.total
    if n == 0:
        return 1.0
    observed = breakdown.agreement / n
    p_first = breakdown.first_total / n
    p_second = breakdown.second_total / n
    expected = p_first * p_second + (1 - p_first) * (1 - p_second)
    if math.isclose(expected, 1.0):
        return 1.0
    return (observed - expected) / (1 - expected)


def yules_q(breakdown: DiversityBreakdown) -> float:
    """Yule's Q statistic over the 2x2 alerting table.

    +1 when the detectors always alert together, -1 when they never do,
    0 when their alerts are independent.  When any cell is zero the
    statistic degenerates; a continuity correction of 0.5 is applied in
    that case, which is the usual practice.
    """
    a = float(breakdown.both)
    b = float(breakdown.first_only)
    c = float(breakdown.second_only)
    d = float(breakdown.neither)
    if min(a, b, c, d) == 0:
        a, b, c, d = a + 0.5, b + 0.5, c + 0.5, d + 0.5
    return (a * d - b * c) / (a * d + b * c)


def correlation_coefficient(breakdown: DiversityBreakdown) -> float:
    """The phi (Pearson) correlation of the two binary alert vectors."""
    a, b, c, d = breakdown.both, breakdown.first_only, breakdown.second_only, breakdown.neither
    denominator = math.sqrt((a + b) * (c + d) * (a + c) * (b + d))
    if denominator == 0:
        return 0.0
    return (a * d - b * c) / denominator


def disagreement_measure(breakdown: DiversityBreakdown) -> float:
    """Fraction of requests on which exactly one detector alerts."""
    if breakdown.total == 0:
        return 0.0
    return breakdown.disagreement / breakdown.total


def entropy_measure(breakdown: DiversityBreakdown) -> float:
    """Shannon entropy (bits) of the joint alerting outcome distribution.

    Maximal (2 bits) when the four outcomes are equally likely, 0 when the
    detectors always produce the same single outcome.
    """
    n = breakdown.total
    if n == 0:
        return 0.0
    entropy = 0.0
    for count in (breakdown.both, breakdown.neither, breakdown.first_only, breakdown.second_only):
        if count == 0:
            continue
        p = count / n
        entropy -= p * math.log2(p)
    return entropy


# ----------------------------------------------------------------------
# Aggregate view
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PairwiseDiversity:
    """All pairwise metrics for one detector pair."""

    first_detector: str
    second_detector: str
    breakdown: DiversityBreakdown
    kappa: float
    q_statistic: float
    correlation: float
    disagreement: float
    entropy: float
    double_fault: float | None = None

    def as_dict(self) -> dict[str, float]:
        """The metric values keyed by name."""
        values = {
            "kappa": self.kappa,
            "q_statistic": self.q_statistic,
            "correlation": self.correlation,
            "disagreement": self.disagreement,
            "entropy": self.entropy,
        }
        if self.double_fault is not None:
            values["double_fault"] = self.double_fault
        return values
