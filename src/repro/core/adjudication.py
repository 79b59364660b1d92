"""Adjudication schemes over detector ensembles.

Section V of the paper proposes evaluating the diverse tools "under
different adjudication schemes (e.g. 1-out-of-2, raise an alarm as long
as either tool does so; 2-out-of-2, only raise an alarm if both tools do
so etc.)".  This module implements those schemes for any number of
detectors:

* :class:`KOutOfNScheme` -- alert when at least ``k`` of the ``n``
  detectors alert (``k=1`` is the paper's 1-out-of-2, ``k=n`` its
  2-out-of-2),
* :class:`MajorityScheme` and :class:`UnanimousScheme` -- convenience
  subclasses,
* :class:`WeightedVoteScheme` -- detectors carry weights and an alert is
  raised when the weighted vote crosses a threshold.

Every scheme turns an :class:`~repro.core.alerts.AlertMatrix` into an
:class:`AdjudicationResult`, which behaves like a synthetic detector's
alert set (``request_id in result``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np
import numpy.typing as npt

from repro.core.alerts import AlertMatrix
from repro.exceptions import AdjudicationError
from repro.registry import Registry


@dataclass(frozen=True)
class AdjudicationResult:
    """The outcome of applying one adjudication scheme to an alert matrix."""

    scheme_name: str
    detector_names: tuple[str, ...]
    alerted_ids: frozenset[str]
    total_requests: int

    @property
    def alert_count(self) -> int:
        """Number of requests the adjudicated ensemble alerts on."""
        return len(self.alerted_ids)

    def alert_rate(self) -> float:
        """Fraction of requests the adjudicated ensemble alerts on."""
        if self.total_requests == 0:
            return 0.0
        return self.alert_count / self.total_requests

    def __contains__(self, request_id: str) -> bool:
        return request_id in self.alerted_ids


class AdjudicationScheme:
    """Base class for adjudication schemes."""

    name: str = "adjudication"

    def decide(self, matrix: AlertMatrix) -> npt.NDArray[np.bool_]:
        """Boolean ensemble verdict per request (row order of the matrix)."""
        raise NotImplementedError

    def apply(self, matrix: AlertMatrix) -> AdjudicationResult:
        """Apply the scheme and package the result."""
        verdicts = self.decide(matrix)
        if verdicts.shape != (matrix.n_requests,):
            raise AdjudicationError(
                f"scheme {self.name!r} produced {verdicts.shape} verdicts for "
                f"{matrix.n_requests} requests"
            )
        alerted = frozenset(
            request_id for request_id, verdict in zip(matrix.request_ids, verdicts) if verdict
        )
        return AdjudicationResult(
            scheme_name=self.name,
            detector_names=tuple(matrix.detector_names),
            alerted_ids=alerted,
            total_requests=matrix.n_requests,
        )


class KOutOfNScheme(AdjudicationScheme):
    """Alert when at least ``k`` detectors alert."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise AdjudicationError("k must be at least 1")
        self.k = k
        self.name = f"{k}-out-of-n"

    def decide(self, matrix: AlertMatrix) -> npt.NDArray[np.bool_]:
        if self.k > matrix.n_detectors:
            raise AdjudicationError(
                f"k={self.k} exceeds the number of detectors ({matrix.n_detectors})"
            )
        self.name = f"{self.k}-out-of-{matrix.n_detectors}"
        return matrix.votes_per_request() >= self.k


class UnanimousScheme(KOutOfNScheme):
    """Alert only when every detector alerts (the paper's 2-out-of-2)."""

    def __init__(self) -> None:
        super().__init__(1)
        self.name = "unanimous"

    def decide(self, matrix: AlertMatrix) -> npt.NDArray[np.bool_]:
        self.k = matrix.n_detectors
        verdicts = super().decide(matrix)
        self.name = "unanimous"
        return verdicts


class MajorityScheme(KOutOfNScheme):
    """Alert when a strict majority of detectors alert."""

    def __init__(self) -> None:
        super().__init__(1)
        self.name = "majority"

    def decide(self, matrix: AlertMatrix) -> npt.NDArray[np.bool_]:
        self.k = matrix.n_detectors // 2 + 1
        verdicts = super().decide(matrix)
        self.name = "majority"
        return verdicts


class WeightedVoteScheme(AdjudicationScheme):
    """Alert when the weighted vote of the detectors crosses a threshold.

    Weights are given per detector name; missing names default to weight
    1.0.  The threshold is expressed as a fraction of the total weight, so
    ``threshold=0.5`` is a weighted majority.
    """

    def __init__(
        self, weights: Mapping[str, float], *, threshold: float = 0.5, name: str = "weighted-vote"
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise AdjudicationError("threshold must be in (0, 1]")
        if any(weight < 0 for weight in weights.values()):
            raise AdjudicationError("detector weights must be non-negative")
        self.weights = dict(weights)
        self.threshold = threshold
        self.name = name

    def decide(self, matrix: AlertMatrix) -> npt.NDArray[np.bool_]:
        weight_vector = np.array(
            [self.weights.get(name, 1.0) for name in matrix.detector_names], dtype=float
        )
        total_weight = weight_vector.sum()
        if total_weight <= 0:
            raise AdjudicationError("the total detector weight must be positive")
        weighted_votes = matrix.values.astype(float) @ weight_vector
        verdicts: npt.NDArray[np.bool_] = weighted_votes >= self.threshold * total_weight
        return verdicts


def adjudicate(matrix: AlertMatrix, scheme: AdjudicationScheme | int) -> AdjudicationResult:
    """Apply an adjudication scheme (or a plain ``k`` for k-out-of-N).

    >>> one_oo_two = adjudicate(matrix, 1)      # the paper's 1-out-of-2
    >>> two_oo_two = adjudicate(matrix, 2)      # the paper's 2-out-of-2
    """
    if isinstance(scheme, int):
        scheme = KOutOfNScheme(scheme)
    return scheme.apply(matrix)


# ----------------------------------------------------------------------
# Adjudication-scheme registry
# ----------------------------------------------------------------------
_SCHEME_REGISTRY: Registry[AdjudicationScheme] = Registry(
    "adjudication scheme", AdjudicationError
)


def register_adjudication_scheme(
    name: str, factory: Callable[..., AdjudicationScheme], *, overwrite: bool = False
) -> None:
    """Register an adjudication-scheme factory under ``name``."""
    _SCHEME_REGISTRY.register(name, factory, overwrite=overwrite)


def available_adjudication_schemes() -> list[str]:
    """Names of all registered adjudication schemes."""
    return _SCHEME_REGISTRY.names()


def create_adjudication_scheme(name: str, **kwargs: Any) -> AdjudicationScheme:
    """Instantiate a registered adjudication scheme by name.

    Raises :class:`~repro.exceptions.AdjudicationError` -- with a
    did-you-mean suggestion -- when the name is unknown.
    """
    return _SCHEME_REGISTRY.create(name, **kwargs)


register_adjudication_scheme("k-out-of-n", KOutOfNScheme)
register_adjudication_scheme("unanimous", UnanimousScheme)
register_adjudication_scheme("majority", MajorityScheme)
register_adjudication_scheme("weighted-vote", WeightedVoteScheme)
