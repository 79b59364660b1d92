"""Weighted draws prepared once.

The simulator makes one weighted choice per request for its endpoint,
status code or start hour.  ``random.choices(population, cum_weights=...,
k=1)[0]`` re-derives the weights' total and bisect bound, re-runs its
checks and builds a one-element list on every call.  A
:class:`WeightedDraw` runs those checks once, when the table is built,
and then draws exactly what ``choices`` draws, from the same single
``rng.random()`` call, so the random stream does not change.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from math import isfinite
from typing import Generic, Iterable, Sequence, TypeVar

T = TypeVar("T")


class WeightedDraw(Generic[T]):
    """``rng.choices(population, weights, k=1)[0]``, with the table prepared once."""

    __slots__ = ("population", "cum_weights", "total", "hi")

    def __init__(self, population: Sequence[T], weights: Iterable[float]) -> None:
        self.population = tuple(population)
        self.cum_weights = tuple(accumulate(weights))
        if len(self.cum_weights) != len(self.population):
            raise ValueError("The number of weights does not match the population")
        self.total = self.cum_weights[-1] + 0.0 if self.cum_weights else 0.0
        if self.total <= 0.0:
            raise ValueError("Total of weights must be greater than zero")
        if not isfinite(self.total):
            raise ValueError("Total of weights must be finite")
        self.hi = len(self.population) - 1

    def draw(self, rng: random.Random) -> T:
        """One weighted draw: the value ``rng.choices`` would return."""
        return self.population[bisect(self.cum_weights, rng.random() * self.total, 0, self.hi)]
