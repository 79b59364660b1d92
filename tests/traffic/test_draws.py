"""Prepared weighted draws match ``random.choices`` draw for draw."""

from __future__ import annotations

import random
from itertools import accumulate

import pytest

from repro.traffic.draws import WeightedDraw
from repro.traffic.diurnal import HUMAN_HOURLY_WEIGHTS


@pytest.mark.parametrize(
    "population, weights",
    [
        (("search", "offer", "price_api", "availability"), (38, 40, 14, 8)),
        ((200, 304, 404), (0.9, 0.05, 0.05)),
        (range(24), HUMAN_HOURLY_WEIGHTS),
        (("only",), (3,)),
        (("never", "always"), (0, 1)),
    ],
)
def test_draws_equal_random_choices(population, weights):
    draw = WeightedDraw(population, weights)
    cum_weights = list(accumulate(weights))
    ours, theirs = random.Random(11), random.Random(11)
    for _ in range(10_000):
        assert draw.draw(ours) == theirs.choices(population, cum_weights=cum_weights, k=1)[0]


@pytest.mark.parametrize(
    "population, weights, message",
    [
        (("a", "b"), (1,), "does not match"),
        ((), (), "greater than zero"),
        (("a", "b"), (0, 0), "greater than zero"),
        (("a", "b"), (1, float("inf")), "finite"),
    ],
)
def test_bad_tables_fail_when_prepared(population, weights, message):
    with pytest.raises(ValueError, match=message):
        WeightedDraw(population, weights)
