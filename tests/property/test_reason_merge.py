"""The commercial detector's layer merge against its axis-0 specification.

:func:`repro.detectors.commercial.merge_layers` packs each flagged row's
per-layer reason codes into one mixed-radix int64 key and runs a 1-D
``np.unique`` over the keys.  The specification it must reproduce is
kept here: the same merge with ``np.unique(code_matrix, axis=0)`` over
the stacked code rows.  Flags, scores, reason codes and the reason table
(whose order is the order of the code combinations) must be identical,
for arbitrary per-layer codes (``-1`` included) and table sizes, and for
tables so large that the radix product passes ``2**63``.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columns.alertframe import DetectorAlerts, ReasonEncoder
from repro.detectors.commercial import merge_layers


def axis0_merge(name, layers, keep) -> DetectorAlerts:
    """The specification: the reason merge over ``np.unique(..., axis=0)``."""
    n = len(keep)
    masked_flags = [alerts.flags & keep for _, alerts in layers]
    flags = np.logical_or.reduce(masked_flags)
    best = np.maximum.reduce(
        [
            np.where(mask, alerts.scores, -np.inf)
            for mask, (_, alerts) in zip(masked_flags, layers)
        ]
    )
    scores = np.where(flags, best, 0.0)
    reason_codes = np.full(n, -1, dtype=np.int64)
    encoder = ReasonEncoder()
    flagged_rows = np.flatnonzero(flags)
    if len(flagged_rows):
        code_matrix = np.stack(
            [
                np.where(mask, alerts.reason_codes, np.int64(-1))
                for mask, (_, alerts) in zip(masked_flags, layers)
            ],
            axis=1,
        )
        combos, inverse = np.unique(code_matrix[flagged_rows], axis=0, return_inverse=True)
        prefixed = [
            [
                tuple(f"{layer_name}: {reason}" for reason in reasons) or (layer_name,)
                for reasons in alerts.reason_table
            ]
            for layer_name, alerts in layers
        ]
        combo_codes = np.empty(len(combos), dtype=np.int64)
        for combo_index, combo in enumerate(combos.tolist()):
            parts: list[str] = []
            for layer_index, code in enumerate(combo):
                if code >= 0:
                    parts.extend(prefixed[layer_index][code])
            combo_codes[combo_index] = encoder.code(tuple(dict.fromkeys(parts)))
        reason_codes[flagged_rows] = combo_codes[np.asarray(inverse).reshape(-1)]
    return DetectorAlerts(name, flags, scores, reason_codes, encoder.table)


def assert_same_alerts(actual: DetectorAlerts, expected: DetectorAlerts) -> None:
    assert actual.detector_name == expected.detector_name
    assert np.array_equal(actual.flags, expected.flags)
    assert np.array_equal(actual.scores, expected.scores)
    assert np.array_equal(actual.reason_codes, expected.reason_codes)
    assert actual.reason_table == expected.reason_table


_reasons = st.lists(st.sampled_from(["a", "b", "c"]), max_size=3).map(tuple)


@st.composite
def layer_sets(draw, *, sizes=st.integers(0, 6), codes=None, layer_counts=st.integers(1, 5)):
    """``(layers, keep)``: per-layer flags, scores and codes over ``n`` rows."""
    n = draw(st.integers(1, 40))
    layers = []
    for _ in range(draw(layer_counts)):
        # Repeated layer names make the order-preserving dedup matter.
        name = draw(st.sampled_from(["fingerprint", "rate", "rate", "behavioral"]))
        size = draw(sizes)
        table = [draw(_reasons) for _ in range(size)] if size < 100 else _big_table(size)
        layer_codes = codes if codes is not None else st.integers(-1, size - 1)
        alerts = DetectorAlerts(
            name,
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
            draw(st.lists(layer_codes, min_size=n, max_size=n)),
            table,
        )
        layers.append((name, alerts))
    keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return layers, keep


@settings(deadline=None)
@given(layer_sets())
def test_merge_matches_the_axis0_specification(case):
    layers, keep = case
    assert_same_alerts(
        merge_layers("commercial", layers, keep), axis0_merge("commercial", layers, keep)
    )


#: Five layers of this many reasons push the radix product past 2**63.
_BIG = 2**13
_BIG_TABLES: dict[int, list[tuple[str, ...]]] = {}


def _big_table(size: int) -> list[tuple[str, ...]]:
    if size not in _BIG_TABLES:
        _BIG_TABLES[size] = [(f"r{index}",) for index in range(size)]
    return _BIG_TABLES[size]


@settings(max_examples=15, deadline=None)
@given(
    layer_sets(
        sizes=st.just(_BIG),
        codes=st.sampled_from([-1, 0, 1, _BIG // 2, _BIG - 2, _BIG - 1]),
        layer_counts=st.just(5),
    )
)
def test_merge_is_exact_past_an_int64_radix_product(case):
    layers, keep = case
    assert math.prod(len(alerts.reason_table) + 1 for _, alerts in layers) > 2**63
    assert_same_alerts(
        merge_layers("commercial", layers, keep), axis0_merge("commercial", layers, keep)
    )
