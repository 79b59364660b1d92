"""Drift guard: the feature schema has exactly one definition.

:data:`FEATURE_NAMES` fixes the :class:`~repro.columns.FeatureMatrix`
column order, and :meth:`FeatureMatrix.column` must read every feature
by its name from that position.
"""

from __future__ import annotations

import pytest

from repro.columns import FEATURE_NAMES
from repro.exceptions import ColumnsError
from tests.helpers import SCRIPTED_UA, make_record, make_records, session_frame


def test_matrix_column_lookup_follows_feature_names():
    _frame, _sessions, matrix = session_frame(
        make_records(4),
        make_records(7, ip="10.9.9.9", user_agent=SCRIPTED_UA, method="HEAD"),
        [make_record("robots", ip="10.9.9.8", path="/robots.txt", status=404)],
    )
    assert matrix.names == FEATURE_NAMES
    assert matrix.shape == (3, len(FEATURE_NAMES))
    for j, name in enumerate(FEATURE_NAMES):
        assert matrix.column(name).tolist() == matrix.values[:, j].tolist()
    assert matrix.column("request_count").tolist() == [4, 7, 1]
    assert matrix.column("head_fraction").tolist() == [0.0, 1.0, 0.0]
    assert matrix.column("robots_hits").tolist() == [0, 0, 1]
    assert matrix.column("error_rate").tolist() == [0.0, 0.0, 1.0]
    assert matrix.column("scripted_agent").tolist() == [0.0, 1.0, 0.0]


def test_unknown_feature_name_is_rejected():
    _frame, _sessions, matrix = session_frame(make_records(2))
    with pytest.raises(ColumnsError, match="unknown feature"):
        matrix.column("request_rate")
