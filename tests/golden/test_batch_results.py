"""The batch tables, evaluations and alert sets match their golden digests.

See :mod:`tests.golden.batch` for what is digested and how to
regenerate the fixture.
"""

from __future__ import annotations

import pytest

from tests.golden.batch import CASES, load_fixture


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_results_match_golden(case):
    expected = load_fixture()[case]
    assert CASES[case]() == expected
