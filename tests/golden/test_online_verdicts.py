"""The online verdict stream matches its committed golden digests.

See :mod:`tests.golden.verdicts` for what is digested and how to
regenerate the fixture.
"""

from __future__ import annotations

import pytest

from tests.golden.verdicts import CASES, load_fixture


@pytest.mark.parametrize("case", sorted(CASES))
def test_online_verdicts_match_golden(case):
    expected = load_fixture()[case]
    assert CASES[case]() == expected
