"""One URL-path definition: the record and frame paths agree with ``urlsplit``.

:func:`repro.logs.record.split_url_path` takes a fast path for
origin-form targets; on arbitrary text it must still return exactly
``urlsplit(target).path`` (which, among other things, strips tabs, CRs
and LFs), and both :attr:`LogRecord.url_path` and
:meth:`RecordFrame.url_paths` must go through it.  The frame splits a
whole path table at a time (:func:`repro.logs.record.split_url_paths`),
with a table-wide fast path when every entry is in origin form; every
table must still split entry by entry as ``urlsplit`` does.
"""

from __future__ import annotations

from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columns import RecordFrame
from repro.logs.record import split_url_path, split_url_paths
from tests.helpers import make_record

#: Arbitrary text, plus text shaped like origin-form targets (the fast
#: path) salted with the characters ``urlsplit`` treats specially.
_SPECIAL = st.sampled_from(["\t", "\r", "\n", "?", "#", "/", ":", "[", " ", "\x00"])
targets = st.one_of(
    st.text(),
    st.lists(st.one_of(st.text(max_size=4), _SPECIAL), max_size=8).map(
        lambda parts: "/" + "".join(parts)
    ),
)


def _expected(target: str) -> str | None:
    try:
        return urlsplit(target).path
    except ValueError:  # e.g. an unbalanced IPv6 netloc
        return None


@settings(max_examples=500, deadline=None)
@given(target=targets)
def test_split_url_path_is_urlsplit_path(target):
    expected = _expected(target)
    if expected is None:
        with pytest.raises(ValueError):
            split_url_path(target)
    else:
        assert split_url_path(target) == expected


@settings(max_examples=100, deadline=None)
@given(paths=st.lists(targets, min_size=1, max_size=6))
def test_record_and_frame_paths_agree(paths):
    paths = [path for path in paths if _expected(path) is not None]
    records = [make_record(f"r{i}", path=path) for i, path in enumerate(paths)]
    frame = RecordFrame.from_records(records)
    url_paths = frame.url_paths()
    codes = frame.codes["path"].tolist()
    assert [url_paths[code] for code in codes] == [record.url_path for record in records]


@pytest.mark.parametrize(
    ("target", "path"),
    [("/a\tb?x", "/ab"), ("/a\nb#c", "/ab"), ("/p?q#f", "/p"), ("//host/p", "/p")],
)
def test_known_targets(target, path):
    assert split_url_path(target) == path
    assert make_record(path=target).url_path == path
    assert RecordFrame.from_records([make_record(path=target)]).url_paths() == [path]


@settings(max_examples=300, deadline=None)
@given(table=st.lists(targets, max_size=8, unique=True))
def test_split_url_paths_splits_every_entry_of_a_table(table):
    table = [target for target in table if _expected(target) is not None]
    assert split_url_paths(table) == [_expected(target) for target in table]


@settings(max_examples=100, deadline=None)
@given(table=st.lists(targets, min_size=1, max_size=8, unique=True))
def test_frame_url_path_table_matches_the_records(table):
    table = [target for target in table if _expected(target) is not None]
    records = [make_record(f"r{i}", path=path) for i, path in enumerate(table + table[:2])]
    frame = RecordFrame.from_records(records)
    url_table = frame.url_path_table()
    assert [url_table[code] for code in frame.url_path_codes().tolist()] == [
        record.url_path for record in records
    ]


@pytest.mark.parametrize(
    ("table", "paths"),
    [
        ([], []),
        (["/a?x=1", "/b#f?q", "/c", "/d?e#f"], ["/a", "/b", "/c", "/d"]),
        (["/a?x", "http://host/p?q", "/c"], ["/a", "/p", "/c"]),
        (["/a", "//host/p"], ["/a", "/p"]),
        (["//host/p", "/a"], ["/p", "/a"]),
        (["/a", "/b\tc?x"], ["/a", "/bc"]),
        (["/a\r?x", "/b"], ["/a", "/b"]),
        (["/a\n/b?x"], ["/a/b"]),
        (["/a", "/b\n//host/c"], ["/a", "/b//host/c"]),
        (["", "/a"], ["", "/a"]),
        (["/a", "b?x"], ["/a", "b"]),
    ],
)
def test_known_tables(table, paths):
    assert split_url_paths(table) == paths == [split_url_path(target) for target in table]
