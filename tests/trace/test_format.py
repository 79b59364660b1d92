"""Tests for the byte-level trace format (:mod:`repro.trace.format`)."""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.trace.format import (
    DICT_COLUMNS,
    BlockColumns,
    decode_block,
    decode_strings_section,
    decode_trailer,
    encode_block,
    encode_strings_section,
    encode_trailer,
)

#: String tables the test blocks' codes (0 and 1) index into.
TABLES = {name: [f"{name}-0", f"{name}-1"] for name in DICT_COLUMNS}
ACTORS = ["human"]


def _ints(values: list[int]) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def _columns(count: int, *, labelled: bool = False, extras: bool = False) -> BlockColumns:
    return BlockColumns(
        request_ids=[f"r{i}" for i in range(count)],
        timestamps_us=_ints([1_520_000_000_000_000 + i * 997 for i in range(count)]),
        tz_offsets_s=_ints([0] * count),
        statuses=_ints([200 + (i % 3) for i in range(count)]),
        sizes=_ints([1024 * i for i in range(count)]),
        dict_indices={name: _ints([i % 2 for i in range(count)]) for name in DICT_COLUMNS},
        labels=_ints([i % 2 for i in range(count)]) if labelled else None,
        actor_indices=_ints([0] * count) if labelled else None,
        extras=[{"k": i} for i in range(count)] if extras else None,
    )


def _decode(body: bytes) -> BlockColumns:
    return decode_block(body, TABLES, ACTORS)


def _assert_ints(decoded, expected) -> None:
    """A decoded integer column is an int64 array holding exactly ``expected``."""
    assert isinstance(decoded, np.ndarray)
    assert decoded.dtype == np.int64
    assert decoded.tolist() == np.asarray(expected).tolist()


#: The always-present int64 payloads of a block body, in on-disk order;
#: the request ids and the optional label, actor and extras payloads follow.
_INT_PAYLOADS = ("timestamp", "tz_offset", "status", "size", *DICT_COLUMNS)


def _raw_body(count: int, **payloads: bytes) -> bytes:
    """A hand-built block body of ``count`` all-zero records, some payloads replaced."""
    body = {name: bytes(8 * count) for name in _INT_PAYLOADS}
    body["request_ids"] = json.dumps([f"r{i}" for i in range(count)]).encode()
    body.update(label=b"", actor=b"", extras=b"")
    body.update(payloads)
    parts = [struct.pack("<Iq", count, 0)]
    for payload in body.values():
        parts += [struct.pack("<I", len(payload)), payload]
    return zlib.compress(b"".join(parts))


class TestBlockRoundTrip:
    def test_plain_block_round_trips(self):
        columns = _columns(10)
        decoded = _decode(encode_block(columns))
        assert decoded.request_ids == columns.request_ids
        _assert_ints(decoded.timestamps_us, columns.timestamps_us)
        _assert_ints(decoded.tz_offsets_s, columns.tz_offsets_s)
        _assert_ints(decoded.statuses, columns.statuses)
        _assert_ints(decoded.sizes, columns.sizes)
        assert decoded.dict_indices.keys() == columns.dict_indices.keys()
        for name in DICT_COLUMNS:
            _assert_ints(decoded.dict_indices[name], columns.dict_indices[name])
        assert decoded.labels is None
        assert decoded.actor_indices is None
        assert decoded.extras is None

    def test_labelled_block_round_trips(self):
        columns = _columns(7, labelled=True)
        decoded = _decode(encode_block(columns))
        _assert_ints(decoded.labels, columns.labels)
        _assert_ints(decoded.actor_indices, columns.actor_indices)

    def test_extras_round_trip(self):
        columns = _columns(4, extras=True)
        decoded = _decode(encode_block(columns))
        assert decoded.extras == [{"k": 0}, {"k": 1}, {"k": 2}, {"k": 3}]

    def test_single_record_block(self):
        decoded = _decode(encode_block(_columns(1)))
        assert len(decoded) == 1

    def test_negative_and_huge_timestamps_survive(self):
        columns = _columns(3)
        columns.timestamps_us = _ints([-62_000_000_000_000_000, 0, 4_102_444_800_000_000])
        decoded = _decode(encode_block(columns))
        _assert_ints(decoded.timestamps_us, columns.timestamps_us)

    def test_non_utc_offsets_survive(self):
        columns = _columns(3)
        columns.tz_offsets_s = _ints([3600, -18_000, 0])
        decoded = _decode(encode_block(columns))
        _assert_ints(decoded.tz_offsets_s, columns.tz_offsets_s)

    def test_select_keeps_masked_records(self):
        columns = _columns(5, labelled=True, extras=True)
        kept = _decode(encode_block(columns)).select(np.array([1, 0, 1, 0, 1], dtype=bool))
        assert kept.request_ids == ["r0", "r2", "r4"]
        _assert_ints(kept.timestamps_us, [columns.timestamps_us[i] for i in (0, 2, 4)])
        _assert_ints(kept.statuses, [200, 202, 201])
        _assert_ints(kept.dict_indices["path"], [0, 0, 0])
        _assert_ints(kept.labels, [0, 0, 0])
        assert kept.extras == [{"k": 0}, {"k": 2}, {"k": 4}]

    def test_empty_block_is_rejected(self):
        with pytest.raises(TraceError, match="empty block"):
            encode_block(_columns(0))

    def test_corrupt_block_raises(self):
        with pytest.raises(TraceError, match="corrupt"):
            _decode(b"definitely not zlib data")

    def test_truncated_block_raises(self):
        body = encode_block(_columns(5))
        truncated = zlib.compress(zlib.decompress(body)[:-40])
        with pytest.raises(TraceError):
            _decode(truncated)


class TestBlockValidation:
    def test_hand_built_body_decodes(self):
        decoded = _decode(_raw_body(2))
        assert decoded.request_ids == ["r0", "r1"]
        _assert_ints(decoded.statuses, [0, 0])

    @pytest.mark.parametrize("name", ["timestamp", "status", "path", "label"])
    def test_ragged_int_column_is_rejected(self, name):
        payloads = {name: bytes(15)}
        if name == "label":
            payloads["actor"] = bytes(16)
        with pytest.raises(TraceError, match=f"the {name} column has 15 bytes"):
            _decode(_raw_body(2, **payloads))

    @pytest.mark.parametrize("column", DICT_COLUMNS)
    @pytest.mark.parametrize("code", [-1, 2])
    def test_dictionary_code_outside_its_table_is_rejected(self, column, code):
        columns = _columns(3)
        columns.dict_indices[column][1] = code
        with pytest.raises(TraceError, match=f"{column} codes .* table of 2 entries"):
            _decode(encode_block(columns))

    @pytest.mark.parametrize("code", [-1, 2])
    def test_label_outside_benign_malicious_is_rejected(self, code):
        columns = _columns(3, labelled=True)
        columns.labels[2] = code
        with pytest.raises(TraceError, match="label codes"):
            _decode(encode_block(columns))

    @pytest.mark.parametrize("code", [-1, 1])
    def test_actor_code_outside_the_actor_table_is_rejected(self, code):
        columns = _columns(3, labelled=True)
        columns.actor_indices[0] = code
        with pytest.raises(TraceError, match="actor codes .* table of 1 entries"):
            _decode(encode_block(columns))

    def test_labels_without_actor_codes_are_rejected(self):
        with pytest.raises(TraceError, match="inconsistent"):
            _decode(_raw_body(2, label=bytes(16)))

    def test_short_label_column_is_rejected(self):
        with pytest.raises(TraceError, match="inconsistent"):
            _decode(_raw_body(2, label=bytes(8), actor=bytes(8)))


class TestSections:
    def test_trailer_round_trips(self):
        assert decode_trailer(encode_trailer(123, 456_789)) == (123, 456_789)

    def test_bad_trailer_magic_raises(self):
        buf = bytearray(encode_trailer(1, 2))
        buf[-1] ^= 0xFF
        with pytest.raises(TraceError, match="magic"):
            decode_trailer(bytes(buf))

    def test_strings_section_round_trips(self):
        tables = {name: [f"{name}-{i}" for i in range(3)] for name in DICT_COLUMNS}
        actors = ["human", "aggressive_scraper"]
        decoded_tables, decoded_actors = decode_strings_section(
            encode_strings_section(tables, actors)
        )
        assert decoded_tables == tables
        assert decoded_actors == actors

    def test_strings_section_missing_column_raises(self):
        tables = {name: [] for name in DICT_COLUMNS if name != "path"}
        with pytest.raises(TraceError, match="missing columns"):
            decode_strings_section(encode_strings_section(tables, []))
