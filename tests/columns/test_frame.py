"""Tests for :class:`repro.columns.RecordFrame` construction and round trips."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone, tzinfo

import numpy as np
import pytest

from repro.columns import RecordFrame
from repro.columns.frame import Dictionary, TableCache, encode_column
from repro.exceptions import ColumnsError, LabelError
from repro.logs.dataset import Dataset
from repro.trace.store import TraceReader, write_trace
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small
from tests.helpers import SCRIPTED_UA, make_record, make_records


@pytest.fixture(scope="module")
def scenario_dataset():
    return generate_dataset(balanced_small(total_requests=3_000, seed=11))


class TestFromDataset:
    def test_columns_match_records(self, scenario_dataset):
        frame = RecordFrame.from_dataset(scenario_dataset)
        assert len(frame) == len(scenario_dataset)
        for index in (0, 7, len(frame) - 1):
            record = scenario_dataset.records[index]
            assert frame.request_ids[index] == record.request_id
            assert int(frame.statuses[index]) == record.status
            assert int(frame.sizes[index]) == record.response_size
            assert frame.string("client_ip", frame.codes["client_ip"][index]) == record.client_ip
            assert frame.string("path", frame.codes["path"][index]) == record.path
            assert frame.string("method", frame.codes["method"][index]) == record.method.value
            assert (
                frame.string("user_agent", frame.codes["user_agent"][index]) == record.user_agent
            )

    def test_dictionary_is_deduplicated(self, scenario_dataset):
        frame = RecordFrame.from_dataset(scenario_dataset)
        assert len(frame.tables["user_agent"]) == len(scenario_dataset.unique_user_agents())
        assert len(frame.tables["client_ip"]) == len(scenario_dataset.unique_ips())

    def test_labels_survive(self, scenario_dataset):
        frame = RecordFrame.from_dataset(scenario_dataset)
        assert frame.is_labelled
        truth = frame.ground_truth()
        assert truth.malicious_ids() == scenario_dataset.ground_truth.malicious_ids()

    def test_derived_flags_match_record_properties(self, scenario_dataset):
        frame = RecordFrame.from_dataset(scenario_dataset)
        assets = frame.path_is_asset()
        referrers = frame.has_referrer()
        nights = frame.night_flags()
        robots = frame.path_is_robots()
        for index, record in enumerate(scenario_dataset.records):
            assert bool(assets[index]) == record.is_asset_request
            assert bool(referrers[index]) == record.has_referrer
            assert bool(nights[index]) == (record.timestamp.hour < 6)
            assert bool(robots[index]) == (record.url_path == "/robots.txt")

    def test_url_path_codes_distinguish_query_strings(self):
        records = [
            make_record("a", path="/search?q=1"),
            make_record("b", path="/search?q=2", seconds=1),
            make_record("c", path="/other", seconds=2),
        ]
        frame = RecordFrame.from_records(records)
        codes = frame.url_path_codes()
        assert codes[0] == codes[1]  # same path, different query
        assert codes[0] != codes[2]
        assert frame.n_url_paths == 2

    def test_inconsistent_lengths_rejected(self):
        frame = RecordFrame.from_records(make_records(3))
        with pytest.raises(ColumnsError, match="inconsistent column lengths"):
            RecordFrame(
                request_ids=frame.request_ids,
                timestamps_us=frame.timestamps_us[:-1],
                tz_offsets_us=frame.tz_offsets_us,
                statuses=frame.statuses,
                sizes=frame.sizes,
                codes=frame.codes,
                tables=frame.tables,
            )


class TestRoundTrips:
    def test_iter_records_rebuilds_equal_records(self, scenario_dataset):
        frame = RecordFrame.from_dataset(scenario_dataset)
        rebuilt = list(frame.iter_records())
        assert rebuilt == scenario_dataset.records

    def test_to_dataset_round_trip(self, scenario_dataset):
        dataset = RecordFrame.from_dataset(scenario_dataset).to_dataset()
        assert dataset.records == scenario_dataset.records
        assert dataset.is_labelled
        assert (
            dataset.ground_truth.malicious_ids()
            == scenario_dataset.ground_truth.malicious_ids()
        )

    def test_extra_mappings_round_trip(self):
        records = make_records(3)
        records[1] = make_record("r1", seconds=1)
        object.__setattr__(records[1], "extra", {"flag": "yes"})
        frame = RecordFrame.from_records(records)
        rebuilt = list(frame.iter_records())
        assert rebuilt[1].extra == {"flag": "yes"}
        assert rebuilt[0].extra == {}


class TestReadFrame:
    def test_trace_maps_to_identical_frame(self, scenario_dataset, tmp_path):
        path = str(tmp_path / "scenario.trace")
        write_trace(scenario_dataset, path)
        frame = TraceReader(path).read_frame()
        direct = RecordFrame.from_dataset(scenario_dataset)
        assert frame.request_ids == direct.request_ids
        assert np.array_equal(frame.timestamps_us, direct.timestamps_us)
        assert np.array_equal(frame.statuses, direct.statuses)
        assert np.array_equal(frame.sizes, direct.sizes)
        # Dictionary codes may differ; the decoded strings must not.
        for column in ("client_ip", "method", "path", "user_agent", "referrer"):
            ours = [frame.string(column, code) for code in frame.codes[column].tolist()]
            theirs = [direct.string(column, code) for code in direct.codes[column].tolist()]
            assert ours == theirs
        assert frame.is_labelled
        assert (
            frame.ground_truth().malicious_ids()
            == scenario_dataset.ground_truth.malicious_ids()
        )

    def test_read_frame_to_dataset_equals_read_dataset(self, scenario_dataset, tmp_path):
        path = str(tmp_path / "again.trace")
        write_trace(scenario_dataset, path)
        via_frame = TraceReader(path).read_frame().to_dataset()
        via_records = TraceReader(path).read_dataset()
        assert via_frame.records == via_records.records
        assert via_frame.metadata == via_records.metadata

    def test_unlabelled_dataset_frame(self):
        dataset = Dataset(make_records(5, user_agent=SCRIPTED_UA))
        frame = RecordFrame.from_dataset(dataset)
        assert not frame.is_labelled
        assert frame.ground_truth() is None


class _DstZone(tzinfo):
    """A toy DST zone: UTC-4 from April to October, UTC-5 otherwise."""

    def utcoffset(self, moment):
        return timedelta(hours=-4 if 4 <= moment.month <= 10 else -5)

    def dst(self, moment):
        return timedelta(hours=1) if 4 <= moment.month <= 10 else timedelta(0)

    def tzname(self, moment):
        return "TOY"


class TestDstOffsets:
    def test_dst_varying_offsets_are_not_cached_per_tzinfo(self):
        # One tzinfo object, two different offsets: the frame must store
        # the offset each moment actually carries, not the first seen.
        zone = _DstZone()
        records = [
            make_record("winter"),
            make_record("summer", seconds=1),
        ]
        object.__setattr__(
            records[0], "timestamp", datetime(2018, 1, 15, 6, 30, tzinfo=zone)
        )
        object.__setattr__(
            records[1], "timestamp", datetime(2018, 7, 15, 6, 30, tzinfo=zone)
        )
        frame = RecordFrame.from_records(records)
        assert frame.tz_offsets_us.tolist() == [-5 * 3600 * 10**6, -4 * 3600 * 10**6]
        # Wall-clock 06:30 in both cases -> neither is a night request,
        # exactly like record.timestamp.hour on the record path.
        assert frame.night_flags().tolist() == [
            record.timestamp.hour < 6 for record in records
        ]
        rebuilt = list(frame.iter_records())
        assert [r.timestamp for r in rebuilt] == [r.timestamp for r in records]
        assert [r.timestamp.hour for r in rebuilt] == [6, 6]


def _columns(**overrides):
    """Arguments of ``RecordFrame.from_columns`` for two plain GET requests."""
    arguments = {
        "request_ids": ["r0", "r1"],
        "timestamps": [datetime(2018, 3, 11, 12, tzinfo=timezone.utc)] * 2,
        "strings": {
            "client_ip": ["10.0.0.1", "10.0.0.2"],
            "method": ["GET", "GET"],
            "path": ["/", "/search"],
            "protocol": ["HTTP/1.1"] * 2,
            "referrer": ["", ""],
            "user_agent": ["ua", "ua"],
            "ident": ["-", "-"],
            "auth_user": ["-", "-"],
        },
        "statuses": [200, 302],
        "sizes": [10, 0],
    }
    strings = overrides.pop("strings", {})
    arguments.update(overrides)
    arguments["strings"] = {**arguments["strings"], **strings}
    return arguments


class TestFromColumns:
    """The checks ``LogRecord`` runs per record, run once per column or distinct value."""

    def test_plain_columns_build_the_records_they_describe(self):
        frame = RecordFrame.from_columns(**_columns())
        assert [(r.status, r.response_size, r.path) for r in frame.iter_records()] == [
            (200, 10, "/"),
            (302, 0, "/search"),
        ]

    @pytest.mark.parametrize("status", [99, 600])
    def test_status_outside_100_599_is_rejected(self, status):
        with pytest.raises(ValueError, match=f"invalid HTTP status code: {status}"):
            RecordFrame.from_columns(**_columns(statuses=[200, status]))

    def test_negative_size_is_rejected(self):
        with pytest.raises(ValueError, match="negative response size: -1"):
            RecordFrame.from_columns(**_columns(sizes=[-1, 0]))

    def test_unknown_method_is_rejected(self):
        with pytest.raises(ValueError, match="unknown HTTP method: 'FETCH'"):
            RecordFrame.from_columns(**_columns(strings={"method": ["GET", "FETCH"]}))

    def test_spellings_of_one_method_share_one_code(self):
        frame = RecordFrame.from_columns(**_columns(strings={"method": ["get", "GET"]}))
        assert frame.tables["method"] == ["GET"]
        assert frame.codes["method"].tolist() == [0, 0]

    def test_naive_timestamps_are_read_as_utc(self):
        naive = datetime(2018, 3, 11, 12)
        frame = RecordFrame.from_columns(**_columns(timestamps=[naive, naive]))
        aware = naive.replace(tzinfo=timezone.utc)
        assert [r.timestamp for r in frame.iter_records()] == [aware, aware]
        assert frame.tz_offsets_us.tolist() == [0, 0]

    def test_unknown_label_is_rejected(self):
        with pytest.raises(LabelError, match="unknown labels"):
            RecordFrame.from_columns(**_columns(labels=["benign", "suspicious"]))


class TestTableCache:
    """Per-entry derived values are computed once per entry, also while a table grows."""

    def test_flags_extend_with_a_growing_table(self):
        dictionary = Dictionary()
        cache = TableCache()
        seen: list[str] = []

        def is_css(value: str) -> bool:
            seen.append(value)
            return value.endswith(".css")

        dictionary.encode(["/a.css", "/b", "/a.css"])
        assert cache.flags("css", dictionary.values, is_css).tolist() == [True, False]
        for value in ("/c", "/d.css", "/b", "/e", "/f", "/g.css"):
            dictionary.code(value)
            expected = [value.endswith(".css") for value in dictionary.values]
            assert cache.flags("css", dictionary.values, is_css).tolist() == expected
        assert seen == dictionary.values

    def test_values_and_url_paths_extend_with_a_growing_table(self):
        dictionary = Dictionary()
        cache = TableCache()
        dictionary.encode(["/a?x=1", "/b"])
        codes, table = cache.url_paths(dictionary.values)
        assert (codes.tolist(), table) == ([0, 1], ["/a", "/b"])
        assert cache.values("upper", dictionary.values, str.upper) == ["/A?X=1", "/B"]
        dictionary.encode(["/a?x=2", "/c#top", "/b"])
        codes, table = cache.url_paths(dictionary.values)
        assert (codes.tolist(), table) == ([0, 1, 0, 2], ["/a", "/b", "/c"])
        assert cache.values("upper", dictionary.values, str.upper)[2:] == ["/A?X=2", "/C#TOP"]

    def test_encode_column_is_a_fresh_dictionary(self):
        codes, table = encode_column(["x", "y", "x", "z"])
        assert (codes.tolist(), table) == ([0, 1, 0, 2], ["x", "y", "z"])
        dictionary = Dictionary()
        assert dictionary.encode(["x", "y", "x"]).tolist() == [0, 1, 0]
        assert dictionary.encode(["z", "x"]).tolist() == [2, 0]
        assert dictionary.code("w") == 3 and dictionary.values == ["x", "y", "z", "w"]

    def test_row_subsets_share_the_table_cache(self, scenario_dataset):
        frame = RecordFrame.from_dataset(scenario_dataset)
        asset = frame.path_is_asset()
        subset = frame.take(np.arange(0, len(frame), 3))
        assert np.array_equal(subset.path_is_asset(), asset[::3])

        def never(value: str) -> bool:
            raise AssertionError(f"recomputed a shared table flag for {value!r}")

        shared = subset.table_flags("asset", subset.url_path_table(), never)
        assert np.array_equal(shared, frame.table_flags("asset", frame.url_path_table(), never))
