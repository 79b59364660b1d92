"""Tests for the trace store (:mod:`repro.trace.store`)."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from repro.columns import RecordFrame
from repro.exceptions import TraceError
from repro.logs.dataset import BENIGN, MALICIOUS, Dataset, DatasetMetadata, GroundTruth
from repro.runspec import RunSpec, TrafficSpec, execute
from repro.trace import TraceReader, TraceWriter, read_trace, store, trace_info, write_trace
from repro.trace.format import encode_block
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small
from tests.helpers import BASE_TIME, make_record, make_records


def _labelled_dataset(count: int = 20) -> Dataset:
    records = make_records(count, gap_seconds=60.0)
    truth = GroundTruth()
    for index, record in enumerate(records):
        label = MALICIOUS if index % 3 == 0 else BENIGN
        actor = "aggressive_scraper" if label == MALICIOUS else "human"
        truth.set(record.request_id, label, actor)
    metadata = DatasetMetadata(name="unit", scenario="unit_scenario", scale=0.5, seed=11)
    return Dataset(records, ground_truth=truth, metadata=metadata, time_ordered=True)


class TestRoundTrip:
    def test_records_round_trip_exactly(self, tmp_path):
        dataset = _labelled_dataset()
        path = str(tmp_path / "t.trace")
        write_trace(dataset, path)
        replayed = read_trace(path)
        assert replayed.records == dataset.records

    def test_labels_and_actor_classes_round_trip(self, tmp_path):
        dataset = _labelled_dataset()
        path = str(tmp_path / "t.trace")
        write_trace(dataset, path)
        replayed = read_trace(path)
        assert replayed.is_labelled
        truth, original = replayed.ground_truth, dataset.ground_truth
        for record in dataset:
            assert truth.label_of(record.request_id) == original.label_of(record.request_id)
            assert truth.actor_class_of(record.request_id) == original.actor_class_of(
                record.request_id
            )

    def test_metadata_round_trips(self, tmp_path):
        dataset = _labelled_dataset()
        path = str(tmp_path / "t.trace")
        write_trace(dataset, path)
        metadata = read_trace(path).metadata
        assert metadata.name == "unit"
        assert metadata.scenario == "unit_scenario"
        assert metadata.scale == 0.5
        assert metadata.seed == 11

    def test_unlabelled_dataset_round_trips(self, tmp_path):
        dataset = Dataset(make_records(5))
        path = str(tmp_path / "t.trace")
        info = write_trace(dataset, path)
        assert not info.labelled
        replayed = read_trace(path)
        assert replayed.records == dataset.records
        assert replayed.ground_truth is None

    def test_non_utc_timestamps_round_trip(self, tmp_path):
        tz = timezone(timedelta(hours=5, minutes=30))
        records = [
            make_record("r0"),
            make_record("r1", seconds=60).with_status(301),
        ]
        shifted = [r for r in records]
        object.__setattr__(shifted[1], "timestamp", records[1].timestamp.astimezone(tz))
        path = str(tmp_path / "t.trace")
        write_trace(Dataset(shifted), path)
        replayed = read_trace(path).records
        assert replayed == shifted
        assert replayed[1].timestamp.utcoffset() == timedelta(hours=5, minutes=30)

    def test_empty_dataset_round_trips(self, tmp_path):
        path = str(tmp_path / "t.trace")
        info = write_trace(Dataset([]), path)
        assert info.records == 0
        assert info.time_range is None
        assert read_trace(path).records == []

    def test_extra_mapping_round_trips_as_json(self, tmp_path):
        record = make_record("r0")
        object.__setattr__(record, "extra", {"upstream": "cdn-3", "retries": 2})
        path = str(tmp_path / "t.trace")
        write_trace(Dataset([record, make_record("r1", seconds=1)]), path)
        replayed = read_trace(path).records
        assert replayed[0].extra == {"upstream": "cdn-3", "retries": 2}
        assert replayed[1].extra == {}


class TestBlocks:
    def test_multi_block_iteration_preserves_order(self, tmp_path):
        dataset = _labelled_dataset(25)
        path = str(tmp_path / "t.trace")
        info = write_trace(dataset, path, block_size=4)
        assert info.block_count == 7
        reader = TraceReader(path)
        assert list(reader.iter_records()) == dataset.records

    def test_time_window_pruning(self, tmp_path):
        dataset = _labelled_dataset(30)  # one record per minute
        path = str(tmp_path / "t.trace")
        write_trace(dataset, path, block_size=5)
        reader = TraceReader(path)
        start = BASE_TIME + timedelta(minutes=10)
        end = BASE_TIME + timedelta(minutes=20)
        window = list(reader.iter_records(start=start, end=end))
        assert [r.request_id for r in window] == [f"r{i}" for i in range(10, 20)]

    def test_iter_labelled_pairs_records_with_labels(self, tmp_path):
        dataset = _labelled_dataset(9)
        path = str(tmp_path / "t.trace")
        write_trace(dataset, path, block_size=4)
        truth = dataset.ground_truth
        for record, label, actor in TraceReader(path).iter_labelled():
            assert label == truth.label_of(record.request_id)
            assert actor == truth.actor_class_of(record.request_id)


class TestInfo:
    def test_info_matches_content(self, tmp_path):
        dataset = _labelled_dataset(12)
        path = str(tmp_path / "t.trace")
        write_trace(dataset, path, block_size=5)
        info = trace_info(path)
        assert info.records == 12
        assert info.labelled
        assert info.time_ordered
        assert info.block_count == 3
        first, last = info.time_range
        assert first == dataset.records[0].timestamp
        assert last == dataset.records[-1].timestamp
        assert info.dataset["name"] == "unit"

    def test_info_to_dict_is_json_ready(self, tmp_path):
        import json

        path = str(tmp_path / "t.trace")
        write_trace(_labelled_dataset(3), path)
        payload = json.loads(json.dumps(trace_info(path).to_dict()))
        assert payload["records"] == 3
        assert payload["labelled"] is True

    def test_render_mentions_key_facts(self, tmp_path):
        path = str(tmp_path / "t.trace")
        write_trace(_labelled_dataset(3), path)
        text = trace_info(path).render()
        assert "records" in text and "labelled" in text and "unit" in text

    def test_unordered_writes_are_flagged(self, tmp_path):
        records = [make_record("r0", seconds=100), make_record("r1", seconds=0)]
        path = str(tmp_path / "t.trace")
        info = write_trace(Dataset(records), path)
        assert not info.time_ordered
        assert read_trace(path).records == records


class TestWriterContract:
    def test_mixed_labelled_unlabelled_writes_are_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="all-or-nothing"):
            with TraceWriter(str(tmp_path / "t.trace")) as writer:
                writer.write(make_record("r0"), label=BENIGN)
                writer.write(make_record("r1", seconds=1))

    def test_unknown_label_is_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="unknown label"):
            with TraceWriter(str(tmp_path / "t.trace")) as writer:
                writer.write(make_record("r0"), label="suspicious")

    def test_write_after_close_is_rejected(self, tmp_path):
        writer = TraceWriter(str(tmp_path / "t.trace"))
        writer.close()
        with pytest.raises(TraceError, match="closed"):
            writer.write(make_record("r0"))

    def test_failed_write_leaves_no_valid_trace(self, tmp_path):
        path = tmp_path / "t.trace"
        with pytest.raises(RuntimeError):
            with TraceWriter(str(path)) as writer:
                writer.write(make_record("r0"))
                raise RuntimeError("boom")
        with pytest.raises(TraceError):
            trace_info(str(path))


class TestMetadataExtra:
    def test_non_json_extra_raises_naming_its_key_before_the_file_exists(self, tmp_path):
        path = tmp_path / "t.trace"
        metadata = DatasetMetadata(
            extra={"when": datetime(2018, 3, 11, tzinfo=timezone.utc), "tag": "keep-me"}
        )
        with pytest.raises(TraceError, match="'when'"):
            TraceWriter(str(path), metadata=metadata)
        with pytest.raises(TraceError, match="'when'"):
            write_trace(Dataset(make_records(2), metadata=metadata), str(path))
        assert not path.exists()

    def test_json_extra_round_trips(self, tmp_path):
        path = str(tmp_path / "t.trace")
        metadata = DatasetMetadata(extra={"tag": "keep-me", "attempts": [1, 2]})
        write_trace(Dataset(make_records(2), metadata=metadata), path)
        assert read_trace(path).metadata.extra == {"tag": "keep-me", "attempts": [1, 2]}


#: A UTC offset of +01:00:00.5, which trace timestamps cannot carry.
_SUB_SECOND_ZONE = timezone(timedelta(hours=1, microseconds=500_000))


def _sub_second_records() -> list:
    records = make_records(3)
    object.__setattr__(records[1], "timestamp", records[1].timestamp.astimezone(_SUB_SECOND_ZONE))
    return records


class TestSubSecondOffsets:
    """Every write path rejects an offset it cannot store, and leaves no valid trace."""

    def test_record_built_write_trace(self, tmp_path):
        path = str(tmp_path / "t.trace")
        with pytest.raises(TraceError, match="sub-second UTC offset"):
            write_trace(Dataset(_sub_second_records()), path)
        with pytest.raises(TraceError):
            trace_info(path)

    def test_write_frame(self, tmp_path):
        path = str(tmp_path / "t.trace")
        frame = RecordFrame.from_records(_sub_second_records())
        with pytest.raises(TraceError, match="sub-second UTC offset"):
            with TraceWriter(path) as writer:
                writer.write_frame(frame)
        with pytest.raises(TraceError):
            trace_info(path)

    def test_buffered_write(self, tmp_path):
        path = str(tmp_path / "t.trace")
        with pytest.raises(TraceError, match="sub-second UTC offset"):
            with TraceWriter(path) as writer:
                for record in _sub_second_records():
                    writer.write(record)
        with pytest.raises(TraceError):
            trace_info(path)


class TestWriteFrame:
    def test_generated_frame_writes_the_bytes_of_its_records(self, tmp_path):
        generated = generate_dataset(balanced_small(total_requests=1_500, seed=5))
        record_built = Dataset(
            list(generated.records),
            ground_truth=generated.ground_truth,
            metadata=generated.metadata,
            time_ordered=True,
        )
        assert generated.frame is not None and record_built.frame is None
        from_frame, from_records = str(tmp_path / "frame.trace"), str(tmp_path / "records.trace")
        write_trace(generated, from_frame, block_size=256)
        write_trace(record_built, from_records, block_size=256)
        with open(from_frame, "rb") as ours, open(from_records, "rb") as theirs:
            assert ours.read() == theirs.read()

    def test_frames_and_buffered_records_share_the_trace_tables(self, tmp_path):
        path = str(tmp_path / "t.trace")
        first = make_records(5, ip="10.0.0.1")
        second = [make_record(f"s{i}", seconds=10 + i, ip=f"10.0.0.{i % 2 + 1}") for i in range(4)]
        third = [make_record("t0", seconds=20, ip="10.0.0.9")]
        with TraceWriter(path, block_size=3) as writer:
            writer.write_frame(RecordFrame.from_records(first))
            for record in second:
                writer.write(record)
            writer.write_frame(RecordFrame.from_records(third))
            info = writer.close()
        # 5 rows in blocks of 3, then the 4 buffered records (a full
        # block and the rest, flushed ahead of the next frame), then 1.
        reader = TraceReader(path)
        assert [len(records) for records, _columns in reader.iter_blocks()] == [3, 2, 3, 1, 1]
        assert info.records == 10 and info.time_ordered
        assert read_trace(path).records == first + second + third
        # One trace-global table: a string seen in an earlier frame keeps its code.
        assert reader.read_frame().tables["client_ip"] == ["10.0.0.1", "10.0.0.2", "10.0.0.9"]

    def test_labelled_then_unlabelled_frame_is_rejected(self, tmp_path):
        labelled = RecordFrame.from_records(
            make_records(2), labels=[BENIGN, MALICIOUS], actor_classes=["human", "bot"]
        )
        with pytest.raises(TraceError, match="all-or-nothing"):
            with TraceWriter(str(tmp_path / "t.trace")) as writer:
                writer.write_frame(labelled)
                writer.write_frame(RecordFrame.from_records(make_records(2)))

    def test_label_codes_outside_benign_malicious_are_rejected(self, tmp_path):
        frame = RecordFrame.from_records(make_records(2))
        bad = RecordFrame(
            request_ids=frame.request_ids,
            timestamps_us=frame.timestamps_us,
            tz_offsets_us=frame.tz_offsets_us,
            statuses=frame.statuses,
            sizes=frame.sizes,
            codes=frame.codes,
            tables=frame.tables,
            labels=np.array([0, 2]),
        )
        with pytest.raises(TraceError, match="unknown label codes 0..2"):
            with TraceWriter(str(tmp_path / "t.trace")) as writer:
                writer.write_frame(bad)


class TestReaderErrors:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            TraceReader(str(tmp_path / "nope.trace"))

    def test_non_trace_file_raises(self, tmp_path):
        path = tmp_path / "not.trace"
        path.write_bytes(b"x" * 200)
        with pytest.raises(TraceError, match="magic"):
            TraceReader(str(path))

    def test_tiny_file_raises(self, tmp_path):
        path = tmp_path / "tiny.trace"
        path.write_bytes(b"RT")
        with pytest.raises(TraceError, match="too small"):
            TraceReader(str(path))

    def test_truncated_trace_raises(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(_labelled_dataset(5), str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceError):
            TraceReader(str(path))

    def test_replayed_dataset_is_marked_time_ordered(self, tmp_path):
        path = str(tmp_path / "t.trace")
        write_trace(_labelled_dataset(5), path)
        assert read_trace(path).is_time_ordered


class TestCorruptCodes:
    """A block whose codes fall outside the trace's tables fails on every read path."""

    @staticmethod
    def _corrupt_trace(tmp_path, monkeypatch, column: str, code: int) -> str:
        """A 3-record labelled trace whose second record carries ``code`` in ``column``."""

        def corrupting(columns):
            if column == "label":
                target = columns.labels
            elif column == "actor":
                target = columns.actor_indices
            else:
                target = columns.dict_indices[column]
            target[1] = code
            return encode_block(columns)

        path = str(tmp_path / "corrupt.trace")
        with monkeypatch.context() as patch:
            patch.setattr(store, "encode_block", corrupting)
            write_trace(_labelled_dataset(3), path)
        return path

    CASES = [
        ("client_ip", -1),
        ("client_ip", 3),
        ("user_agent", -1),
        ("path", 99),
        ("label", 2),
        ("actor", -1),
        ("actor", 2),
    ]

    @pytest.mark.parametrize("column,code", CASES)
    def test_record_replay_rejects_the_code(self, tmp_path, monkeypatch, column, code):
        path = self._corrupt_trace(tmp_path, monkeypatch, column, code)
        with pytest.raises(TraceError, match=f"{column} codes"):
            list(TraceReader(path).iter_records())
        with pytest.raises(TraceError, match=f"{column} codes"):
            read_trace(path)

    @pytest.mark.parametrize("column,code", CASES)
    def test_frame_read_rejects_the_code(self, tmp_path, monkeypatch, column, code):
        path = self._corrupt_trace(tmp_path, monkeypatch, column, code)
        with pytest.raises(TraceError, match=f"{column} codes"):
            TraceReader(path).read_frame()

    def test_tables_run_over_a_negative_ip_code_fails_with_a_trace_error(
        self, tmp_path, monkeypatch
    ):
        path = self._corrupt_trace(tmp_path, monkeypatch, "client_ip", -1)
        with pytest.raises(TraceError, match="client_ip codes -1..0 fall outside its table of 1"):
            execute(RunSpec(mode="tables", traffic=TrafficSpec(source="trace", path=path)))

    def test_unlabelled_block_in_a_labelled_trace_is_rejected(self, tmp_path, monkeypatch):
        def unlabelled(columns):
            columns.labels = columns.actor_indices = None
            return encode_block(columns)

        path = str(tmp_path / "corrupt.trace")
        with monkeypatch.context() as patch:
            patch.setattr(store, "encode_block", unlabelled)
            write_trace(_labelled_dataset(3), path)
        assert trace_info(path).labelled
        with pytest.raises(TraceError, match="unlabelled block"):
            read_trace(path)
        with pytest.raises(TraceError, match="unlabelled block"):
            TraceReader(path).read_frame()
