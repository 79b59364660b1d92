"""Tests for the trace store (:mod:`repro.trace.store`)."""

from __future__ import annotations

from datetime import timedelta, timezone

import pytest

from repro.exceptions import TraceError
from repro.logs.dataset import BENIGN, MALICIOUS, Dataset, DatasetMetadata, GroundTruth
from repro.runspec import RunSpec, TrafficSpec, execute
from repro.trace import TraceReader, TraceWriter, read_trace, store, trace_info, write_trace
from repro.trace.format import encode_block
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
