"""Tests for trace composition operators (:mod:`repro.trace.ops`)."""

from __future__ import annotations

from datetime import timedelta

import pytest

from repro.exceptions import TraceError
from repro.logs.dataset import BENIGN, MALICIOUS, Dataset, DatasetMetadata, GroundTruth
from repro.trace import interleave_traces, read_trace, write_trace
from tests.helpers import make_record, make_records

OVERLAY_IP = "10.99.0.1"


def _write(tmp_path, name, records, *, labels=None):
    truth = None
    if labels is not None:
        truth = GroundTruth()
        for record, label in zip(records, labels):
            truth.set(record.request_id, label, "unit_actor")
    dataset = Dataset(records, ground_truth=truth, metadata=DatasetMetadata(name=name))
    path = str(tmp_path / f"{name}.trace")
    write_trace(dataset, path)
    return path


def _overlay_records(count, *, gap_seconds=1.0):
    """Records of one overlay visitor, each told apart by its path."""
    return [
        make_record(f"o{i}", seconds=i * gap_seconds, ip=OVERLAY_IP, path=f"/o/{i}")
        for i in range(count)
    ]


def _overlay_paths(path):
    """The paths of the overlay visitor's records in a trace, in trace order."""
    return [record.path for record in read_trace(path) if record.client_ip == OVERLAY_IP]


class TestInterleave:
    def test_merges_in_timestamp_order(self, tmp_path):
        base = _write(tmp_path, "base", make_records(10, gap_seconds=10.0))
        overlay = _write(
            tmp_path,
            "overlay",
            [make_record(f"o{i}", seconds=5.0 + 10.0 * i, ip="10.99.0.1") for i in range(5)],
        )
        out = str(tmp_path / "mix.trace")
        info = interleave_traces(base, overlay, out)
        assert info.records == 15
        replayed = read_trace(out)
        timestamps = [r.timestamp for r in replayed]
        assert timestamps == sorted(timestamps)
        assert replayed.is_time_ordered
        assert len({r.request_id for r in replayed}) == 15

    def test_shift_and_sample_apply_to_the_overlay_only(self, tmp_path):
        base = _write(tmp_path, "base", make_records(4, gap_seconds=100.0))
        overlay = _write(
            tmp_path, "overlay", [make_record(f"o{i}", seconds=i, ip="10.99.0.1") for i in range(50)]
        )
        out = str(tmp_path / "mix.trace")
        info = interleave_traces(
            base, overlay, out, shift_overlay_seconds=1000.0, sample_overlay=0.5, seed=3
        )
        replayed = read_trace(out)
        overlay_records = [r for r in replayed if r.client_ip == "10.99.0.1"]
        base_records = [r for r in replayed if r.client_ip != "10.99.0.1"]
        assert len(base_records) == 4
        assert 10 <= len(overlay_records) <= 40
        assert all(
            r.timestamp >= make_record("x", seconds=1000.0).timestamp for r in overlay_records
        )
        assert info.records == len(replayed.records)

    def test_unordered_input_is_rejected(self, tmp_path):
        unordered = _write(
            tmp_path, "u", [make_record("r0", seconds=50), make_record("r1", seconds=0)]
        )
        ordered = _write(tmp_path, "o", make_records(2))
        with pytest.raises(TraceError, match="time-ordered"):
            interleave_traces(unordered, ordered, str(tmp_path / "mix.trace"))

    def test_unordered_overlay_is_rejected(self, tmp_path):
        ordered = _write(tmp_path, "o", make_records(2))
        unordered = _write(
            tmp_path, "u", [make_record("r0", seconds=50), make_record("r1", seconds=0)]
        )
        with pytest.raises(TraceError, match="time-ordered"):
            interleave_traces(ordered, unordered, str(tmp_path / "mix.trace"))

    def test_reassigns_request_ids_in_merged_order(self, tmp_path):
        # The overlay's "r0" clashes with the base's; the output numbers anew.
        base = _write(tmp_path, "base", make_records(3, gap_seconds=10.0))
        overlay = _write(tmp_path, "overlay", [make_record("r0", seconds=5.0, ip=OVERLAY_IP)])
        out = str(tmp_path / "mix.trace")
        interleave_traces(base, overlay, out)
        replayed = read_trace(out)
        assert [r.request_id for r in replayed] == ["r0", "r1", "r2", "r3"]
        assert [r.client_ip == OVERLAY_IP for r in replayed] == [False, True, False, False]

    def test_shift_moves_every_overlay_record_by_the_offset(self, tmp_path):
        base_records = make_records(3, gap_seconds=100.0)
        overlay_records = _overlay_records(5)
        base = _write(tmp_path, "base", base_records)
        overlay = _write(tmp_path, "overlay", overlay_records)
        out = str(tmp_path / "mix.trace")
        interleave_traces(base, overlay, out, shift_overlay_seconds=3600)
        replayed = read_trace(out)
        assert {r.path: r.timestamp for r in replayed if r.client_ip == OVERLAY_IP} == {
            r.path: r.timestamp + timedelta(hours=1) for r in overlay_records
        }
        assert [r.timestamp for r in replayed if r.client_ip != OVERLAY_IP] == [
            r.timestamp for r in base_records
        ]

    def test_negative_shift_moves_the_overlay_backwards(self, tmp_path):
        base = _write(tmp_path, "base", make_records(2))
        overlay = _write(tmp_path, "overlay", [make_record("o0", seconds=30, ip=OVERLAY_IP)])
        out = str(tmp_path / "mix.trace")
        interleave_traces(base, overlay, out, shift_overlay_seconds=-60)
        first = read_trace(out).records[0]
        assert first.client_ip == OVERLAY_IP
        assert first.timestamp == make_record().timestamp - timedelta(seconds=30)

    def test_sample_is_deterministic_per_seed(self, tmp_path):
        base = _write(tmp_path, "base", make_records(2))
        overlay = _write(tmp_path, "overlay", _overlay_records(200))
        kept = []
        for index, seed in enumerate((9, 9, 10)):
            out = str(tmp_path / f"mix{index}.trace")
            interleave_traces(base, overlay, out, sample_overlay=0.4, seed=seed)
            kept.append(_overlay_paths(out))
        assert kept[0] == kept[1]
        assert kept[0] != kept[2]

    def test_sample_keeps_roughly_the_fraction(self, tmp_path):
        base = _write(tmp_path, "base", make_records(4))
        overlay = _write(tmp_path, "overlay", _overlay_records(400))
        out = str(tmp_path / "mix.trace")
        info = interleave_traces(base, overlay, out, sample_overlay=0.25, seed=1)
        assert 50 <= len(_overlay_paths(out)) <= 150
        assert info.records == len(_overlay_paths(out)) + 4

    def test_full_sample_keeps_every_overlay_record(self, tmp_path):
        base = _write(tmp_path, "base", make_records(2))
        overlay = _write(tmp_path, "overlay", _overlay_records(10))
        out = str(tmp_path / "mix.trace")
        assert interleave_traces(base, overlay, out, sample_overlay=1.0).records == 12
        assert _overlay_paths(out) == [f"/o/{i}" for i in range(10)]

    def test_labels_survive_when_both_inputs_are_labelled(self, tmp_path):
        base = _write(tmp_path, "base", make_records(2), labels=[BENIGN, BENIGN])
        overlay = _write(
            tmp_path, "overlay", [make_record("o0", seconds=0.5, ip="10.99.0.1")], labels=[MALICIOUS]
        )
        out = str(tmp_path / "mix.trace")
        assert interleave_traces(base, overlay, out).labelled
        truth = read_trace(out).ground_truth
        assert [truth.label_of(f"r{i}") for i in range(3)] == [BENIGN, MALICIOUS, BENIGN]
        assert truth.actor_class_of("r1") == "unit_actor"

    @pytest.mark.parametrize("unlabelled", ["base", "overlay"])
    def test_labels_are_dropped_when_either_input_is_unlabelled(self, tmp_path, unlabelled):
        labels = {"base": [BENIGN, BENIGN], "overlay": [MALICIOUS]}
        labels[unlabelled] = None
        base = _write(tmp_path, "base", make_records(2), labels=labels["base"])
        overlay = _write(
            tmp_path,
            "overlay",
            [make_record("o0", seconds=0.5, ip="10.99.0.1")],
            labels=labels["overlay"],
        )
        out = str(tmp_path / "mix.trace")
        assert not interleave_traces(base, overlay, out).labelled
        assert not read_trace(out).is_labelled

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_sample_overlay_outside_the_unit_interval_is_rejected(self, tmp_path, fraction):
        base = _write(tmp_path, "base", make_records(2))
        overlay = _write(tmp_path, "overlay", make_records(2, ip="10.99.0.1"))
        with pytest.raises(TraceError, match="sample_overlay"):
            interleave_traces(base, overlay, str(tmp_path / "mix.trace"), sample_overlay=fraction)
