"""The stream engine encodes each record once and judges live sessions from its columns.

Every record is dictionary-encoded at ingest, into its live session's
columns, against tables the engine owns; a session judgement gathers
those columns into a frame and runs the unchanged batch kernels on it.
These tests pin that no replay columnarises record objects, that each
record is encoded exactly once, that the judgements equal the batch
pipeline's over the same records (late arrivals, gap closes and
eviction sweeps included), and that closed sessions leave no encoded
rows behind.
"""

from __future__ import annotations

import gc
import os
import tracemalloc
from collections import Counter
from datetime import timedelta

import numpy as np
import pytest

from repro.columns import FeatureMatrix, RecordFrame, sessionize_frame
from repro.detectors.inhouse import InHouseHeuristicDetector
from repro.detectors.ratelimit import RateLimitDetector
from repro.stream import (
    OnlineDetector,
    OnlineVerdict,
    StreamEngine,
    WindowedAdjudicator,
    default_online_detectors,
)
from repro.stream import columnar
from repro.stream.columnar import StreamEncoder, session_columns
from repro.stream.sessionizer import IncrementalSessionizer
from repro.stream.sources import dataset_replay
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small
from tests.helpers import SCRIPTED_UA, make_record

#: Bytes a finished engine may still hold, per ingested record, from
#: the stream's encoding code.  Keeping each closed session's encoded
#: rows would hold 80 B per record.
MAX_ENCODED_BYTES_PER_RECORD = 8


@pytest.fixture(scope="module")
def balanced_records():
    return list(dataset_replay(generate_dataset(balanced_small(total_requests=3000, seed=7))))


def _engine(detectors=None) -> StreamEngine:
    detectors = default_online_detectors() if detectors is None else detectors
    return StreamEngine(
        detectors,
        adjudicator=WindowedAdjudicator([d.name for d in detectors], k=2, window_seconds=300.0),
    )


def test_replay_builds_no_frame_from_record_objects(balanced_records, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a replay columnarised record objects")

    monkeypatch.setattr(RecordFrame, "from_records", refuse)
    result = _engine().run(iter(balanced_records))
    assert result.stats.records == len(balanced_records)
    assert result.stats.sessions_closed > 100


def _count_encodings(monkeypatch) -> Counter[str]:
    """Count each request id's encodings, at the encoder."""
    encoded: Counter[str] = Counter()
    original = StreamEncoder.add

    def counting(self, session, record, *args, **kwargs):
        encoded[record.request_id] += 1
        return original(self, session, record, *args, **kwargs)

    monkeypatch.setattr(StreamEncoder, "add", counting)
    return encoded


def test_each_record_is_encoded_exactly_once(balanced_records, monkeypatch):
    encoded = _count_encodings(monkeypatch)
    _engine().run(iter(balanced_records))
    assert set(encoded) == {record.request_id for record in balanced_records}
    assert set(encoded.values()) == {1}


def test_a_late_record_closed_by_its_own_sweep_is_encoded_once(monkeypatch):
    # The late record lands in its visitor's lingering session, and the
    # eviction sweep it runs closes that session before the detectors
    # observe the record: they judge it from the close's build.
    encoded = _count_encodings(monkeypatch)
    engine = _engine()
    engine.sessionizer = IncrementalSessionizer(eviction_interval=13)
    records = [make_record(f"r{i}", seconds=i * 0.5, user_agent=SCRIPTED_UA) for i in range(11)]
    records.append(make_record("other", seconds=40 * 60, ip="10.0.0.2"))
    records.append(make_record("late", seconds=6.0, user_agent=SCRIPTED_UA))
    for record in records:
        (verdict,) = engine.process(record)
    assert engine.stats.sessions_closed == 1
    assert verdict.votes["inhouse"].alerted
    engine.finish()
    assert set(encoded) == {record.request_id for record in records}
    assert set(encoded.values()) == {1}


def _batch_judgement(records, kernels):
    """Feature row and kernel verdicts of ``records`` as one session, through the batch path."""
    frame = RecordFrame.from_records(records)
    spans = sessionize_frame(frame)
    assert len(spans) == 1
    features = FeatureMatrix.from_frame(frame, spans)
    verdicts = []
    for kernel in kernels:
        alerts = kernel.alert_columns(frame, spans, features)
        verdicts.append(
            (float(alerts.scores[0]), alerts.reasons_of(0)) if alerts.flags[0] else None
        )
    return features.values[0], verdicts


class _JudgementSpy(OnlineDetector):
    """Checks every live and closed session judgement against the batch path."""

    name = "spy"

    def __init__(self) -> None:
        super().__init__()
        self.kernels = (InHouseHeuristicDetector(), RateLimitDetector())
        self.checked = 0
        self.late = 0
        self.group_sizes: list[int] = []

    def _check(self, session) -> None:
        columns, index = session_columns(session)
        row, verdicts = _batch_judgement(session.records, self.kernels)
        assert np.array_equal(columns.features.values[index], row)
        assert [columns.verdict(kernel, index) for kernel in self.kernels] == verdicts
        self.checked += 1

    def observe(self, record, session=None):
        if session.records[-1] is not record:
            self.late += 1
        self._check(session)
        return OnlineVerdict(request_id=record.request_id, alerted=False)

    def on_session_close(self, session):
        self.group_sizes.append(len(session_columns(session)[0].spans))
        self._check(session)


def _tricky_records():
    """A late arrival mid-session, a gap close, and an eviction sweep closing four sessions."""
    records = []
    # Visitor A: a scripted burst, with one record arriving late.
    for i in range(12):
        records.append(
            make_record(
                f"a{i}",
                seconds=i * 2,
                ip="10.0.0.1",
                user_agent=SCRIPTED_UA,
                path=f"/api/fares?q={i}",
                status=404 if i % 3 else 200,
            )
        )
    records.insert(9, records.pop(4))  # a4 (t=8 s) arrives after a9 (t=18 s)
    # Visitor B: a session, then a gap over the timeout and a new session.
    for i in range(5):
        records.append(make_record(f"b{i}", seconds=30 + i, ip="10.0.0.2", path="/robots.txt"))
    records.append(make_record("b-gap", seconds=3630, ip="10.0.0.2", method="HEAD"))
    # Visitors C0-C2, then a visitor whose records move the watermark
    # far enough for the next sweep to evict B's second session and C0-C2.
    for v in range(3):
        records.append(make_record(f"c{v}", seconds=3640 + v, ip=f"10.0.1.{v}", path="/a.css"))
    for i in range(3):
        records.append(make_record(f"tick{i}", seconds=4 * 3600 + i, ip="10.0.9.9"))
    return records


def test_live_judgements_equal_the_batch_kernels():
    spy = _JudgementSpy()
    engine = StreamEngine([spy])
    engine.sessionizer = IncrementalSessionizer(timedelta(minutes=30), eviction_interval=4)
    for record in _tricky_records():
        engine.process(record)
    engine.finish()
    assert spy.late == 1
    assert spy.checked == len(_tricky_records()) + engine.stats.sessions_closed
    assert max(spy.group_sizes) == 4  # one sweep closed four sessions at once


def test_judgements_of_a_replay_equal_the_batch_kernels(balanced_records):
    spy = _JudgementSpy()
    _engine([spy, *default_online_detectors()]).run(iter(balanced_records[:600]))
    assert spy.checked > 600


def test_closed_sessions_leave_no_encoded_rows(balanced_records):
    source = os.path.normcase(os.path.abspath(columnar.__file__))
    gc.collect()
    tracemalloc.start(1)
    try:
        engine = _engine()
        result = engine.run(iter(balanced_records))
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(
        trace.size
        for trace in snapshot.traces
        if os.path.normcase(trace.traceback[0].filename) == source
    )
    assert result.stats.records == len(balanced_records)
    assert engine.sessionizer.open_sessions == 0
    assert held < MAX_ENCODED_BYTES_PER_RECORD * len(balanced_records)
