"""The stream's final alerts are columns until a caller asks for alert sets.

A finished replay holds each port's alerts as row/score/reason-code
columns and every row's request id once; ``Alert`` objects are built
only by ``alert_sets``, ``alert_set()`` or ``final_alert_set()``.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.alerts import Alert, AlertSet
from repro.obs.metrics import MetricsRegistry
from repro.stream import (
    OnlineDetector,
    OnlineVerdict,
    ShardedStreamRunner,
    StreamEngine,
    default_online_detectors,
)
from repro.stream.sources import dataset_replay
from repro.traffic.generator import generate_dataset
from repro.traffic.scenarios import balanced_small
from tests.helpers import make_records

#: Bytes a finished replay may hold per final alert.  With an ``Alert``
#: object per alerted request this replay held about 214 B per alert; as
#: columns it holds about 48 B.
MAX_BYTES_PER_ALERT = 100


@pytest.fixture(scope="module")
def balanced_dataset():
    return generate_dataset(balanced_small(total_requests=3000, seed=7))


@pytest.fixture
def alert_constructions(monkeypatch):
    """A list that grows by one for every ``Alert`` constructed."""
    built: list[str] = []
    original = Alert.__post_init__

    def counting(self) -> None:
        built.append(self.request_id)
        original(self)

    monkeypatch.setattr(Alert, "__post_init__", counting)
    return built


def _engine() -> StreamEngine:
    return StreamEngine(default_online_detectors())


def test_finished_replay_holds_few_bytes_per_final_alert(balanced_dataset):
    records = list(dataset_replay(balanced_dataset))
    gc.collect()
    tracemalloc.start()
    try:
        engine = _engine()
        result = engine.run(iter(records))
        alerts = sum(result.alert_counts().values())
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        del engine, result
        gc.collect()
        released, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alerts > 1000
    assert (held - released) / alerts < MAX_BYTES_PER_ALERT


def test_no_alert_is_built_until_alert_sets_are_asked_for(
    balanced_dataset, alert_constructions
):
    # A registry makes finish() and the sharded join export their metrics.
    registry = MetricsRegistry()
    engine = StreamEngine(default_online_detectors(), registry=registry)
    result = engine.run(dataset_replay(balanced_dataset))
    sharded = ShardedStreamRunner(_engine, workers=2, registry=MetricsRegistry()).run(
        dataset_replay(balanced_dataset)
    )
    counts = result.alert_counts()
    assert sharded.alert_counts() == counts
    matrix = result.to_matrix(balanced_dataset)
    assert alert_constructions == []
    assert matrix.alert_counts() == counts
    assert {s.detector_name: len(s) for s in result.alert_sets} == counts
    assert len(alert_constructions) == sum(counts.values())


def test_counts_and_matrix_do_not_depend_on_workers(balanced_dataset, shard_path):
    single = _engine().run(dataset_replay(balanced_dataset))
    matrix = single.to_matrix(balanced_dataset)
    for workers in (2, 3):
        sharded = ShardedStreamRunner(_engine, workers=workers).run(
            dataset_replay(balanced_dataset)
        )
        assert sharded.alert_counts() == single.alert_counts()
        other = sharded.to_matrix(balanced_dataset)
        assert other.detector_names == matrix.detector_names
        assert np.array_equal(other.values, matrix.values)


class _Twice(OnlineDetector):
    """Files two alerts on every request, then one more at session close."""

    name = "twice"

    def observe(self, record, session=None):
        self._alert(record, 0.25, ("first", "shared"))
        self._alert(record, 0.75, ("shared", "second"))
        return OnlineVerdict(request_id=record.request_id, alerted=True)

    def on_session_close(self, session):
        self._alert_session(session, 0.5, ("closed",))


def test_a_row_alerted_twice_materialises_with_the_alert_set_merge():
    records = make_records(4, gap_seconds=1)
    result = StreamEngine([_Twice()]).run(iter(records))
    expected = AlertSet("twice")
    for record in records:
        expected.add(record.request_id, 0.25, ("first", "shared"))
        expected.add(record.request_id, 0.75, ("shared", "second"))
    for record in records:
        expected.add(record.request_id, 0.5, ("closed",))
    assert result.alert_counts() == {"twice": 4}
    (alert_set,) = result.alert_sets
    assert sorted(alert_set.alerts(), key=lambda a: a.request_id) == sorted(
        expected.alerts(), key=lambda a: a.request_id
    )
    assert alert_set.get(records[0].request_id).reasons == ("first", "shared", "second", "closed")
    assert alert_set.get(records[0].request_id).score == 0.75
