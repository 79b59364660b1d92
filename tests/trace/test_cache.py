"""Tests for the content-addressed generation cache (:mod:`repro.trace.cache`)."""

from __future__ import annotations

import pytest

from repro.exceptions import TraceError
from repro.logs.dataset import Dataset
from repro.trace import GenerationCache, default_cache, traffic_fingerprint
from repro.trace.cache import CACHE_DIR_ENV
from tests.helpers import make_records


class TestFingerprint:
    def test_same_inputs_same_fingerprint(self):
        a = traffic_fingerprint(scenario="s", scale=0.1, seed=7, params={"x": 1, "y": 2})
        b = traffic_fingerprint(scenario="s", scale=0.1, seed=7, params={"y": 2, "x": 1})
        assert a == b

    def test_any_input_changes_the_fingerprint(self):
        base = traffic_fingerprint(scenario="s", scale=0.1, seed=7)
        assert traffic_fingerprint(scenario="t", scale=0.1, seed=7) != base
        assert traffic_fingerprint(scenario="s", scale=0.2, seed=7) != base
        assert traffic_fingerprint(scenario="s", scale=0.1, seed=8) != base
        assert traffic_fingerprint(scenario="s", scale=0.1, seed=7, params={"k": 1}) != base

    def test_unserializable_params_are_rejected(self):
        with pytest.raises(TraceError, match="JSON-serializable"):
            traffic_fingerprint(scenario="s", params={"bad": object()})


class TestGenerationCache:
    def _dataset(self, count: int = 8) -> Dataset:
        return Dataset(make_records(count))

    def test_get_or_generate_builds_once(self, tmp_path):
        cache = GenerationCache(str(tmp_path / "cache"))
        calls = []

        def builder():
            calls.append(1)
            return self._dataset()

        fp = traffic_fingerprint(scenario="s", seed=1)
        first = cache.get_or_generate(fp, builder)
        second = cache.get_or_generate(fp, builder)
        assert len(calls) == 1
        assert first.records == second.records
        assert cache.memory_hits == 1 and cache.misses == 1

    def test_disk_hit_after_memory_is_cleared(self, tmp_path):
        cache = GenerationCache(str(tmp_path / "cache"))
        fp = traffic_fingerprint(scenario="s", seed=2)
        original = cache.get_or_generate(fp, self._dataset)
        cache.clear_memory()
        replayed = cache.get_or_generate(fp, lambda: pytest.fail("should hit disk"))
        assert replayed.records == original.records
        assert cache.disk_hits == 1

    def test_disk_hit_builds_no_record(self, tmp_path):
        import gc

        from repro.logs.record import LogRecord
        from repro.traffic.generator import generate_dataset
        from repro.traffic.scenarios import balanced_small

        def live_records() -> int:
            return sum(isinstance(item, LogRecord) for item in gc.get_objects())

        original = generate_dataset(balanced_small(total_requests=400, seed=4))
        fp = traffic_fingerprint(scenario="balanced_small", seed=4)
        GenerationCache(str(tmp_path / "cache")).store(fp, original)
        before = live_records()
        replayed = GenerationCache(str(tmp_path / "cache")).load(fp)
        assert len(replayed) == len(original)
        assert replayed.metadata == original.metadata
        assert replayed.is_time_ordered
        assert live_records() <= before
        assert replayed.records == original.records
        assert replayed.ground_truth.to_dict() == original.ground_truth.to_dict()

    def test_distinct_fingerprints_get_distinct_entries(self, tmp_path):
        cache = GenerationCache(str(tmp_path / "cache"))
        cache.get_or_generate(traffic_fingerprint(scenario="a"), self._dataset)
        cache.get_or_generate(traffic_fingerprint(scenario="b"), lambda: self._dataset(3))
        assert len(cache.entries()) == 2

    def test_corrupt_entry_is_regenerated(self, tmp_path):
        cache = GenerationCache(str(tmp_path / "cache"))
        fp = traffic_fingerprint(scenario="s", seed=3)
        cache.get_or_generate(fp, self._dataset)
        cache.clear_memory()
        with open(cache.path_for(fp), "wb") as handle:
            handle.write(b"garbage" * 10)
        rebuilt = cache.get_or_generate(fp, lambda: self._dataset(5))
        assert len(rebuilt) == 5
        assert cache.misses == 2

    def test_memory_lru_is_bounded(self, tmp_path):
        cache = GenerationCache(str(tmp_path / "cache"), memory_slots=2)
        for name in ("a", "b", "c"):
            cache.get_or_generate(traffic_fingerprint(scenario=name), self._dataset)
        assert len(cache._memory) == 2
        # Oldest entry fell out of memory but is still on disk.
        cache.get_or_generate(traffic_fingerprint(scenario="a"), lambda: pytest.fail("disk!"))
        assert cache.disk_hits == 1

    def test_clear_removes_disk_entries(self, tmp_path):
        cache = GenerationCache(str(tmp_path / "cache"))
        cache.get_or_generate(traffic_fingerprint(scenario="s"), self._dataset)
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_entries_report_trace_infos(self, tmp_path):
        cache = GenerationCache(str(tmp_path / "cache"))
        cache.get_or_generate(traffic_fingerprint(scenario="s"), lambda: self._dataset(6))
        (entry,) = cache.entries()
        assert entry.records == 6


class TestDefaultCache:
    def test_default_cache_follows_the_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache-a"))
        first = default_cache()
        assert first.root == str(tmp_path / "cache-a")
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache-b"))
        second = default_cache()
        assert second.root == str(tmp_path / "cache-b")
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache-a"))
        assert default_cache() is first
