"""Content-addressed generation cache.

Synthetic traffic generation is pure: the same scenario name, scale,
seed and parameters always produce the same data set.  That makes the
generated traffic cacheable by the *hash of its generation inputs* --
the first run records the data set as a trace under ``.repro-cache/``
and every later run (in any process) replays it at I/O speed instead of
re-simulating every actor.

The cache is two-tier:

* an in-process LRU of materialised :class:`~repro.logs.dataset.Dataset`
  objects, so sweeps that execute many specs over the same traffic pay
  for at most one decode per process, and
* the on-disk trace files themselves, shared across processes and runs.
  A disk hit maps the trace straight into a
  :class:`~repro.columns.RecordFrame` (labels, actor classes, metadata
  and time order included) and returns the data set it backs; records
  are built only if a caller asks for them.

:func:`~repro.runspec.execute.build_dataset` consults the cache when a
spec sets ``TrafficSpec(cache=True)``; nothing else in the library
changes, which is what makes the caching transparent.

The cache directory defaults to ``.repro-cache`` in the working
directory and can be moved with the ``REPRO_CACHE_DIR`` environment
variable.  Entries are ordinary trace files -- ``repro trace info`` on a
cache entry tells you exactly what is in it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections import OrderedDict
from typing import Any, Callable, Mapping

from repro.exceptions import TraceError
from repro.logs.dataset import Dataset
from repro.obs import names as metric_names
from repro.obs.metrics import resolve_registry
from repro.trace.format import FORMAT_VERSION
from repro.trace.store import TraceInfo, TraceReader, trace_info, write_trace

logger = logging.getLogger(__name__)

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default number of materialised data sets kept in process memory.
DEFAULT_MEMORY_SLOTS = 4


def traffic_fingerprint(
    *,
    scenario: str,
    scale: float | None = None,
    seed: int | None = None,
    params: Mapping[str, Any] | None = None,
) -> str:
    """A stable content address for one set of generation inputs.

    The fingerprint is the SHA-256 of the canonical JSON of everything
    that determines the generated traffic: scenario name, scale, seed,
    extra factory parameters, the trace format version *and the library
    version* -- the traffic generator's behaviour is part of the
    content, so an upgrade that changes generation can never silently
    replay traffic recorded by an older version.  Parameter order does
    not matter; non-JSON-serializable parameters raise
    :class:`TraceError` because they cannot be addressed stably.
    """
    from repro import __version__ as library_version  # late: package init order

    try:
        canonical = json.dumps(
            {
                "kind": "scenario",
                "scenario": scenario,
                "scale": scale,
                "seed": seed,
                "params": dict(params or {}),
                "trace_format": FORMAT_VERSION,
                "library_version": library_version,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    except (TypeError, ValueError) as exc:
        raise TraceError(
            f"cannot fingerprint scenario {scenario!r}: parameters are not "
            f"JSON-serializable ({exc})"
        ) from exc
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


class GenerationCache:
    """A directory of content-addressed traces plus an in-process LRU."""

    def __init__(self, root: str | None = None, *, memory_slots: int = DEFAULT_MEMORY_SLOTS):
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = root
        self.memory_slots = memory_slots
        self._memory: OrderedDict[str, Dataset] = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def path_for(self, fingerprint: str) -> str:
        """The trace path a fingerprint maps to."""
        return os.path.join(self.root, f"{fingerprint}.trace")

    def _remember(self, fingerprint: str, dataset: Dataset) -> None:
        if self.memory_slots < 1:
            return
        self._memory[fingerprint] = dataset
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.memory_slots:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    def load(self, fingerprint: str, *, registry=None) -> Dataset | None:
        """The cached data set for a fingerprint, or ``None`` on a miss.

        A corrupt or unreadable cache entry (e.g. a run killed mid-write
        before the atomic rename, or a stale format) is treated as a
        miss and removed, so the caller simply regenerates.
        """
        registry = resolve_registry(registry)
        cached = self._memory.get(fingerprint)
        if cached is not None:
            self._memory.move_to_end(fingerprint)
            self.memory_hits += 1
            registry.counter(
                metric_names.CACHE_HITS, "Generation-cache hits by tier."
            ).inc(tier="memory")
            logger.debug("cache hit", extra={"tier": "memory", "fingerprint": fingerprint})
            return cached
        path = self.path_for(fingerprint)
        if not os.path.exists(path):
            return None
        try:
            dataset = TraceReader(path, registry=registry).read_frame().to_dataset()
        except TraceError:
            logger.warning(
                "corrupt cache entry removed", extra={"fingerprint": fingerprint, "path": path}
            )
            try:
                os.remove(path)
            except OSError:  # repro-lint: allow[REP007] best-effort removal, corruption already logged
                pass
            return None
        self.disk_hits += 1
        registry.counter(
            metric_names.CACHE_HITS, "Generation-cache hits by tier."
        ).inc(tier="disk")
        logger.debug("cache hit", extra={"tier": "disk", "fingerprint": fingerprint})
        self._remember(fingerprint, dataset)
        return dataset

    def store(self, fingerprint: str, dataset: Dataset, *, registry=None) -> str:
        """Record a data set under its fingerprint (atomic rename)."""
        os.makedirs(self.root, exist_ok=True)
        path = self.path_for(fingerprint)
        temp_path = f"{path}.tmp.{os.getpid()}"
        try:
            write_trace(dataset, temp_path, registry=registry)
            os.replace(temp_path, path)
        finally:
            if os.path.exists(temp_path):
                try:
                    os.remove(temp_path)
                except OSError:  # repro-lint: allow[REP007] best-effort tmp cleanup
                    pass
        self._remember(fingerprint, dataset)
        return path

    def get_or_generate(
        self, fingerprint: str, builder: Callable[[], Dataset], *, registry=None
    ) -> Dataset:
        """Replay the cached traffic, or generate-and-record on first use."""
        cached = self.load(fingerprint, registry=registry)
        if cached is not None:
            return cached
        self.misses += 1
        resolve_registry(registry).counter(
            metric_names.CACHE_MISSES, "Generation-cache misses (traffic regenerated)."
        ).inc()
        logger.debug("cache miss", extra={"fingerprint": fingerprint})
        dataset = builder()
        self.store(fingerprint, dataset, registry=registry)
        return dataset

    # ------------------------------------------------------------------
    def entries(self) -> list[TraceInfo]:
        """Footer summaries of every cache entry on disk."""
        if not os.path.isdir(self.root):
            return []
        infos = []
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".trace"):
                continue
            try:
                infos.append(trace_info(os.path.join(self.root, name)))
            except TraceError:
                continue
        return infos

    def clear_memory(self) -> None:
        """Drop the in-process LRU (disk entries stay)."""
        self._memory.clear()

    def clear(self) -> int:
        """Delete every on-disk entry; returns how many were removed."""
        self.clear_memory()
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for name in os.listdir(self.root):
            if name.endswith(".trace"):
                try:
                    os.remove(os.path.join(self.root, name))
                    removed += 1
                except OSError:
                    continue
        return removed


_DEFAULT_CACHES: dict[str, GenerationCache] = {}


def default_cache() -> GenerationCache:
    """The process-wide cache for the current cache directory.

    The directory is re-resolved from ``REPRO_CACHE_DIR`` on every call
    (one cache instance per directory), so tests and tools that point the
    variable somewhere else get an isolated cache without global resets.
    """
    root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
    cache = _DEFAULT_CACHES.get(root)
    if cache is None:
        cache = GenerationCache(root)
        _DEFAULT_CACHES[root] = cache
    return cache
