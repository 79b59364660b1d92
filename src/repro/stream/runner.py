"""Sharded multi-worker execution of the streaming engine.

Every stateful signal the engine computes is keyed by visitor (sessions,
rate windows, fingerprints), so the stream partitions cleanly by client
IP: records of one visitor always land on the same shard, and each shard
runs an independent :class:`~repro.stream.engine.StreamEngine`.  The
final per-detector alerts merge losslessly: the join lays the shards'
rows end to end, appends each shard's alert columns at its row offset
and remaps its reason codes through the detector's
:class:`~repro.columns.alertframe.ReasonEncoder` (the merge step of the
batch shard join too), and the anomaly port pools its session features
across shards before fitting, so even its global contamination
threshold matches an unsharded run.  Two outputs do
depend on the shard count.  The anomaly port refits its *live* model on
its own shard's closed sessions, so its online votes, and with them the
adjudicated ensemble decisions, differ from one engine's; without that
port the adjudicated alerts match.  Each shard's sessionizer also evicts
against its own watermark, so the eviction count differs.

The records are partitioned in the caller's process and the shards run
through :func:`repro.sharding.run_shards`: one forked worker per shard
where ``fork`` is available, inherited partitions, and only the compact
per-shard exports travel back; elsewhere (or with one worker) the shards
run one after another in-process.  Measured on a shared 2-core machine
(the default scenario at scale 0.02: 28,792 records, the four default
online detectors, ``k=1``; the stream stage alone, medians of two sets
of 9 and 7 alternating rounds), ``workers=2`` took 2.42-2.55 s against
2.50-2.66 s for one engine, neither with a metrics registry: no clear
gain at this size.  With a registry, as the CLI always passes, one
engine took 3.03-3.26 s.  Forked workers record no per-request
histograms, so an instrumented comparison flatters sharding.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.exceptions import DetectorError
from repro.logs.record import LogRecord
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry, resolve_registry
from repro.sharding import forks, run_shards, shard_of
from repro.stream.alerts import StreamRows
from repro.stream.engine import StreamEngine, StreamResult
from repro.stream.events import EngineStats


class ShardedStreamRunner:
    """Run a record stream through visitor-sharded engine workers.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable building one :class:`StreamEngine`; called
        once per shard (plus once in the parent as the merge reference).
        Each call must return a fresh engine -- shards share no state.
    workers:
        Number of visitor shards, each run by one worker.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` owned by the
        *runner* (worker engines run unregistered; per-shard counts are
        bulk-added here at merge time, which is also why per-request
        latency histograms are only available on the single-engine path).
    """

    def __init__(
        self,
        engine_factory: Callable[[], StreamEngine],
        *,
        workers: int = 2,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise DetectorError("workers must be at least 1")
        self.engine_factory = engine_factory
        self.workers = workers
        self.registry = resolve_registry(registry)

    # ------------------------------------------------------------------
    def run(self, records: Iterable[LogRecord]) -> StreamResult:
        """Consume the stream across all shards and merge the results.

        Raises :class:`~repro.exceptions.ShardError` when a shard fails.
        """
        partitions: list[list[LogRecord]] = [[] for _ in range(self.workers)]
        for record in records:
            partitions[shard_of(record.client_ip, self.workers)].append(record)
        factory = self.engine_factory

        def run_shard(index: int) -> dict:
            engine = factory()
            engine.reset()
            for record in partitions[index]:
                engine.process(record)
            return engine.finish_shard()

        exports = run_shards(run_shard, self.workers)
        return self._merge(exports, concurrent=forks(self.workers))

    # ------------------------------------------------------------------
    def _merge(self, exports: Sequence[dict], *, concurrent: bool) -> StreamResult:
        reference = self.engine_factory()
        rows = StreamRows()
        offsets = []
        for export in exports:
            offsets.append(len(rows))
            rows.request_ids.extend(export["request_ids"])
        reference.bind(rows)
        final_alerts = [
            detector.merge_states([export["states"][column] for export in exports], offsets)
            for column, detector in enumerate(reference.detectors)
        ]

        stats = EngineStats(online_alerts={d.name: 0 for d in reference.detectors})
        latencies: list[float] = []
        sessions_evicted = 0
        shard_records = self.registry.counter(
            metric_names.SHARD_RECORDS, "Records processed per stream shard."
        )
        for shard, export in enumerate(exports):
            shard_stats: EngineStats = export["stats"]
            shard_records.inc(shard_stats.records, shard=str(shard))
            sessions_evicted += export.get("sessions_evicted", 0)
            stats.records += shard_stats.records
            stats.sessions_opened += shard_stats.sessions_opened
            stats.sessions_closed += shard_stats.sessions_closed
            stats.ensemble_alerts += shard_stats.ensemble_alerts
            # Concurrent shards overlap, so wall-clock throughput is bounded
            # by the busiest shard; in-process shards run back to back and add up.
            if concurrent:
                stats.busy_seconds = max(stats.busy_seconds, shard_stats.busy_seconds)
            else:
                stats.busy_seconds += shard_stats.busy_seconds
            for name, count in shard_stats.online_alerts.items():
                stats.online_alerts[name] = stats.online_alerts.get(name, 0) + count
            latencies.extend(export["latencies"])

        adjudication = None
        if reference.adjudicator is not None:
            adjudication = reference.adjudicator.merge_states(
                [export["adjudicated"] for export in exports], stats.records
            )
        result = StreamResult(
            final_alerts=final_alerts,
            stats=stats,
            adjudication=adjudication,
            latencies=latencies,
        )
        if self.registry.enabled:
            reference.export_metrics(
                final_alerts=final_alerts,
                stats=stats,
                registry=self.registry,
                sessions_evicted=sessions_evicted,
            )
        return result
