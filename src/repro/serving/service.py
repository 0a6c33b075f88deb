"""`IndexService`: the cache-fronted, write-buffered serving facade.

Read path (per batch, all vectorised):

1. **Write buffers** — every shard's unmerged writes live in a
   memtable consulted first; a buffered hit answers without touching
   the shard (levels 0, one sorted-probe charge), and any query in a
   shard with a non-empty buffer pays the failed memtable probe.
2. **LRU block cache** — the key space is diced into fixed-span
   blocks (``key >> block_bits``); a cached block answers membership
   *and* misses for its span at levels 0 / 1 search step.  Uncached
   blocks touched by the batch are filled read-through with one
   ``range_query`` per block against the owning shard.
3. **Scatter/gather** — everything still pending goes down the
   :class:`~repro.serving.router.ShardRouter`.

Write path: ``insert_many`` lands in the per-shard buffers (last
write wins), invalidates the affected cache blocks, and when a
shard's staleness ``buffered / stored`` crosses the threshold the
buffer is merged into the shard and the shard is re-smoothed with its
own α (CSV families) — synchronously by default, or on a background
thread with ``background_merge=True``.

With the cache off and no writes buffered the service is
cost-transparent: a K=1 service is bit-identical to the bare index,
and any-K gathers are bit-identical to per-key routing (the
acceptance parity tests in ``tests/serving/``).
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, wait as futures_wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.cost_model import CostConstants
from ..core.csv_algorithm import CsvConfig, apply_csv
from ..core.exceptions import IndexStateError
from ..indexes import INDEX_FAMILIES, adapter_for
from ..indexes.base import (
    BatchQueryStats,
    LearnedIndex,
    _as_batch_kv,
    _as_query_array,
)
from ..obs.health import HealthReport, IMBALANCE_WARN, ShardHealth, shard_status
from ..obs.metrics import Histogram, MetricsRegistry, get_registry, observe_grouped
from ..obs.tracing import trace
from .executor import ExecutorSpec
from .partitioner import (
    SMOOTHABLE_FAMILIES,
    ShardPlan,
    build_shard_indexes,
    plan_shards,
    predicted_shard_cost,
)
from ..store import CompactionStrategy, DurableStore, make_strategy
from .router import ShardRouter, dedupe_last_wins

__all__ = ["IndexService", "LatencyReport", "ServiceStats", "ShardLatency"]

#: Families whose indexes accept ``insert`` (merge by insertion);
#: static families are merged by rebuild instead.
UPDATABLE_FAMILIES = ("sorted_array", "btree", "alex", "lipp", "sali")


def _memtable_steps(n: int) -> int:
    """Probe charge for one sorted-memtable search over *n* entries."""
    return max(1, int(math.ceil(math.log2(n + 1))))


#: Default bound on how long :meth:`IndexService.close` waits for
#: in-flight background merges before abandoning them.
DEFAULT_CLOSE_TIMEOUT = 30.0


class _MergeWorker:
    """Single *daemon* merge thread with Future-based handoff.

    A stdlib ``ThreadPoolExecutor`` would do, except its threads are
    non-daemon and joined by an atexit hook — one hung merge would
    wedge the ``serve`` CLI (and any embedding process) on interpreter
    exit.  This worker keeps the Future interface but runs as a daemon
    thread, so :meth:`shutdown` can give up after a timeout and the
    process still exits.
    """

    def __init__(self) -> None:
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._run, name="merge", daemon=True
        )
        self._thread.start()

    def submit(self, fn: Callable, *args) -> Future:
        future: Future = Future()
        self._queue.put((future, fn, args))
        return future

    def qsize(self) -> int:
        """Merges accepted but not yet picked up by the worker."""
        return self._queue.qsize()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            future, fn, args = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # propagate through the Future
                future.set_exception(exc)

    def shutdown(self, timeout: float | None = None) -> bool:
        """Stop after the queued work; True if the thread exited."""
        self._queue.put(None)
        self._thread.join(timeout)
        return not self._thread.is_alive()


@dataclass
class ServiceStats:
    """Mutable operation counters of one service instance."""

    n_lookups: int = 0
    n_inserts: int = 0
    buffer_hits: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_fills: int = 0
    merges: int = 0
    merged_keys: int = 0
    resmoothed_shards: int = 0
    flushes: int = 0
    flushed_keys: int = 0
    compactions: int = 0

    @property
    def cache_hit_rate(self) -> float:
        probed = self.cache_hits + self.cache_misses
        return self.cache_hits / probed if probed else 0.0


@dataclass(frozen=True)
class ShardLatency:
    """Simulated-ns latency summary of one shard."""

    shard: int
    n_queries: int
    avg_ns: float
    p50_ns: float
    p90_ns: float
    p99_ns: float


@dataclass(frozen=True)
class LatencyReport:
    """Per-shard and aggregate latency percentiles (simulated ns)."""

    shards: tuple[ShardLatency, ...]
    total: ShardLatency | None = None

    def to_table(self) -> str:
        """Render the report as an ASCII table (one row per shard)."""
        from ..evaluation.reporting import ascii_table

        rows = [
            [
                "all" if row.shard < 0 else row.shard,
                row.n_queries,
                f"{row.avg_ns:.0f}",
                f"{row.p50_ns:.0f}",
                f"{row.p90_ns:.0f}",
                f"{row.p99_ns:.0f}",
            ]
            for row in (*self.shards, *((self.total,) if self.total else ()))
        ]
        return ascii_table(
            ["shard", "queries", "avg ns", "p50", "p90", "p99"], rows
        )


def _latency_row(shard: int, hist: Histogram) -> ShardLatency:
    return ShardLatency(
        shard=shard,
        n_queries=hist.count,
        avg_ns=hist.mean,
        p50_ns=hist.percentile(50),
        p90_ns=hist.percentile(90),
        p99_ns=hist.percentile(99),
    )


@dataclass
class _WriteBuffer:
    """One shard's memtable: insertion dict + sorted-array view.

    A lock serialises mutation against the background-merge thread;
    merges work from a :meth:`snapshot` and afterwards
    :meth:`drop_merged` only the entries the snapshot covered, so a
    write landing mid-merge survives in the buffer instead of being
    wiped by a blanket clear.
    """

    entries: dict[int, int] = field(default_factory=dict)
    _sorted: tuple[np.ndarray, np.ndarray] | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def put_run(self, keys: np.ndarray, values: np.ndarray) -> None:
        with self._lock:
            self.entries.update(zip(keys.tolist(), values.tolist()))
            self._sorted = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        with self._lock:
            if self._sorted is None:
                keys = np.fromiter(
                    self.entries.keys(), dtype=np.int64, count=len(self.entries)
                )
                order = np.argsort(keys)
                vals = np.fromiter(
                    self.entries.values(), dtype=np.int64, count=len(self.entries)
                )
                self._sorted = (keys[order], vals[order])
            return self._sorted

    def snapshot(self) -> dict[int, int]:
        with self._lock:
            return dict(self.entries)

    def drop_merged(self, merged: dict[int, int]) -> None:
        with self._lock:
            for key, value in merged.items():
                if self.entries.get(key) == value:
                    del self.entries[key]
            self._sorted = None

    def __len__(self) -> int:
        return len(self.entries)


class IndexService:
    """Sharded, cache-fronted serving facade over one index family."""

    def __init__(
        self,
        router: ShardRouter,
        family: str,
        plan: ShardPlan,
        constants: CostConstants | None = None,
        cache_blocks: int = 0,
        block_bits: int = 14,
        staleness_threshold: float = 0.1,
        background_merge: bool = False,
        metrics: MetricsRegistry | None = None,
        store: DurableStore | None = None,
        flush_threshold: int = 0,
        compaction: CompactionStrategy | str | None = None,
    ):
        self.router = router
        self.family = family
        self.plan = plan
        self.constants = constants or CostConstants()
        self.block_bits = int(block_bits)
        self.cache_blocks = int(cache_blocks)
        self.staleness_threshold = float(staleness_threshold)
        self.stats = ServiceStats()
        self._buffers = [_WriteBuffer() for _ in range(router.n_shards)]
        #: Observability.  The per-shard latency histograms are
        #: *always on* — they are what `latency_report()` and
        #: `health_report()` read, replacing the decimated sample
        #: list, at bounded memory and with mergeable percentiles.
        #: Everything else (mirrored counters, gauges, spans) is
        #: guarded on ``self.metrics.enabled``.
        self.metrics = metrics if metrics is not None else get_registry()
        self._lat_hists = [Histogram() for _ in range(router.n_shards)]
        for shard_no, hist in enumerate(self._lat_hists):
            self.metrics.register_histogram("service_lookup_ns", hist, shard=shard_no)
        reg = self.metrics
        self._c_lookups = reg.counter("service_lookups_total")
        self._c_inserts = reg.counter("service_inserts_total")
        self._c_buffer_hits = reg.counter("service_buffer_hits_total")
        self._c_cache_hits = reg.counter("service_cache_hits_total")
        self._c_cache_misses = reg.counter("service_cache_misses_total")
        self._c_cache_fills = reg.counter("service_cache_fills_total")
        self._c_merges = reg.counter("service_merges_total")
        self._c_merged_keys = reg.counter("service_merged_keys_total")
        self._c_resmoothed = reg.counter("service_resmoothed_shards_total")
        self._h_batch = reg.histogram("service_batch_keys")
        self._h_merge_s = reg.histogram("service_merge_seconds")
        self._g_queue = reg.gauge("merge_queue_depth")
        self._g_staleness = [
            reg.gauge("shard_staleness", shard=i) for i in range(router.n_shards)
        ]
        self._g_buffered = [
            reg.gauge("shard_buffered_keys", shard=i) for i in range(router.n_shards)
        ]
        #: Compile-time expected per-key cost (simulated ns) of every
        #: shard — the drift baseline.  Seeded from the plan's Eq. 22
        #: predictions; refreshed whenever a merge rebuilds a shard
        #: from its full key set.
        base = self.constants.base_ns
        costs = plan.predicted_costs
        sizes = [k.size for k in plan.shard_keys]
        self._expected_ns = [
            base + costs[i] / max(sizes[i], 1)
            if i < len(costs) and i < len(sizes) and sizes[i] > 0
            else 0.0
            for i in range(router.n_shards)
        ]
        #: (shard, block_id) -> (sorted keys, values) of the block span.
        #: The lock serialises LRU mutation against the merge thread's
        #: invalidations.
        self._cache: OrderedDict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._cache_lock = threading.Lock()
        #: Bumped (under the lock) whenever a merge invalidates a
        #: shard; read-through fills started before the bump are
        #: discarded instead of caching a pre-merge snapshot.
        self._shard_epochs = [0] * router.n_shards
        self._merge_pool = _MergeWorker() if background_merge else None
        self._merge_futures: list[Future] = []
        self._closed = False
        self._clean_close = True
        #: Durability (see ``repro.store``).  ``_dirty`` shadows the
        #: write buffers with the entries not yet frozen into a run on
        #: disk: flushes drain it, merges flush it first (a merge
        #: folds the buffer into a rebuilt in-memory structure, which
        #: is exactly the state a crash would lose).
        self._store: DurableStore | None = None
        self._flush_threshold = 0
        self._compaction: CompactionStrategy | None = None
        self._dirty: list[dict[int, int]] = [{} for _ in range(router.n_shards)]
        self._dirty_lock = threading.Lock()
        if store is not None:
            self.attach_store(
                store, flush_threshold=flush_threshold, compaction=compaction
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        keys: np.ndarray | list,
        family: str = "lipp",
        n_shards: int = 4,
        values: np.ndarray | list | None = None,
        mode: str = "equi_depth",
        alpha: float | Sequence[float] | str | None = None,
        executor: ExecutorSpec | str | None = None,
        max_workers: int | None = None,
        constants: CostConstants | None = None,
        cache_blocks: int = 0,
        block_bits: int = 14,
        staleness_threshold: float = 0.1,
        background_merge: bool = False,
        metrics: MetricsRegistry | None = None,
        store: DurableStore | None = None,
        flush_threshold: int = 0,
        compaction: CompactionStrategy | str | None = None,
    ) -> "IndexService":
        """Partition → smooth → build → route, in one call.

        *executor* picks the shard execution backend (an
        :class:`~repro.serving.executor.ExecutorSpec` or one of
        ``"serial"`` / ``"thread"`` / ``"process"``); the old
        ``max_workers=`` thread knob still works behind a deprecation
        warning.
        """
        consts = constants or CostConstants()
        plan = plan_shards(
            keys, n_shards, values=values, mode=mode, alpha=alpha, constants=consts
        )
        shards, __ = build_shard_indexes(plan, family, consts)
        router = ShardRouter(
            shards,
            plan.boundaries,
            max_workers=max_workers,
            executor=executor,
            build_factory=INDEX_FAMILIES[family].build,
        )
        return cls(
            router,
            family,
            plan,
            constants=consts,
            cache_blocks=cache_blocks,
            block_bits=block_bits,
            staleness_threshold=staleness_threshold,
            background_merge=background_merge,
            metrics=metrics,
            store=store,
            flush_threshold=flush_threshold,
            compaction=compaction,
        )

    @classmethod
    def open_snapshot(
        cls,
        store: DurableStore | str,
        constants: CostConstants | None = None,
        executor: ExecutorSpec | str | None = None,
        max_workers: int | None = None,
        cache_blocks: int = 0,
        block_bits: int = 14,
        staleness_threshold: float = 0.1,
        background_merge: bool = False,
        metrics: MetricsRegistry | None = None,
        flush_threshold: int = 0,
        compaction: CompactionStrategy | str | None = None,
    ) -> "IndexService":
        """Recover a service from a durable data directory.

        The inverse of :meth:`snapshot`: the manifest supplies the
        family, shard boundaries, per-shard smoothing α and
        partitioning mode; every shard rebuilds from its base
        snapshot through the family's ``build`` and replays
        outstanding runs through ``bulk_insert_many`` — the same
        vectorised ingest path live merges use — then CSV-smoothable
        shards are re-smoothed with their recorded α.  The store
        stays attached, so subsequent writes keep flushing into the
        same directory.
        """
        if not isinstance(store, DurableStore):
            store = DurableStore(store, metrics=metrics)
        manifest = store.manifest
        if manifest is None:
            raise IndexStateError(
                f"no snapshot to open at {store.data_dir} "
                "(MANIFEST.json missing; build + snapshot() first)"
            )
        consts = constants or CostConstants()
        family_cls = INDEX_FAMILIES[manifest.family]
        bounds = np.iinfo(np.int64)
        shards: list[LearnedIndex | None] = []
        shard_keys: list[np.ndarray] = []
        shard_values: list[np.ndarray] = []
        for shard_no in range(manifest.n_shards):
            shard = store.build_shard(shard_no, family_cls)
            alpha = (
                manifest.alphas[shard_no]
                if shard_no < len(manifest.alphas)
                else None
            )
            if (
                shard is not None
                and alpha is not None
                and alpha > 0.0
                and manifest.family in SMOOTHABLE_FAMILIES
            ):
                apply_csv(adapter_for(shard, consts), CsvConfig(alpha=alpha))
            shards.append(shard)
            pairs = (
                []
                if shard is None
                else shard.range_query(int(bounds.min), int(bounds.max))
            )
            shard_keys.append(
                np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
            )
            shard_values.append(
                np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
            )
        plan = ShardPlan(
            boundaries=np.asarray(manifest.boundaries, dtype=np.int64),
            shard_keys=tuple(shard_keys),
            shard_values=tuple(shard_values),
            alphas=manifest.alphas,
            mode=manifest.mode,
            predicted_costs=tuple(
                predicted_shard_cost(k, consts) for k in shard_keys
            ),
        )
        router = ShardRouter(
            shards,
            plan.boundaries,
            max_workers=max_workers,
            executor=executor,
            build_factory=family_cls.build,
        )
        return cls(
            router,
            manifest.family,
            plan,
            constants=consts,
            cache_blocks=cache_blocks,
            block_bits=block_bits,
            staleness_threshold=staleness_threshold,
            background_merge=background_merge,
            metrics=metrics,
            store=store,
            flush_threshold=flush_threshold,
            compaction=compaction,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    @property
    def n_keys(self) -> int:
        """Stored keys: merged shard contents plus net-new buffered keys."""
        total = self.router.n_keys
        for shard_no, buffer in enumerate(self._buffers):
            if not len(buffer):
                continue
            shard = self.router.shards[shard_no]
            if shard is None:
                total += len(buffer)
                continue
            bkeys, __ = buffer.arrays()
            batch = shard.lookup_many(bkeys)
            total += int(np.count_nonzero(~batch.found))
        return total

    def size_bytes(self) -> int:
        """Aggregate modelled storage footprint of the shard indexes."""
        return self.router.size_bytes()

    def buffered_counts(self) -> tuple[int, ...]:
        """Unmerged write-buffer entries per shard."""
        return tuple(len(b) for b in self._buffers)

    def executor_report(self):
        """Per-replica worker health (empty unless process-executed)."""
        return self.router.executor_report()

    # ------------------------------------------------------------------
    # Runtime-store hooks (the HTTP front door's persistence points)
    # ------------------------------------------------------------------
    def export_cache_blocks(self) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
        """Snapshot the LRU block cache as ``(shard, block, keys, values)``
        tuples, oldest first — what the runtime store persists at
        shutdown so a restarted server does not begin cache-cold."""
        with self._cache_lock:
            return [
                (shard, block, ckeys.copy(), cvals.copy())
                for (shard, block), (ckeys, cvals) in self._cache.items()
            ]

    def import_cache_blocks(
        self, blocks: Sequence[tuple[int, int, np.ndarray, np.ndarray]]
    ) -> int:
        """Refill the block cache from an exported snapshot.

        Blocks for unknown shards are skipped, LRU order follows the
        given order (last block is most recent), and the cache budget
        still applies.  Returns how many blocks were imported; a
        cache-less service (``cache_blocks == 0``) imports none.
        """
        if self.cache_blocks <= 0:
            return 0
        imported = 0
        with self._cache_lock:
            for shard_no, block_id, ckeys, cvals in blocks:
                if not 0 <= int(shard_no) < self.n_shards:
                    continue
                token = (int(shard_no), int(block_id))
                self._cache[token] = (
                    np.asarray(ckeys, dtype=np.int64),
                    np.asarray(cvals, dtype=np.int64),
                )
                self._cache.move_to_end(token)
                imported += 1
                while len(self._cache) > self.cache_blocks:
                    self._cache.popitem(last=False)
        return imported

    def restore_stats(self, counters: dict) -> None:
        """Overwrite :class:`ServiceStats` fields from persisted totals.

        The runtime store calls this on reopen *after* op-log replay,
        so cumulative operation counters keep counting across
        restarts instead of resetting (unknown keys are ignored)."""
        for name, value in counters.items():
            if hasattr(self.stats, name):
                setattr(self.stats, name, int(value))

    def worker_restarts(self) -> int:
        """Shard workers respawned after a crash or timeout."""
        return self.router.worker_restarts()

    # ------------------------------------------------------------------
    # Durability (repro.store)
    # ------------------------------------------------------------------
    def attach_store(
        self,
        store: DurableStore,
        flush_threshold: int = 0,
        compaction: CompactionStrategy | str | None = None,
    ) -> None:
        """Make *store* this service's durable backing.

        An uninitialised store immediately receives a full
        :meth:`snapshot` (generation 1 bases); an initialised one is
        validated against the live topology and adopted as-is — the
        :meth:`open_snapshot` path, where memory was just rebuilt
        *from* it.  ``flush_threshold > 0`` freezes a shard's
        unflushed writes into a run once that many accumulate (merges
        flush regardless); *compaction* (a strategy or a CLI spec
        like ``"tiered"`` / ``"sortmerge:4"``) runs after every
        flush-on-merge.
        """
        if isinstance(compaction, str):
            compaction = make_strategy(compaction)
        manifest = store.manifest
        if manifest is not None:
            if manifest.family != self.family or manifest.n_shards != self.n_shards:
                raise IndexStateError(
                    f"store at {store.data_dir} holds {manifest.family}/"
                    f"{manifest.n_shards} shards; this service is "
                    f"{self.family}/{self.n_shards}"
                )
        self._store = store
        self._flush_threshold = int(flush_threshold)
        self._compaction = compaction
        # Writes buffered before the attach predate any run on disk.
        with self._dirty_lock:
            for shard_no, buffer in enumerate(self._buffers):
                if len(buffer):
                    self._dirty[shard_no].update(buffer.snapshot())
        if manifest is None:
            self.snapshot()

    def _require_store(self) -> DurableStore:
        if self._store is None:
            raise IndexStateError(
                "no durable store attached (pass store= or call attach_store())"
            )
        return self._store

    @property
    def store(self) -> DurableStore | None:
        """The attached durable store (None when serving memory-only)."""
        return self._store

    def durable_generation(self) -> int:
        """The store's committed generation (0 without a store)."""
        return 0 if self._store is None else self._store.generation

    def _shard_arrays(self, shard_no: int) -> tuple[np.ndarray, np.ndarray]:
        """One shard's full current contents: stored ∪ buffered, last wins."""
        shard = self.router.shards[shard_no]
        bounds = np.iinfo(np.int64)
        pairs = (
            []
            if shard is None
            else shard.range_query(int(bounds.min), int(bounds.max))
        )
        keys = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
        vals = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
        buffer = self._buffers[shard_no]
        if len(buffer):
            bkeys, bvals = buffer.arrays()
            keys, vals = dedupe_last_wins(
                np.concatenate([keys, bkeys]), np.concatenate([vals, bvals])
            )
        return keys, vals

    def snapshot(self) -> int:
        """Commit the full service state durably; returns the generation.

        First snapshot (uninitialised store): every shard's current
        contents — stored *and* buffered — become generation-1 base
        files.  Later snapshots: unflushed writes freeze into runs,
        then a full sort-merge compaction folds base + runs into
        fresh bases, so the directory reopens with zero replay.
        """
        store = self._require_store()
        if store.manifest is None:
            arrays = [self._shard_arrays(i) for i in range(self.n_shards)]
            store.initialize(
                self.family,
                [int(b) for b in self.plan.boundaries],
                self.plan.alphas,
                self.plan.mode,
                arrays,
            )
            # The bases hold everything, including what was buffered.
            with self._dirty_lock:
                for dirty in self._dirty:
                    dirty.clear()
        else:
            self.flush_durable()
            self.stats.compactions += store.compact(make_strategy("sortmerge"))
        return store.generation

    def flush_durable(self) -> int:
        """Freeze every shard's unflushed writes into runs; returns gen.

        One call commits one manifest generation covering all shards
        with anything unflushed (a no-op returns the current
        generation).  Flushed entries stay in the write buffers — the
        read overlay is untouched; only their *durability* changes.
        """
        store = self._require_store()
        with self._dirty_lock:
            snap = {
                shard_no: dict(dirty)
                for shard_no, dirty in enumerate(self._dirty)
                if dirty
            }
        if not snap:
            return store.generation
        batches = {}
        total = 0
        for shard_no, entries in snap.items():
            keys = np.fromiter(entries.keys(), dtype=np.int64, count=len(entries))
            vals = np.fromiter(entries.values(), dtype=np.int64, count=len(entries))
            batches[shard_no] = (keys, vals)
            total += len(entries)
        generation = store.append_runs(batches)
        self.stats.flushes += 1
        self.stats.flushed_keys += total
        # Drop exactly what was flushed: a write landing mid-flush
        # stays dirty for the next one (same shape as drop_merged).
        with self._dirty_lock:
            for shard_no, entries in snap.items():
                dirty = self._dirty[shard_no]
                for key, value in entries.items():
                    if dirty.get(key) == value:
                        del dirty[key]
        return generation

    def _flush_shard_durable(self, shard_no: int) -> None:
        """Flush one shard's unflushed writes (threshold / merge path)."""
        store = self._store
        if store is None:
            return
        with self._dirty_lock:
            entries = dict(self._dirty[shard_no])
        if not entries:
            return
        keys = np.fromiter(entries.keys(), dtype=np.int64, count=len(entries))
        vals = np.fromiter(entries.values(), dtype=np.int64, count=len(entries))
        store.append_run(shard_no, keys, vals)
        self.stats.flushes += 1
        self.stats.flushed_keys += len(entries)
        with self._dirty_lock:
            dirty = self._dirty[shard_no]
            for key, value in entries.items():
                if dirty.get(key) == value:
                    del dirty[key]

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def lookup_many(self, keys: np.ndarray | list) -> BatchQueryStats:
        """Batched lookups through buffer → cache → shards."""
        q = _as_query_array(keys)
        m = int(q.size)
        self.stats.n_lookups += m
        if self.metrics.enabled:
            self._c_lookups.inc(m)
            self._h_batch.observe(m)
        shard_ids = self.router.shard_of(q)
        found = np.zeros(m, dtype=bool)
        values = np.zeros(m, dtype=np.int64)
        levels = np.zeros(m, dtype=np.int64)
        steps = np.zeros(m, dtype=np.int64)
        extra_steps = np.zeros(m, dtype=np.int64)
        pending = np.ones(m, dtype=bool)

        # 1. Write-buffer overlay.
        for shard_no, buffer in enumerate(self._buffers):
            if not len(buffer):
                continue
            mask = pending & (shard_ids == shard_no)
            if not np.any(mask):
                continue
            bkeys, bvals = buffer.arrays()
            probe = _memtable_steps(len(buffer))
            sub = q[mask]
            pos = np.searchsorted(bkeys, sub)
            hit = np.zeros(sub.size, dtype=bool)
            in_range = pos < bkeys.size
            hit[in_range] = bkeys[pos[in_range]] == sub[in_range]
            idx = np.nonzero(mask)[0]
            hit_idx = idx[hit]
            found[hit_idx] = True
            values[hit_idx] = bvals[pos[hit]]
            steps[hit_idx] = probe
            pending[hit_idx] = False
            self.stats.buffer_hits += int(hit_idx.size)
            if self.metrics.enabled:
                self._c_buffer_hits.inc(int(hit_idx.size))
            # Buffer misses pay the failed memtable probe on top of
            # whatever the cache/shard path charges.
            extra_steps[idx[~hit]] += probe

        # 2. LRU block cache.
        if self.cache_blocks > 0 and np.any(pending):
            self._cache_pass(q, shard_ids, pending, found, values, levels, steps)

        # 3. Scatter/gather for the remainder, routed by the shard ids
        # computed above.
        if pending.any():
            routed = self.router.lookup_many(
                q[pending], shard_ids=shard_ids[pending]
            ).gathered
            idx = np.nonzero(pending)[0]
            found[idx] = routed.found
            values[idx] = routed.values
            levels[idx] = routed.levels
            steps[idx] = routed.search_steps
            if self.cache_blocks > 0:
                self._fill_blocks(q[pending], shard_ids[pending])

        steps += extra_steps
        batch = BatchQueryStats(
            keys=q, found=found, values=values, levels=levels, search_steps=steps
        )
        self._record_latency(shard_ids, batch)
        return batch

    def lookup(self, key: int) -> int | None:
        """Single-key convenience wrapper over :meth:`lookup_many`."""
        batch = self.lookup_many(np.asarray([int(key)], dtype=np.int64))
        return int(batch.values[0]) if batch.found[0] else None

    def _cache_pass(
        self,
        q: np.ndarray,
        shard_ids: np.ndarray,
        pending: np.ndarray,
        found: np.ndarray,
        values: np.ndarray,
        levels: np.ndarray,
        steps: np.ndarray,
    ) -> None:
        """Serve every pending query whose block is cached (hits *and*
        definite misses — a cached block covers its whole span).

        Grouped by (shard, block) token: one cache probe and one
        vectorised ``searchsorted`` per distinct block, not per query.
        """
        blocks = q >> self.block_bits
        idx = np.nonzero(pending)[0]
        # Group the pending queries by block token (order within a
        # group is irrelevant: results go back positionally).  The
        # composite is collision-free: shard ids live in [0, K).
        tokens = blocks[idx] * np.int64(self.n_shards) + shard_ids[idx]
        grouping = np.argsort(tokens, kind="stable")
        starts = np.concatenate(
            [[0], np.nonzero(np.diff(tokens[grouping]))[0] + 1, [idx.size]]
        )
        for lo, hi in zip(starts[:-1], starts[1:]):
            group = idx[grouping[lo:hi]]
            first = int(group[0])
            token = (int(shard_ids[first]), int(blocks[first]))
            with self._cache_lock:
                entry = self._cache.get(token)
                if entry is not None:
                    self._cache.move_to_end(token)
            if entry is None:
                self.stats.cache_misses += int(group.size)
                if self.metrics.enabled:
                    self._c_cache_misses.inc(int(group.size))
                continue
            ckeys, cvals = entry
            sub = q[group]
            pos = np.searchsorted(ckeys, sub)
            hit = np.zeros(sub.size, dtype=bool)
            in_range = pos < ckeys.size
            hit[in_range] = ckeys[pos[in_range]] == sub[in_range]
            found[group] = hit
            values[group[hit]] = cvals[pos[hit]]
            levels[group] = 0
            steps[group] = 1
            pending[group] = False
            self.stats.cache_hits += int(group.size)
            if self.metrics.enabled:
                self._c_cache_hits.inc(int(group.size))

    def _fill_blocks(self, q: np.ndarray, shard_ids: np.ndarray) -> None:
        """Read-through fill of the uncached blocks a batch touched.

        At most ``cache_blocks`` fills per batch, hottest blocks (most
        queries in this batch) first — filling every distinct block of
        a wide batch would evict each fill before it could ever be hit
        and pay one ``range_query`` per query for nothing.
        """
        blocks = q >> self.block_bits
        span = np.int64(1) << self.block_bits
        touch_counts: dict[tuple[int, int], int] = {}
        for s, b in zip(shard_ids.tolist(), blocks.tolist()):
            token = (int(s), int(b))
            touch_counts[token] = touch_counts.get(token, 0) + 1
        hottest = sorted(touch_counts, key=lambda t: (-touch_counts[t], t))
        for token in hottest[: self.cache_blocks]:
            shard_no, block_id = token
            with self._cache_lock:
                if token in self._cache:
                    continue
                epoch = self._shard_epochs[shard_no]
            shard = self.router.shards[shard_no]
            low = int(block_id * span)
            high = int(low + span - 1)
            pairs = [] if shard is None else shard.range_query(low, high)
            ckeys = np.asarray([p[0] for p in pairs], dtype=np.int64)
            cvals = np.asarray([p[1] for p in pairs], dtype=np.int64)
            with self._cache_lock:
                if self._shard_epochs[shard_no] != epoch:
                    continue  # a merge landed mid-scan; block is stale
                self._cache[token] = (ckeys, cvals)
                self._cache.move_to_end(token)
                while len(self._cache) > self.cache_blocks:
                    self._cache.popitem(last=False)
            self.stats.cache_fills += 1
            if self.metrics.enabled:
                self._c_cache_fills.inc()

    def _invalidate_blocks(self, keys: np.ndarray, shard_ids: np.ndarray) -> None:
        blocks = keys >> self.block_bits
        tokens = {(int(s), int(b)) for s, b in zip(shard_ids.tolist(), blocks.tolist())}
        with self._cache_lock:
            for token in tokens:
                self._cache.pop(token, None)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def insert_many(
        self,
        keys: np.ndarray | list,
        values: np.ndarray | list | None = None,
    ) -> None:
        """Absorb a write batch into the per-shard buffers.

        Buffered writes are immediately visible to reads (the overlay
        in :meth:`lookup_many`); shards whose staleness crosses the
        threshold are merged + re-smoothed.
        """
        arr, vals = _as_batch_kv(keys, values)
        if arr.size == 0:
            return
        self.stats.n_inserts += int(arr.size)
        instrumented = self.metrics.enabled
        if instrumented:
            self._c_inserts.inc(int(arr.size))
        shard_ids, order, offsets = self.router.group_by_shard(arr)
        if self.cache_blocks > 0:
            self._invalidate_blocks(arr, shard_ids)
        for shard_no in range(self.n_shards):
            lo, hi = int(offsets[shard_no]), int(offsets[shard_no + 1])
            if lo == hi:
                continue
            run = order[lo:hi]
            self._buffers[shard_no].put_run(arr[run], vals[run])
            if self._store is not None:
                with self._dirty_lock:
                    self._dirty[shard_no].update(
                        zip(arr[run].tolist(), vals[run].tolist())
                    )
                    dirty_n = len(self._dirty[shard_no])
                if 0 < self._flush_threshold <= dirty_n:
                    self._flush_shard_durable(shard_no)
            staleness = self._staleness(shard_no)
            if instrumented:
                self._g_staleness[shard_no].set(staleness)
                self._g_buffered[shard_no].set(len(self._buffers[shard_no]))
            if staleness > self.staleness_threshold:
                self._schedule_merge(shard_no)

    def _staleness(self, shard_no: int) -> float:
        buffered = len(self._buffers[shard_no])
        shard = self.router.shards[shard_no]
        stored = shard.n_keys if shard is not None else 0
        return buffered / max(stored, 1)

    def _schedule_merge(self, shard_no: int) -> None:
        if self._merge_pool is None:
            self._merge_shard(shard_no)
        else:
            self._merge_futures.append(
                self._merge_pool.submit(self._merge_shard, shard_no)
            )
            if self.metrics.enabled:
                self._g_queue.set(self.merge_queue_depth())

    def merge_queue_depth(self) -> int:
        """Scheduled background merges not yet completed."""
        return sum(1 for f in self._merge_futures if not f.done())

    def _merge_shard(self, shard_no: int) -> None:
        """Merge one shard's buffer into its index and re-smooth.

        Synchronous merges on updatable families absorb the buffer
        in-place through ``insert_many``; static families (pgm, rmi)
        — and *every* background merge — rebuild a fresh index from
        the merged key set and atomically swap it in, so concurrent
        readers only ever traverse a fully built structure (they see
        the old shard plus the still-buffered writes until the swap).
        CSV families with a per-shard α are re-smoothed afterwards —
        the background counterpart of the paper's one-shot
        preprocessing.
        """
        buffer = self._buffers[shard_no]
        merged_entries = buffer.snapshot()
        if not merged_entries:
            return
        with trace(
            "merge_shard", registry=self.metrics,
            shard=shard_no, keys=len(merged_entries),
        ):
            self._run_merge(shard_no, buffer, merged_entries)

    def _run_merge(
        self, shard_no: int, buffer: _WriteBuffer, merged_entries: dict[int, int]
    ) -> None:
        instrumented = self.metrics.enabled
        merge_start = time.perf_counter() if instrumented else 0.0
        # Flush-on-merge: the buffer is about to fold into a rebuilt
        # in-memory structure — exactly the state a crash would lose —
        # so its unflushed entries become a durable run first.
        self._flush_shard_durable(shard_no)
        bkeys = np.asarray(sorted(merged_entries), dtype=np.int64)
        bvals = np.asarray([merged_entries[k] for k in bkeys.tolist()], dtype=np.int64)
        shard = self.router.shards[shard_no]
        cls = INDEX_FAMILIES[self.family]
        in_place = (
            shard is not None
            and self.family in UPDATABLE_FAMILIES
            and self._merge_pool is None
        )
        #: Full key set of a rebuilt shard — refreshes the drift
        #: baseline (compile-time expected cost).  In-place merges keep
        #: the previous baseline: the structure is incrementally
        #: updated, not recompiled.
        expected_keys: np.ndarray | None = None
        if shard is None:
            merged = cls.build(bkeys, bvals)
            expected_keys = bkeys
        elif in_place:
            # Drain the buffer through the vectorised bulk-ingest path:
            # the tree backends sorted-merge-rebuild their touched
            # nodes/subtrees in one sweep instead of descending once
            # per buffered key — this is what lifts the LIPP/SALI
            # merge ceiling the ROADMAP flags.
            shard.bulk_insert_many(bkeys, bvals)
            merged = shard
        else:
            # One ordered scan recovers the stored pairs — cheaper
            # than probing the index once per stored key.
            bounds = np.iinfo(np.int64)
            pairs = shard.range_query(int(bounds.min), int(bounds.max))
            old_keys = np.fromiter(
                (p[0] for p in pairs), dtype=np.int64, count=len(pairs)
            )
            old_vals = np.fromiter(
                (p[1] for p in pairs), dtype=np.int64, count=len(pairs)
            )
            merged_keys, merged_vals = dedupe_last_wins(
                np.concatenate([old_keys, bkeys]),
                np.concatenate([old_vals, bvals]),
            )
            merged = cls.build(merged_keys, merged_vals)
            expected_keys = merged_keys
        alpha = (
            self.plan.alphas[shard_no]
            if shard_no < len(self.plan.alphas)
            else None
        )
        resmoothed = (
            alpha is not None and alpha > 0.0 and self.family in SMOOTHABLE_FAMILIES
        )
        if resmoothed:
            apply_csv(adapter_for(merged, self.constants), CsvConfig(alpha=alpha))
            self.stats.resmoothed_shards += 1
        # Also compiles the merged shard's flat lookup view, if any.
        self.router.replace_shard(shard_no, merged)
        if self.cache_blocks > 0:
            with self._cache_lock:
                self._shard_epochs[shard_no] += 1
                for token in [t for t in self._cache if t[0] == shard_no]:
                    self._cache.pop(token, None)
        self.stats.merges += 1
        self.stats.merged_keys += len(merged_entries)
        # Drop exactly what was merged: writes that landed mid-merge
        # stay buffered for the next one.
        buffer.drop_merged(merged_entries)
        # Staleness crossed the merge threshold, so the on-disk run
        # stack just grew too — let the compactor fold it back down.
        if self._store is not None and self._compaction is not None:
            self.stats.compactions += self._store.compact(
                self._compaction, shard=shard_no
            )
        if expected_keys is not None and expected_keys.size:
            self._expected_ns[shard_no] = self.constants.base_ns + (
                predicted_shard_cost(expected_keys, self.constants)
                / float(expected_keys.size)
            )
        if instrumented:
            self._h_merge_s.observe(time.perf_counter() - merge_start)
            self._c_merges.inc()
            self._c_merged_keys.inc(len(merged_entries))
            if resmoothed:
                self._c_resmoothed.inc()
            self._g_queue.set(self.merge_queue_depth())
            self._g_staleness[shard_no].set(self._staleness(shard_no))
            self._g_buffered[shard_no].set(len(buffer))

    def flush(self) -> None:
        """Merge every non-empty buffer now (and wait for background merges)."""
        self.drain()
        for shard_no, buffer in enumerate(self._buffers):
            if len(buffer):
                self._merge_shard(shard_no)

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for scheduled background merges, optionally bounded.

        Returns True once every scheduled merge has finished.  With a
        *timeout*, unfinished merges stay scheduled (a later drain can
        still collect them) and False is returned instead of blocking
        forever.  Exceptions raised by completed merges propagate.
        """
        if not self._merge_futures:
            return True
        done, not_done = futures_wait(self._merge_futures, timeout=timeout)
        self._merge_futures = list(not_done)
        # Retrieve every completed future's outcome before raising, so
        # no failure is silently dropped; the first error propagates
        # with any others attached as context.
        errors = [exc for f in done if (exc := f.exception()) is not None]
        if errors:
            if len(errors) > 1:
                errors[0].__notes__ = getattr(errors[0], "__notes__", []) + [
                    f"(+{len(errors) - 1} further background merge failure(s))"
                ]
            raise errors[0]
        return not not_done

    # ------------------------------------------------------------------
    # Range path
    # ------------------------------------------------------------------
    def range_query(self, low: int, high: int) -> list[tuple[int, int]]:
        """Gathered range scan, overlaid with in-range buffered writes."""
        merged = dict(self.router.range_query(low, high))
        for buffer in self._buffers:
            if not len(buffer):
                continue
            bkeys, bvals = buffer.arrays()
            lo = int(np.searchsorted(bkeys, int(low), side="left"))
            hi = int(np.searchsorted(bkeys, int(high), side="right"))
            merged.update(zip(bkeys[lo:hi].tolist(), bvals[lo:hi].tolist()))
        return sorted(merged.items())

    # ------------------------------------------------------------------
    # Latency accounting
    # ------------------------------------------------------------------
    def _record_latency(self, shard_ids: np.ndarray, batch: BatchQueryStats) -> None:
        observe_grouped(self._lat_hists, shard_ids, batch.simulated_ns(self.constants))

    def latency_report(self) -> LatencyReport:
        """Per-shard p50/p90/p99/avg of the simulated lookup latencies.

        ``n_queries`` counts every query served.  The averages are
        exact; the percentiles come from the always-on fixed-layout
        log-bucket histograms (within one relative bucket width,
        ``2**(1/4)``, of the exact order statistic), and the ``total``
        row is the *merge* of the per-shard histograms — the same
        aggregation that works across processes.
        """
        rows = []
        total_hist = Histogram()
        for shard_no, hist in enumerate(self._lat_hists):
            if hist.count == 0:
                continue
            rows.append(_latency_row(shard_no, hist))
            total_hist.merge(hist)
        if not rows:
            return LatencyReport(shards=(), total=None)
        return LatencyReport(shards=tuple(rows), total=_latency_row(-1, total_hist))

    def health_report(self) -> HealthReport:
        """Service-wide health: staleness, drift, and imbalance signals.

        Per shard: key/buffer volume, staleness (the merge trigger
        ratio), observed latency moments from the always-on
        histograms, the compile-time expected per-key cost (Eq. 22,
        refreshed when a merge rebuilds the shard), and the drift of
        observed mean over that expectation.  Aggregates: merge-queue
        depth, cache/buffer hit rates, and the observed per-shard cost
        imbalance (max/mean of shard means — the runtime counterpart
        of the partitioner's predicted ``cost_imbalance``).
        """
        shards = []
        shard_means = []
        for shard_no, hist in enumerate(self._lat_hists):
            shard = self.router.shards[shard_no]
            staleness = self._staleness(shard_no)
            expected = self._expected_ns[shard_no]
            drift = hist.mean / expected - 1.0 if expected > 0 and hist.count else 0.0
            if hist.count:
                shard_means.append(hist.mean)
            shards.append(
                ShardHealth(
                    shard=shard_no,
                    n_keys=shard.n_keys if shard is not None else 0,
                    buffered=len(self._buffers[shard_no]),
                    staleness=staleness,
                    queries=hist.count,
                    avg_ns=hist.mean,
                    p50_ns=hist.percentile(50),
                    p90_ns=hist.percentile(90),
                    p99_ns=hist.percentile(99),
                    expected_ns=expected,
                    drift=drift,
                    status=shard_status(staleness, self.staleness_threshold, drift),
                )
            )
        imbalance = (
            max(shard_means) / (sum(shard_means) / len(shard_means))
            if shard_means
            else 0.0
        )
        status = "ok"
        if any(s.status != "ok" for s in shards) or imbalance > IMBALANCE_WARN:
            status = "warn"
        replicas = self.router.executor_report()
        if any(not r.alive for r in replicas):
            status = "warn"
        return HealthReport(
            shards=tuple(shards),
            merge_queue_depth=self.merge_queue_depth(),
            merges=self.stats.merges,
            cache_hit_rate=self.stats.cache_hit_rate,
            buffer_hit_rate=(
                self.stats.buffer_hits / self.stats.n_lookups
                if self.stats.n_lookups
                else 0.0
            ),
            cost_imbalance=imbalance,
            status=status,
            replicas=replicas,
            worker_restarts=self.router.worker_restarts(),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float | None = DEFAULT_CLOSE_TIMEOUT) -> bool:
        """Finish background merges, then tear down executor workers.

        Ordering is load-bearing: scheduled merges are drained and the
        merge worker joined *before* ``router.close()`` stops the
        executor — a background merge republishes its shard through
        the router, so tearing down a process pool first would race a
        dying worker set (the executor masks it by refusing IPC after
        close, but the merge's republish would then be lost).

        Idempotent: repeated calls are no-ops returning the first
        call's outcome.  The whole close — draining scheduled merges
        plus joining the worker — shares one *timeout* budget (None
        waits indefinitely): a merge that hangs past it is abandoned
        on its daemon thread — the close returns False and the process
        can still exit — instead of wedging the ``serve`` CLI.
        Returns True when everything drained cleanly; a close that
        raises (a background merge failed) reports False thereafter.
        """
        if self._closed:
            return self._clean_close
        self._closed = True
        self._clean_close = False
        deadline = None if timeout is None else time.monotonic() + timeout
        clean = False
        error: BaseException | None = None
        try:
            clean = self.drain(timeout=timeout)
        except BaseException as exc:  # keep draining order; re-raise below
            error = exc
        if self._store is not None:
            # Whatever is still buffered becomes a durable run, so a
            # clean shutdown never needs the HTTP op log to replay.
            try:
                self.flush_durable()
            except BaseException as exc:
                clean = False
                if error is None:
                    error = exc
        if self._merge_pool is not None:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            clean = self._merge_pool.shutdown(timeout=remaining) and clean
            self._merge_pool = None
        # Only now — with no merge able to start — stop the executor.
        self.router.close()
        self._clean_close = clean
        if error is not None:
            raise error
        return clean

    def __enter__(self) -> "IndexService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
