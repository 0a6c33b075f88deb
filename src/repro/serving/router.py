"""Vectorised scatter/gather routing over range-partitioned shards.

One ``np.searchsorted`` against the boundary array assigns every query
of a batch to its shard.  When every shard is a LIPP/SALI index with a
flat view, the router lays all of them out in one shared
:class:`~repro.indexes.lipp.flat.FlatLipp` forest and answers the
whole batch with a single sweep that starts each key at its shard's
root — no per-shard calls.  Each shard's compiled view is its window
into that forest, so every node's slots still have exactly one owner.
The forest compiles lazily on the first lookup and is re-laid when a
shard is replaced or drops its view: unchanged shards' ranges are
copied and only the changed shard is compiled.

Otherwise (other families, or the process executor) a stable argsort
groups the batch into per-shard contiguous runs; each run goes down
its shard's ``lookup_many`` / ``insert_many``; and the per-shard
:class:`~repro.indexes.base.BatchQueryStats` are gathered back into
the caller's positional order.  *How* the per-shard runs execute is
the :class:`~repro.serving.executor.ExecutorSpec`: inline
(``"serial"``), on a shared ``ThreadPoolExecutor`` (``"thread"``), or
on replicated shared-memory worker processes (``"process"`` — see
:mod:`~repro.serving.executor`).  The gather is *exact* on every
path: entry ``i`` of the gathered batch is bit-identical to routing
``keys[i]`` alone and looking it up in its shard.

In process mode the router keeps its in-process shard objects as the
*authoritative* copies: writes (``insert_many``, ``replace_shard``)
apply there and the shard is republished to the worker replicas;
reads fan out to the replicas; ``range_query`` and ``iter_keys`` scan
the authoritative copies directly.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ..core.exceptions import IndexStateError
from ..indexes.base import (
    BatchQueryStats,
    LearnedIndex,
    _as_batch_kv,
    _as_query_array,
    alloc_batch_outputs,
    dedupe_last_wins,
)
from ..indexes.lipp.flat import FlatLipp, StaleFlatError
from ..indexes.lipp.index import LippIndex, compile_forest
from ..obs.health import ReplicaHealth
from ..obs.metrics import get_registry
from .executor import ExecutorSpec, ProcessShardExecutor, resolve_executor

__all__ = ["RoutedBatch", "ShardRouter", "dedupe_last_wins"]


@dataclass(frozen=True)
class RoutedBatch:
    """Result of one routed lookup batch.

    Attributes:
        gathered: the batch stats in the caller's query order — what a
            monolithic ``lookup_many`` would have returned for
            found/values, with levels/steps as reported by the shard
            that served each query.
        shard_ids: shard serving each query, parallel to the batch.
        n_shards: shards of the router that served the batch.
    """

    gathered: BatchQueryStats
    shard_ids: np.ndarray
    n_shards: int

    @cached_property
    def per_shard(self) -> tuple[BatchQueryStats | None, ...]:
        """Each shard's own BatchQueryStats (None where the shard
        received no queries), in shard order, its queries in batch
        order — derived on first use from the gathered arrays."""
        g = self.gathered
        order = np.argsort(self.shard_ids, kind="stable")
        counts = np.bincount(self.shard_ids, minlength=self.n_shards).tolist()
        out: list[BatchQueryStats | None] = []
        lo = 0
        for count in counts:
            p = order[lo : lo + count]
            lo += count
            out.append(
                None
                if count == 0
                else BatchQueryStats(
                    keys=g.keys[p],
                    found=g.found[p],
                    values=g.values[p],
                    levels=g.levels[p],
                    search_steps=g.search_steps[p],
                )
            )
        return tuple(out)


@dataclass(frozen=True)
class _Forest:
    """The router's flat forest, as laid out over one set of shards.

    ``flat`` is None when some shard has no flat view (another family,
    ``use_flat=False``, an unrepresentable model): the router then
    scatters per shard until the shard set changes.
    """

    shards: tuple[LearnedIndex | None, ...]
    flat: FlatLipp | None = None
    #: Each shard's window (None for empty shards).
    windows: tuple[FlatLipp | None, ...] = ()
    #: Root node id per shard; -1 for empty shards.
    roots: np.ndarray | None = None
    #: ``(shard, tree)`` of shards whose lookups credit access (SALI).
    tracking: tuple[tuple[int, int], ...] = ()

    def current(self, shards: Sequence[LearnedIndex | None]) -> bool:
        """Whether *shards* are still the ones laid out, with their views."""
        if self.flat is None:
            return all(a is b for a, b in zip(shards, self.shards))
        for shard, was, window in zip(shards, self.shards, self.windows):
            if shard is not was or (shard is not None and shard.compiled_flat is not window):
                return False
        return True


class ShardRouter:
    """Scatter/gather router over a list of shard indexes.

    ``shards[i]`` may be None (an empty shard): lookups routed there
    miss with zero traversal cost, and inserts materialise the shard
    through *build_factory* on first write.
    """

    def __init__(
        self,
        shards: Sequence[LearnedIndex | None],
        boundaries: np.ndarray,
        max_workers: int | None = None,
        build_factory: Callable[[np.ndarray, np.ndarray], LearnedIndex] | None = None,
        executor: ExecutorSpec | str | None = None,
        threaded: bool | None = None,
    ):
        boundaries = np.asarray(boundaries, dtype=np.int64)
        if boundaries.size != len(shards) - 1:
            raise IndexStateError(
                f"{len(shards)} shards need {len(shards) - 1} boundaries, "
                f"got {boundaries.size}"
            )
        if boundaries.size > 1 and np.any(np.diff(boundaries) < 0):
            raise IndexStateError("shard boundaries must be non-decreasing")
        self._shards = list(shards)
        self._boundaries = boundaries
        self._build_factory = build_factory
        self._forest: _Forest | None = None
        self._forest_lock = threading.Lock()
        #: ``executor=`` is the API; ``max_workers=`` / ``threaded=``
        #: are the deprecated PR-2 knobs, mapped (with a one-time
        #: warning) onto a thread spec by :func:`resolve_executor`.
        self._spec = resolve_executor(
            executor, max_workers=max_workers, threaded=threaded
        )
        self._executor: ThreadPoolExecutor | None = None
        self._proc: ProcessShardExecutor | None = None
        if self._spec.kind == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=min(
                    self._spec.resolved_workers(len(shards)), max(len(shards), 1)
                ),
                thread_name_prefix="shard",
            )
        elif self._spec.kind == "process":
            self._proc = ProcessShardExecutor(self._spec, len(shards))
            try:
                for shard_no, shard in enumerate(self._shards):
                    if shard is not None:
                        self._proc.publish(shard_no, shard)
            except BaseException:
                self._proc.close()
                raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[LearnedIndex | None, ...]:
        return tuple(self._shards)

    @property
    def boundaries(self) -> np.ndarray:
        return self._boundaries.copy()

    @property
    def executor_spec(self) -> ExecutorSpec:
        """The resolved executor configuration serving this router."""
        return self._spec

    @property
    def threaded(self) -> bool:
        return self._executor is not None

    @property
    def process_based(self) -> bool:
        return self._proc is not None

    def executor_report(self) -> tuple[ReplicaHealth, ...]:
        """Per-replica health rows (empty for serial/thread executors)."""
        return self._proc.health() if self._proc is not None else ()

    def worker_restarts(self) -> int:
        """Worker processes respawned after a crash or timeout."""
        return self._proc.restarts_total() if self._proc is not None else 0

    def shm_segment_names(self) -> tuple[str, ...]:
        """Live shared-memory segment names (lifecycle tests)."""
        return self._proc.segment_names() if self._proc is not None else ()

    @property
    def n_keys(self) -> int:
        return sum(s.n_keys for s in self._shards if s is not None)

    def size_bytes(self) -> int:
        """Aggregate modelled storage footprint of every shard."""
        return sum(s.size_bytes() for s in self._shards if s is not None)

    def shard_of(self, keys: np.ndarray | list) -> np.ndarray:
        """Vectorised shard assignment: one searchsorted for the batch."""
        return np.searchsorted(self._boundaries, _as_query_array(keys), side="right")

    # ------------------------------------------------------------------
    # Scatter/gather
    # ------------------------------------------------------------------
    def group_by_shard(
        self, keys: np.ndarray | list
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group a batch into per-shard contiguous runs.

        Returns ``(shard_ids, order, offsets)``: *order* stably sorts
        the batch by shard (preserving batch order within a shard —
        what makes insert last-wins semantics survive routing), and
        ``order[offsets[s]:offsets[s+1]]`` are the positions routed to
        shard ``s``.  The service's write path reuses this grouping
        for its buffers.
        """
        shard_ids = self.shard_of(keys)
        return (shard_ids, *self._runs(shard_ids))

    def _runs(self, shard_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(order, offsets)`` of :meth:`group_by_shard` for given ids."""
        order = np.argsort(shard_ids, kind="stable")
        counts = np.bincount(shard_ids, minlength=self.n_shards)
        return order, np.concatenate([[0], np.cumsum(counts)])

    def _map_shards(self, tasks: list[tuple[int, Callable[[], object]]]) -> dict[int, object]:
        """Run one closure per shard, on the pool when configured."""
        if self._executor is None or len(tasks) <= 1:
            return {shard: task() for shard, task in tasks}
        futures = {shard: self._executor.submit(task) for shard, task in tasks}
        return {shard: future.result() for shard, future in futures.items()}

    def lookup_many(
        self, keys: np.ndarray | list, shard_ids: np.ndarray | None = None
    ) -> RoutedBatch:
        """Routed batched lookups with exact positional gather.

        *shard_ids* (parallel to *keys*, as from :meth:`shard_of`)
        skips routing the batch again when the caller already has it.
        """
        q = _as_query_array(keys)
        m = int(q.size)
        if shard_ids is None:
            shard_ids = self.shard_of(q)
        forest = self._forest_view()
        gathered = None
        if forest is not None:
            gathered = self._forest_lookup(forest, q, shard_ids)
        if gathered is None:
            gathered = self._scatter_lookup(q, shard_ids)
        reg = get_registry()
        if reg.enabled:
            reg.counter("router_batches_total").inc()
            reg.counter("router_routed_keys_total").inc(m)
            reg.histogram("router_batch_keys").observe(m)
            # Scatter width: shards this batch actually touched — the
            # fan-out the gather pays for.
            reg.histogram("router_scatter_shards").observe(
                int(np.count_nonzero(np.bincount(shard_ids, minlength=self.n_shards)))
            )
        return RoutedBatch(gathered=gathered, shard_ids=shard_ids, n_shards=self.n_shards)

    # ------------------------------------------------------------------
    # The flat forest
    # ------------------------------------------------------------------
    def _forest_view(self) -> _Forest | None:
        """The forest over the current shards, re-laid if stale.

        None in process mode: worker replicas serve per shard.
        """
        if self._proc is not None:
            return None
        forest = self._forest
        if forest is not None and forest.current(self._shards):
            return forest
        previous = None
        with self._forest_lock:
            forest = self._forest
            if forest is None or not forest.current(self._shards):
                previous = forest
                forest = self._forest = self._lay_forest(tuple(self._shards))
        self._release(previous, forest)
        return forest

    @staticmethod
    def _lay_forest(shards: tuple[LearnedIndex | None, ...]) -> _Forest:
        """Lay *shards* out in one forest (see :func:`compile_forest`)."""
        members = [s for s in shards if s is not None]
        laid = None
        if members and all(isinstance(s, LippIndex) for s in members):
            laid = compile_forest(members)
        if laid is None:
            return _Forest(shards)
        flat, member_windows = laid
        windows: list[FlatLipp | None] = []
        roots = np.full(len(shards), -1, dtype=np.int64)
        tracking = []
        t = 0
        for shard_no, shard in enumerate(shards):
            if shard is None:
                windows.append(None)
                continue
            windows.append(member_windows[t])
            roots[shard_no] = flat.tree_node_start[t]
            if shard.tracks_access:
                tracking.append((shard_no, t))
            t += 1
        return _Forest(shards, flat, tuple(windows), roots, tuple(tracking))

    @staticmethod
    def _release(previous: _Forest | None, forest: _Forest) -> None:
        """Free *previous*'s buffers from nodes it alone still views.

        Called after the forest lock is dropped, so readers never wait
        on its per-node loop.
        """
        if previous is None or previous.flat is None or forest.flat is None:
            return
        if previous.flat.slot_keys is not forest.flat.slot_keys:
            # Every live node now views the new buffers.
            previous.flat.release()

    def _forest_lookup(
        self, forest: _Forest, q: np.ndarray, shard_ids: np.ndarray
    ) -> BatchQueryStats | None:
        """One sweep over the forest, each key starting at its shard's
        root; None (after invalidating the stale shard) when the sweep
        hits a view that no longer matches its tree."""
        flat = forest.flat
        if flat is None:
            return None
        found, values, levels, steps = alloc_batch_outputs(q.size)
        visits = [] if forest.tracking else None
        leaf_visits = [] if forest.tracking else None
        try:
            flat.lookup_many_into(
                q, found, values, levels, steps, visits, leaf_visits,
                start=forest.roots[shard_ids],
            )
        except StaleFlatError as exc:
            node = int(np.searchsorted(flat.slot_start, exc.slot, side="right")) - 1
            tree = int(np.searchsorted(flat.tree_node_start, node, side="right")) - 1
            stale = [s for s in forest.shards if s is not None][tree]
            reg = get_registry()
            if reg.enabled:
                reg.counter("flat_stale_retries_total", family=stale.name).inc()
            stale.invalidate_flat()
            return None
        if forest.tracking:
            counts = np.bincount(shard_ids, minlength=self.n_shards).tolist()
            tallies = flat.tally_by_tree(visits, leaf_visits)
            for shard_no, t in forest.tracking:
                if counts[shard_no]:
                    forest.shards[shard_no].credit_batch(counts[shard_no], flat, *tallies[t])
        return BatchQueryStats(
            keys=q, found=found, values=values, levels=levels, search_steps=steps
        )

    def _scatter_lookup(self, q: np.ndarray, shard_ids: np.ndarray) -> BatchQueryStats:
        """One ``lookup_many`` per touched shard, gathered positionally."""
        order, offsets = self._runs(shard_ids)
        found, values, levels, steps = alloc_batch_outputs(q.size)
        per_shard: dict[int, BatchQueryStats] = {}

        tasks = []
        for shard_no in range(self.n_shards):
            lo, hi = int(offsets[shard_no]), int(offsets[shard_no + 1])
            if lo == hi:
                continue
            shard = self._shards[shard_no]
            if shard is None:
                # Empty shard: a definite miss with no structure to
                # traverse (levels=0, steps=0 — only base_ns accrues).
                continue
            positions = order[lo:hi]
            tasks.append((shard_no, (lambda s=shard, p=positions: s.lookup_many(q[p]))))
        if self._proc is not None and tasks:
            # Process fan-out: ship each shard's key slice to a replica
            # worker; the response is the shard's BatchQueryStats as
            # bare arrays (the keys we already hold).
            slices = {
                shard_no: q[order[int(offsets[shard_no]) : int(offsets[shard_no + 1])]]
                for shard_no, __ in tasks
            }
            for shard_no, arrays in self._proc.lookup(list(slices.items())).items():
                per_shard[shard_no] = BatchQueryStats(
                    keys=slices[shard_no],
                    found=arrays[0],
                    values=arrays[1],
                    levels=arrays[2],
                    search_steps=arrays[3],
                )
        else:
            per_shard.update(self._map_shards(tasks))

        for shard_no, batch in per_shard.items():
            positions = order[int(offsets[shard_no]) : int(offsets[shard_no + 1])]
            found[positions] = batch.found
            values[positions] = batch.values
            levels[positions] = batch.levels
            steps[positions] = batch.search_steps
        return BatchQueryStats(
            keys=q, found=found, values=values, levels=levels, search_steps=steps
        )

    def insert_many(
        self,
        keys: np.ndarray | list,
        values: np.ndarray | list | None = None,
    ) -> np.ndarray:
        """Routed batched inserts; returns the per-shard insert counts.

        Within a shard the batch order is preserved (stable grouping),
        so duplicate keys keep the sequential last-wins semantics.
        Inserting into an empty shard builds it from the run's sorted,
        deduplicated keys via the router's *build_factory*.
        """
        arr, vals = _as_batch_kv(keys, values)
        __, order, offsets = self.group_by_shard(arr)
        counts = np.zeros(self.n_shards, dtype=np.int64)
        tasks = []
        touched: list[int] = []
        for shard_no in range(self.n_shards):
            lo, hi = int(offsets[shard_no]), int(offsets[shard_no + 1])
            if lo == hi:
                continue
            positions = order[lo:hi]
            counts[shard_no] = positions.size
            touched.append(shard_no)
            shard = self._shards[shard_no]
            if shard is None:
                self._shards[shard_no] = self._materialise(
                    arr[positions], vals[positions]
                )
                continue
            tasks.append(
                (
                    shard_no,
                    (lambda s=shard, p=positions: s.insert_many(arr[p], vals[p])),
                )
            )
        if self._proc is not None:
            # Writes apply to the authoritative in-process shards, then
            # each touched shard is republished so the replicas serve
            # the new state.  (The service's write path buffers instead
            # and republishes only on merge — this direct path trades
            # write throughput for simplicity.)
            for __, task in tasks:
                task()
            for shard_no in touched:
                self._proc.publish(shard_no, self._shards[shard_no])
        else:
            self._map_shards(tasks)
        reg = get_registry()
        if reg.enabled:
            reg.counter("router_inserted_keys_total").inc(int(arr.size))
        return counts

    def _materialise(self, run_keys: np.ndarray, run_values: np.ndarray) -> LearnedIndex:
        """Build an empty shard from its first insert run (last wins)."""
        if self._build_factory is None:
            raise IndexStateError(
                "cannot insert into an empty shard without a build_factory"
            )
        return self._build_factory(*dedupe_last_wins(run_keys, run_values))

    def range_query(self, low: int, high: int) -> list[tuple[int, int]]:
        """Gathered range scan across every shard overlapping the range."""
        low = int(low)
        high = int(high)
        if low > high:
            return []
        first = int(np.searchsorted(self._boundaries, low, side="right"))
        last = int(np.searchsorted(self._boundaries, high, side="right"))
        out: list[tuple[int, int]] = []
        for shard_no in range(first, last + 1):
            shard = self._shards[shard_no]
            if shard is not None:
                out.extend(shard.range_query(low, high))
        return out

    def iter_keys(self):
        """Every stored key in ascending order (shards are disjoint ranges)."""
        for shard in self._shards:
            if shard is not None:
                yield from shard.iter_keys()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def replace_shard(self, shard_no: int, index: LearnedIndex | None) -> None:
        """Swap one shard's index (the service's merge path).

        The new index's flat view is compiled here, on the merge path,
        not on the first lookup after it: a router serving from a flat
        forest re-lays it — the other shards' ranges are copied and
        only *index* is compiled — and otherwise a LIPP/SALI index
        compiles its own view before the swap.  In process mode the
        new index is republished to the shard's replicas (or the
        publication withdrawn when *index* is None); a router whose
        executor is already closed just swaps locally, so a straggling
        background merge landing during shutdown can not crash against
        dead workers.
        """
        shard_no = int(shard_no)
        if self._proc is None and self._forest is not None and self._forest.flat is not None:
            # Lay the new forest first, then publish it with the shard:
            # until then readers keep sweeping the old one.
            with self._forest_lock:
                shards = list(self._shards)
                shards[shard_no] = index
                previous = self._forest
                forest = self._lay_forest(tuple(shards))
                self._forest = forest
                self._shards[shard_no] = index
            self._release(previous, forest)
            return
        if index is not None:
            prewarm = getattr(index, "prewarm_flat", None)
            if prewarm is not None:
                prewarm()
        self._shards[shard_no] = index
        if self._proc is not None and not self._proc.closed:
            if index is None:
                self._proc.withdraw(shard_no)
            else:
                self._proc.publish(shard_no, index)

    def close(self) -> None:
        """Shut the worker pool / processes down (no-op when serial)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._proc is not None:
            self._proc.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
