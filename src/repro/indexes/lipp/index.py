"""LIPP index facade over :class:`~repro.indexes.lipp.node.LippNode`.

LIPP (Updatable Learned Index with Precise Positions, [33]) answers a
lookup purely by traversal: each level evaluates one linear model and
lands exactly on a slot.  Its query time is therefore proportional to
the depth of the key — the effect Fig. 1 of the paper measures and CSV
attacks.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Sequence

import numpy as np

from ...core.exceptions import IndexStateError
from ..base import (
    KEY_BYTES,
    MODEL_BYTES,
    NODE_HEADER_BYTES,
    OFFSET_BYTES,
    POINTER_BYTES,
    VALUE_BYTES,
    BatchQueryStats,
    LearnedIndex,
    QueryStats,
    _as_batch_kv,
    _as_query_array,
    alloc_batch_outputs,
    dedupe_last_wins,
    group_runs,
    prepare_key_values,
)
from ...obs.metrics import get_registry
from ...obs.tracing import trace
from .flat import NO_VISITS, FlatLipp, StaleFlatError
from .node import DEFAULT_SLOT_FACTOR, SLOT_CHILD, SLOT_DATA, SLOT_EMPTY, LippNode

__all__ = ["LippIndex", "compile_forest"]

#: Bytes per slot: 1 type byte + key + value/pointer union.
SLOT_BYTES = 1 + KEY_BYTES + VALUE_BYTES

#: Query groups at or below this size descend scalar-style inside
#: :meth:`LippIndex.lookup_many` — conflict subtrees are tiny, and a
#: handful of Python ops beats a dozen numpy dispatches on 2-3 keys.
SMALL_GROUP = 4


class LippIndex(LearnedIndex):
    """Updatable precise-position learned index."""

    name = "lipp"
    #: Whether lookups credit per-node ``access_count`` (SALI's
    #: workload model); plain LIPP does not track.
    tracks_access = False

    def __init__(self, root: LippNode, slot_factor: float, use_flat: bool = True):
        self._root = root
        self._slot_factor = slot_factor
        #: With ``use_flat`` unset the index runs entirely on the
        #: node-object sweeps — the authoritative oracle the flat
        #: parity suite compares against.
        self._use_flat = bool(use_flat)
        #: The compiled view: a standalone compile, or this index's
        #: window into a router's forest (:func:`compile_forest`).
        self._flat: FlatLipp | None = None
        self._flat_uncompilable = False
        #: Serialises compiles: a compile re-points the nodes' slot
        #: arrays, so two racing compiles could publish a view whose
        #: buffers are not the ones the nodes write into.
        self._flat_lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_flat_lock"]
        flat = state["_flat"]
        if flat is not None and flat.n_trees > 1:
            # A forest window would drag every other shard's tree
            # along; the copy recompiles its own view lazily.
            state["_flat"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._flat_lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        keys,
        values=None,
        slot_factor: float = DEFAULT_SLOT_FACTOR,
        use_flat: bool = True,
    ) -> "LippIndex":
        arr, vals = prepare_key_values(keys, values)
        root = LippNode.from_keys(arr, vals, level=1, slot_factor=slot_factor)
        return cls(root, slot_factor, use_flat=use_flat)

    @property
    def root(self) -> LippNode:
        return self._root

    @property
    def slot_factor(self) -> float:
        return self._slot_factor

    # ------------------------------------------------------------------
    # Flat-view cache management
    # ------------------------------------------------------------------
    def invalidate_flat(self) -> None:
        """Drop the compiled flat view after a structural change.

        Every code path that alters tree *structure* (conflict child,
        subtree rebuild, CSV re-smoothing, SALI flattening) must call
        this; in-place slot writes need not, because the node slot
        arrays are views into the flat buffers.  Code performing
        direct tree surgery outside the index API (tests, adapters)
        must call it too.
        """
        self._flat = None
        self._flat_uncompilable = False

    def prewarm_flat(self) -> None:
        """Compile the flat view now (e.g. before serving a shard)."""
        self._flat_view()

    @property
    def compiled_flat(self) -> FlatLipp | None:
        """The current flat view without compiling one (None if none)."""
        return self._flat

    def _flat_view(self) -> FlatLipp | None:
        """The compiled flat view, or None when disabled/unsupported."""
        flat = self._flat
        if flat is not None or not self._use_flat or self._flat_uncompilable:
            return flat
        with self._flat_lock:
            if self._flat is None and not self._flat_uncompilable:
                self._flat = _compile([self], [self._root])
                self._flat_uncompilable = self._flat is None
            return self._flat

    # ------------------------------------------------------------------
    def _descend(self, key: int) -> tuple[LippNode, int, int]:
        """Walk to the node whose model addresses *key* terminally.

        Returns ``(node, slot, levels)``.
        """
        return self._descend_from(self._root, key, 1)

    @staticmethod
    def _descend_from(node: LippNode, key: int, levels: int) -> tuple[LippNode, int, int]:
        """:meth:`_descend` starting at an arbitrary (node, depth)."""
        while True:
            slot = node.slot_of(key)
            if int(node.slot_type[slot]) == SLOT_CHILD:
                node = node.children[slot]
                levels += 1
                continue
            return node, slot, levels

    def lookup_stats(self, key: int) -> QueryStats:
        key = int(key)
        node, slot, levels = self._descend(key)
        kind = int(node.slot_type[slot])
        if kind == SLOT_DATA and int(node.slot_keys[slot]) == key:
            return QueryStats(
                key=key,
                found=True,
                value=int(node.slot_values[slot]),
                levels=levels,
                search_steps=0,
            )
        return QueryStats(key=key, found=False, value=None, levels=levels, search_steps=0)

    def lookup_many(self, keys) -> BatchQueryStats:
        """Batched precise-position lookups.

        With the flat view enabled (the default) the whole batch is
        answered by :meth:`FlatLipp.lookup_many_into` — a few
        vectorised gathers per tree level over the surviving query
        frontier.  The node-object sweep (:meth:`_batch_descend`)
        remains the authoritative oracle (``use_flat=False``) and the
        fallback for trees the flat view cannot represent.  LIPP
        lookups have no search component, so ``search_steps`` is all
        zeros, exactly as in :meth:`lookup_stats`.  Indexes that
        track access (SALI) account each batch in
        :meth:`credit_batch`.
        """
        q = _as_query_array(keys)
        found, values, levels, steps = alloc_batch_outputs(q.size)
        if q.size:
            self._batch_lookup(q, found, values, levels, steps)
        return BatchQueryStats(keys=q, found=found, values=values, levels=levels, search_steps=steps)

    def _batch_lookup(
        self,
        q: np.ndarray,
        found: np.ndarray,
        values: np.ndarray,
        levels: np.ndarray,
        steps: np.ndarray,
    ) -> None:
        """Route a batch through the flat view, falling back to the
        node-object oracle sweep.

        A :class:`StaleFlatError` (a sweep followed an unmapped CHILD
        slot, possibly after writing some outputs) zeroes the outputs
        and triggers one recompile-and-retry; trees that cannot be
        compiled at all descend through :meth:`_batch_descend`.
        """
        flat = self._flat_view()
        if flat is not None:
            try:
                self._flat_sweep(flat, q, found, values, levels, steps)
                return
            except StaleFlatError:
                reg = get_registry()
                if reg.enabled:
                    reg.counter("flat_stale_retries_total", family=self.name).inc()
                for out in (found, values, levels, steps):
                    out.fill(0)
                self.invalidate_flat()
                flat = self._flat_view()
                if flat is not None:
                    self._flat_sweep(flat, q, found, values, levels, steps)
                    return
        self._batch_descend(q, found, values, levels, steps, self.tracks_access)
        self.credit_batch(int(q.size))

    def _flat_sweep(
        self,
        flat: FlatLipp,
        q: np.ndarray,
        found: np.ndarray,
        values: np.ndarray,
        levels: np.ndarray,
        steps: np.ndarray,
    ) -> None:
        """One flat lookup sweep, crediting access counts when tracked."""
        if not self.tracks_access:
            flat.lookup_many_into(q, found, values, levels, steps)
            return
        visits: list = []
        leaf_visits: list = []
        flat.lookup_many_into(q, found, values, levels, steps, visits, leaf_visits)
        self.credit_batch(int(q.size), flat, flat.tally(visits), flat.tally(leaf_visits))

    def credit_batch(
        self,
        n_queries: int,
        flat: FlatLipp | None = None,
        nodes: tuple = NO_VISITS,
        leaves: tuple = NO_VISITS,
    ) -> None:
        """Account one batch of *n_queries* lookups in the workload model.

        A no-op here: LIPP tracks nothing.  SALI counts the queries
        and adds a flat sweep's tallied visits (:meth:`FlatLipp.tally`
        over *flat*'s nodes and leaves) onto the node objects; the
        node-object sweep credits its paths as it walks.
        """

    def _batch_descend(
        self,
        q: np.ndarray,
        found: np.ndarray,
        values: np.ndarray,
        levels: np.ndarray,
        steps: np.ndarray,
        track: bool,
    ) -> None:
        """Grouped frontier sweep shared by LIPP and SALI.

        Scatters results into the caller's output arrays.  With
        ``track`` set, every node on each query's path has its
        ``access_count`` credited (aggregate-equivalent to SALI's
        per-query ``record_path``).  Leaves that are not
        :class:`LippNode` (SALI's flattened subtrees) are answered via
        their ``lookup``/``lookup_batch`` duck-type interface.
        """
        frontier: list[tuple[object, np.ndarray, int]] = [(self._root, np.arange(q.size), 1)]
        while frontier:
            node, idx, depth = frontier.pop()
            if idx.size <= SMALL_GROUP:
                # Tiny conflict subtrees: scalar descent beats numpy
                # dispatch on 2-3 keys.
                for j in idx.tolist():
                    key = int(q[j])
                    sub, lvl = node, depth
                    while True:
                        if track:
                            sub.access_count += 1
                        if not isinstance(sub, LippNode):
                            f, v, s = sub.lookup(key)
                            found[j] = f
                            if f:
                                values[j] = v
                            steps[j] = s
                            levels[j] = lvl
                            break
                        slot = sub.slot_of(key)
                        kind = int(sub.slot_type[slot])
                        if kind == SLOT_CHILD:
                            sub = sub.children[slot]
                            lvl += 1
                            continue
                        levels[j] = lvl
                        if kind == SLOT_DATA and int(sub.slot_keys[slot]) == key:
                            found[j] = True
                            values[j] = sub.slot_values[slot]
                        break
                continue
            if track:
                node.access_count += int(idx.size)
            if not isinstance(node, LippNode):
                node_found, node_values, node_steps = node.lookup_batch(q[idx])
                found[idx] = node_found
                values[idx] = node_values
                steps[idx] = node_steps
                levels[idx] = depth
                continue
            slots = np.clip(
                np.rint(node.model.predict_array(q[idx])).astype(np.int64), 0, node.m - 1
            )
            kinds = node.slot_type[slots]
            terminal = kinds != SLOT_CHILD
            if np.any(terminal):
                t_idx = idx[terminal]
                t_slots = slots[terminal]
                levels[t_idx] = depth
                hit = (kinds[terminal] == SLOT_DATA) & (node.slot_keys[t_slots] == q[t_idx])
                hit_idx = t_idx[hit]
                found[hit_idx] = True
                values[hit_idx] = node.slot_values[t_slots[hit]]
            child_mask = ~terminal
            if np.any(child_mask):
                c_idx = idx[child_mask]
                c_slots = slots[child_mask]
                for group in group_runs(c_slots):
                    child = node.children[int(c_slots[group[0]])]
                    frontier.append((child, c_idx[group], depth + 1))

    def insert(self, key: int, value: int) -> None:
        """Insert one entry; conflicts may create a child or trigger a
        subtree rebuild.

        LIPP's *adjustment* strategy: each node counts the insert
        conflicts it has absorbed since it was (re)built, and once the
        count passes a fraction of its subtree size the whole subtree
        is rebuilt from its sorted keys.  This keeps conflict chains
        from degenerating into linked lists.
        """
        key = int(key)
        value = int(value)
        path: list[LippNode] = []
        node = self._root
        while True:
            path.append(node)
            slot = node.slot_of(key)
            kind = int(node.slot_type[slot])
            if kind == SLOT_CHILD:
                node = node.children[slot]
                continue
            break
        if kind == SLOT_DATA and int(node.slot_keys[slot]) == key:
            node.slot_values[slot] = value
            return
        for visited in path:
            visited.n_subtree_keys += 1
        if kind == SLOT_EMPTY:
            node.slot_type[slot] = SLOT_DATA
            node.slot_keys[slot] = key
            node.slot_values[slot] = value
            return
        node.make_conflict_child(slot, key, value, self._slot_factor)
        self.invalidate_flat()
        for visited in path:
            visited.conflicts_since_build += 1
        self._maybe_rebuild(path)

    #: A node is rebuilt when its conflict count since build exceeds
    #: ``max(REBUILD_MIN_CONFLICTS, REBUILD_RATIO * subtree size)``.
    REBUILD_MIN_CONFLICTS = 8
    REBUILD_RATIO = 0.1

    # ------------------------------------------------------------------
    # Bulk ingest
    # ------------------------------------------------------------------
    #: A batch group covering at least this fraction of the subtree it
    #: lands in triggers a sorted-merge rebuild of the whole subtree
    #: (flatten + merge + ``from_keys``) instead of a grouped descent.
    BULK_REBUILD_FRACTION = 0.25
    #: Subtrees at or below this many keys are always rebuilt — the
    #: flatten/merge is a handful of array ops, cheaper than recursing.
    BULK_SMALL_SUBTREE = 64

    def bulk_insert_many(self, keys, values=None) -> None:
        """Bulk ingest: in-place gapped merge of the touched slots.

        A batch *dense* relative to the whole index (or landing in a
        tiny tree) still takes the wholesale sorted-merge rebuild
        (:meth:`_bulk_into`: flatten + merge + one
        :meth:`LippNode.from_keys`), which amortises model fits across
        the group.  Sparse batches instead run the ALEX-style gapped
        merge over the flat view: one vectorised :meth:`FlatLipp.
        locate` sweep addresses every key's terminal slot, overwrites
        and unique-gap fills are pure array scatters through the
        shared slot buffers, and only genuinely conflicting slots
        (several keys colliding, or colliding with an existing entry)
        build conflict children — no subtree is rebuilt unless its
        accumulated conflicts cross LIPP's adjustment threshold.
        Rebuilt subtrees start with fresh conflict counters, so the
        physical layout may differ from the per-key loop's; lookup
        contents are identical.
        """
        arr, vals = _as_batch_kv(keys, values)
        if arr.size == 0:
            return
        reg = get_registry()
        if reg.enabled:
            reg.counter("bulk_insert_batches_total", family=self.name).inc()
            reg.counter("bulk_insert_keys_total", family=self.name).inc(int(arr.size))
        bkeys, bvals = dedupe_last_wins(arr, vals)
        n = self._root.n_subtree_keys
        dense = n <= self.BULK_SMALL_SUBTREE or bkeys.size >= self.BULK_REBUILD_FRACTION * n
        if not dense:
            flat = self._flat_view()
            if flat is not None:
                try:
                    self._gapped_merge(flat, bkeys, bvals)
                    if reg.enabled:
                        reg.counter("bulk_gapped_merges_total", family=self.name).inc()
                    return
                except StaleFlatError:
                    if reg.enabled:
                        reg.counter("flat_stale_retries_total", family=self.name).inc()
                    self.invalidate_flat()
                    flat = self._flat_view()
                    if flat is not None:
                        self._gapped_merge(flat, bkeys, bvals)
                        if reg.enabled:
                            reg.counter("bulk_gapped_merges_total", family=self.name).inc()
                        return
        replacement, __ = self._bulk_into(self._root, bkeys, bvals)
        if replacement is not self._root:
            replacement.parent = None
            replacement.parent_slot = None
            self._root = replacement
        self.invalidate_flat()
        if reg.enabled:
            reg.counter("bulk_rebuilds_total", family=self.name).inc()

    def _gapped_merge(self, flat: FlatLipp, bkeys: np.ndarray, bvals: np.ndarray) -> None:
        """Merge a sorted unique batch through the compiled flat view.

        One :meth:`FlatLipp.locate` sweep addresses every key; the
        merge itself is three vectorised scatters (value overwrites,
        unique-gap fills, per-leaf group merges) plus a Python loop
        over only the *conflicting* slots.  Subtree-key counts are
        propagated up the (short) parent chains of the touched
        terminal nodes, and nodes whose conflict counters cross the
        adjustment threshold are rebuilt shallow-first afterwards.
        """
        term_node, term_slot, term_kind, leaf_of = flat.locate(bkeys)
        nodes = flat.nodes
        slot_start = flat.slot_start
        net_by_node = np.zeros(len(nodes), dtype=np.int64)
        conflict_nodes: dict[int, LippNode] = {}
        structural = False

        # Flattened leaves (SALI): one merge + re-segmentation per
        # touched leaf; swapping the rebuilt leaf into ``flat.leaves``
        # keeps the slot_child mapping valid with no recompile.
        l_rows = np.nonzero(leaf_of >= 0)[0]
        if l_rows.size:
            l_rows = l_rows[np.argsort(leaf_of[l_rows], kind="stable")]
            l_ids = leaf_of[l_rows]
            for group in group_runs(l_ids):
                sel = l_rows[group]
                leaf_id = int(l_ids[group[0]])
                leaf = flat.leaves[leaf_id]
                old_k, old_v = leaf.collect_arrays()
                merged_k, merged_v = dedupe_last_wins(
                    np.concatenate([old_k, bkeys[sel]]),
                    np.concatenate([old_v, bvals[sel]]),
                )
                rebuilt = type(leaf)(merged_k, merged_v, leaf.level, leaf.epsilon)
                parent = leaf.parent
                rebuilt.parent = parent
                rebuilt.parent_slot = leaf.parent_slot
                parent.children[leaf.parent_slot] = rebuilt
                flat.leaves[leaf_id] = rebuilt
                net = int(merged_k.size) - int(old_k.size)
                if net:
                    self._credit_chain(parent, net)

        # DATA terminals: a slot whose single key matches the stored
        # key is a pure value overwrite through the shared buffers;
        # anything else is a conflict group merged into a child.
        d_rows = np.nonzero(term_kind == SLOT_DATA)[0]
        if d_rows.size:
            d_slots = term_slot[d_rows]
            match = flat.slot_keys[d_slots] == bkeys[d_rows]
            uniq, inv, counts = np.unique(d_slots, return_inverse=True, return_counts=True)
            matches_per_slot = np.bincount(inv, weights=match.astype(np.float64))
            pure = (counts == 1) & (matches_per_slot.astype(np.int64) == 1)
            ov_rows = d_rows[pure[inv]]
            if ov_rows.size:
                flat.slot_values[term_slot[ov_rows]] = bvals[ov_rows]
            for gslot in uniq[~pure].tolist():
                sel = d_rows[d_slots == gslot]
                node_id = int(term_node[sel[0]])
                node = nodes[node_id]
                local = int(gslot - slot_start[node_id])
                merged_k, merged_v = dedupe_last_wins(
                    np.concatenate(
                        [np.asarray([int(flat.slot_keys[gslot])], dtype=np.int64), bkeys[sel]]
                    ),
                    np.concatenate(
                        [np.asarray([int(flat.slot_values[gslot])], dtype=np.int64), bvals[sel]]
                    ),
                )
                node.slot_keys[local] = 0
                node.slot_values[local] = 0
                self._attach_bulk_child(node, local, merged_k, merged_v)
                node.conflicts_since_build += 1
                conflict_nodes[id(node)] = node
                net_by_node[node_id] += int(merged_k.size) - 1
                structural = True

        # EMPTY terminals: unique landings fill their gap with one
        # scatter; colliding groups become a fresh child.
        e_rows = np.nonzero(term_kind == SLOT_EMPTY)[0]
        if e_rows.size:
            e_slots = term_slot[e_rows]
            uniq, first, counts = np.unique(e_slots, return_index=True, return_counts=True)
            single = counts == 1
            if np.any(single):
                rows = e_rows[first[single]]
                slots = uniq[single]
                flat.slot_type[slots] = SLOT_DATA
                flat.slot_keys[slots] = bkeys[rows]
                flat.slot_values[slots] = bvals[rows]
                np.add.at(net_by_node, term_node[rows], 1)
            for gslot in uniq[~single].tolist():
                sel = e_rows[e_slots == gslot]
                node_id = int(term_node[sel[0]])
                node = nodes[node_id]
                local = int(gslot - slot_start[node_id])
                self._attach_bulk_child(node, local, bkeys[sel], bvals[sel])
                net_by_node[node_id] += int(sel.size)
                structural = True

        for node_id in np.nonzero(net_by_node)[0].tolist():
            self._credit_chain(nodes[node_id], int(net_by_node[node_id]))

        # LIPP's adjustment, batch-style: rebuild any node whose
        # accumulated conflicts crossed the threshold, shallow-first
        # (a rebuilt ancestor subsumes its descendants).
        if conflict_nodes:
            rebuilt_ids: set[int] = set()
            for node in sorted(conflict_nodes.values(), key=lambda nd: nd.level):
                anc = node.parent
                while anc is not None and id(anc) not in rebuilt_ids:
                    anc = anc.parent
                if anc is not None:
                    continue  # covered by a rebuilt ancestor
                threshold = max(
                    self.REBUILD_MIN_CONFLICTS, self.REBUILD_RATIO * node.n_subtree_keys
                )
                if node.conflicts_since_build < threshold:
                    continue
                keys_, vals_ = node.collect_arrays()
                rebuilt = LippNode.from_keys(keys_, vals_, node.level, self._slot_factor)
                if node.parent is None:
                    self._root = rebuilt
                else:
                    parent = node.parent
                    pslot = node.parent_slot
                    parent.children[pslot] = rebuilt
                    rebuilt.parent = parent
                    rebuilt.parent_slot = pslot
                rebuilt_ids.add(id(node))
        if structural:
            self.invalidate_flat()

    @staticmethod
    def _credit_chain(node: LippNode | None, net: int) -> None:
        """Add *net* subtree keys to *node* and every ancestor."""
        while node is not None:
            node.n_subtree_keys += net
            node = node.parent

    def _bulk_into(self, node, bkeys: np.ndarray, bvals: np.ndarray):
        """Merge a sorted unique batch run into *node*'s subtree.

        Returns ``(replacement, net_new_keys)``; *replacement* is
        *node* itself when patched in place, or a freshly rebuilt
        subtree the caller must re-attach.  Handles SALI's flattened
        leaves by duck-type (rebuilt as flattened nodes, preserving
        their adaptation).
        """
        if not isinstance(node, LippNode):
            # Flattened leaf: merge into its dense arrays and rebuild
            # the segmentation once for the whole group.
            old_keys, old_vals = node.collect_arrays()
            merged_k, merged_v = dedupe_last_wins(
                np.concatenate([old_keys, bkeys]), np.concatenate([old_vals, bvals])
            )
            rebuilt = type(node)(merged_k, merged_v, node.level, node.epsilon)
            return rebuilt, int(merged_k.size) - int(old_keys.size)
        n = node.n_subtree_keys
        if n <= self.BULK_SMALL_SUBTREE or bkeys.size >= self.BULK_REBUILD_FRACTION * n:
            old_keys, old_vals = node.collect_arrays()
            merged_k, merged_v = dedupe_last_wins(
                np.concatenate([old_keys, bkeys]), np.concatenate([old_vals, bvals])
            )
            rebuilt = LippNode.from_keys(
                merged_k, merged_v, node.level, self._slot_factor
            )
            return rebuilt, int(merged_k.size) - int(old_keys.size)
        # Sparse batch: group by predicted slot, patch terminals in
        # place and recurse into child subtrees.
        slots = np.clip(
            np.rint(node.model.predict_array(bkeys)).astype(np.int64), 0, node.m - 1
        )
        net_total = 0
        for group in group_runs(slots):
            slot = int(slots[group[0]])
            gkeys = bkeys[group]
            gvals = bvals[group]
            kind = int(node.slot_type[slot])
            if kind == SLOT_CHILD:
                child = node.children[slot]
                replacement, net = self._bulk_into(child, gkeys, gvals)
                if replacement is not child:
                    replacement.parent = node
                    replacement.parent_slot = slot
                    node.children[slot] = replacement
            elif kind == SLOT_EMPTY:
                if gkeys.size == 1:
                    node.slot_type[slot] = SLOT_DATA
                    node.slot_keys[slot] = gkeys[0]
                    node.slot_values[slot] = gvals[0]
                else:
                    self._attach_bulk_child(node, slot, gkeys, gvals)
                net = int(gkeys.size)
            else:  # SLOT_DATA
                existing_key = int(node.slot_keys[slot])
                if gkeys.size == 1 and int(gkeys[0]) == existing_key:
                    node.slot_values[slot] = gvals[0]
                    net = 0
                else:
                    merged_k, merged_v = dedupe_last_wins(
                        np.concatenate(
                            [np.asarray([existing_key], dtype=np.int64), gkeys]
                        ),
                        np.concatenate(
                            [np.asarray([int(node.slot_values[slot])], dtype=np.int64), gvals]
                        ),
                    )
                    node.slot_keys[slot] = 0
                    node.slot_values[slot] = 0
                    self._attach_bulk_child(node, slot, merged_k, merged_v)
                    node.conflicts_since_build += 1
                    net = int(merged_k.size) - 1
            net_total += net
        node.n_subtree_keys += net_total
        return node, net_total

    def _attach_bulk_child(
        self, node: LippNode, slot: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Build a subtree from a sorted run and install it at *slot*."""
        child = LippNode.from_keys(keys, values, node.level + 1, self._slot_factor)
        child.parent = node
        child.parent_slot = slot
        node.slot_type[slot] = SLOT_CHILD
        node.children[slot] = child

    def _maybe_rebuild(self, path: list[LippNode]) -> None:
        """Rebuild the shallowest over-conflicted node on *path*."""
        for node in path:
            if node.level == 1 and node is self._root and len(path) == 1:
                # Root rebuilds are allowed but only when truly needed;
                # fall through to the threshold test like any node.
                pass
            threshold = max(self.REBUILD_MIN_CONFLICTS, self.REBUILD_RATIO * node.n_subtree_keys)
            if node.conflicts_since_build < threshold:
                continue
            keys, values = node.collect_arrays()
            rebuilt = LippNode.from_keys(keys, values, node.level, self._slot_factor)
            if node.parent is None:
                self._root = rebuilt
            else:
                parent = node.parent
                slot = node.parent_slot
                assert slot is not None
                parent.children[slot] = rebuilt
                rebuilt.parent = parent
                rebuilt.parent_slot = slot
            self.invalidate_flat()
            return

    # ------------------------------------------------------------------
    @property
    def n_keys(self) -> int:
        return self._root.n_subtree_keys

    def height(self) -> int:
        flat = self._flat_view()
        if flat is not None:
            return flat.height()
        return max(node.level for node in self._root.walk())

    def node_count(self) -> int:
        flat = self._flat_view()
        if flat is not None:
            return flat.n_nodes + len(flat.window_leaves)
        return sum(1 for __ in self._root.walk())

    def size_bytes(self) -> int:
        """Resident bytes of the flat representation.

        Per node: header, slot arrays (type/key/value), the model
        coefficients (:data:`~repro.indexes.base.MODEL_BYTES`) and its
        entry in the CSR slot-offset array
        (:data:`~repro.indexes.base.OFFSET_BYTES`); per CHILD slot one
        pointer.  The legacy walk charges the identical formula so the
        oracle reports the same size.
        """
        flat = self._flat_view()
        if flat is not None:
            total = flat.n_nodes * (NODE_HEADER_BYTES + MODEL_BYTES + OFFSET_BYTES)
            total += flat.total_slots * SLOT_BYTES
            total += flat.child_slot_count() * POINTER_BYTES
            return total
        total = 0
        for node in self._root.walk():
            total += NODE_HEADER_BYTES + MODEL_BYTES + OFFSET_BYTES
            total += node.m * SLOT_BYTES
            total += len(node.children) * POINTER_BYTES
        return total

    def key_level(self, key: int) -> int:
        key = int(key)
        node, slot, levels = self._descend(key)
        if int(node.slot_type[slot]) == SLOT_DATA and int(node.slot_keys[slot]) == key:
            return levels
        raise IndexStateError(f"key {key} is not stored in this LIPP index")

    def iter_keys(self) -> Iterator[int]:
        for key, __ in self._root.iter_entries():
            yield key

    # ------------------------------------------------------------------
    # Structure reports used by the evaluation harness
    # ------------------------------------------------------------------
    def level_histogram(self) -> dict[int, int]:
        """Number of keys stored at each level (reproduces Fig. 1's x-axis).

        With the flat view this is one bincount over the DATA slots'
        owning-node levels instead of a per-key Python visit.
        """
        flat = self._flat_view()
        if flat is not None:
            return flat.level_histogram()
        histogram: dict[int, int] = {}

        def visit(key: int, level: int) -> None:
            histogram[level] = histogram.get(level, 0) + 1

        self._root.visit_data_levels(visit)
        return dict(sorted(histogram.items()))

    def keys_at_or_below(self, level: int) -> np.ndarray:
        """Keys stored at *level* or deeper ("promotable data")."""
        flat = self._flat_view()
        if flat is not None:
            return flat.keys_at_or_below(level)
        out: list[int] = []

        def visit(key: int, key_level: int) -> None:
            if key_level >= level:
                out.append(key)

        self._root.visit_data_levels(visit)
        return np.asarray(sorted(out), dtype=np.int64)

    def range_query(self, low: int, high: int) -> list[tuple[int, int]]:
        """All (key, value) pairs with ``low <= key <= high``.

        LIPP stores entries in slot order, so an in-order subtree walk
        bounded by the range suffices; cost is proportional to the
        number of slots overlapping the range.
        """
        low = int(low)
        high = int(high)
        out: list[tuple[int, int]] = []
        for key, value in self._root.iter_entries():
            if key > high:
                break
            if key >= low:
                out.append((key, value))
        return out

    def node_levels(self) -> list[int]:
        """Level of every node (for the node-reduction metric).

        Order is unspecified (the flat view reports BFS order, the
        legacy walk pre-order); consumers aggregate.
        """
        flat = self._flat_view()
        if flat is not None:
            return flat.node_levels()
        return [node.level for node in self._root.walk()]

    def empty_slot_fraction(self) -> float:
        """Share of EMPTY slots over all slots (gap availability).

        Flattened leaves (SALI) store dense sorted arrays, so their
        entries count as fully occupied slots in the denominator.
        """
        flat = self._flat_view()
        if flat is not None:
            empty, total = flat.empty_and_total_slots()
            return empty / total if total else 0.0
        empty = 0
        total = 0
        for node in self._root.walk():
            if isinstance(node, LippNode):
                empty += int(np.count_nonzero(node.slot_type == SLOT_EMPTY))
                total += node.m
            else:
                total += int(node.keys.size)
        return empty / total if total else 0.0


def compile_forest(
    indexes: Sequence[LippIndex],
) -> tuple[FlatLipp, list[FlatLipp]] | None:
    """Lay several indexes out in one flat forest; each adopts its window.

    Returns ``(forest, windows)``: tree ``t`` belongs to
    ``indexes[t]``, whose compiled view becomes ``windows[t]``.  An
    index whose current view is still valid is copied from it
    range-wise; the others compile from their nodes (one
    ``flat_compiles_total`` each).  Every index's
    compile lock is held while the forest is laid out and the windows
    published, so a concurrent per-index compile cannot re-point the
    same nodes.  Returns None — changing nothing — when some index has
    flat views off or cannot be represented.
    """
    if not indexes or any(not ix._use_flat or ix._flat_uncompilable for ix in indexes):
        return None
    with contextlib.ExitStack() as stack:
        for ix in indexes:
            stack.enter_context(ix._flat_lock)
        sources = [ix._root if ix._flat is None else ix._flat for ix in indexes]
        if len(sources) == 1 and isinstance(sources[0], FlatLipp) and sources[0].n_trees == 1:
            return sources[0], sources  # already a forest of its own
        forest = _compile(indexes, sources)
        if forest is None:
            return None
        windows = [forest.window(t) for t in range(len(indexes))]
        for ix, window in zip(indexes, windows):
            ix._flat = window
    return forest, windows


def _compile(indexes: Sequence[LippIndex], sources: list) -> FlatLipp | None:
    """:meth:`FlatLipp.compile`, traced, counting one
    ``flat_compiles_total`` per index compiled from its nodes."""
    reg = get_registry()
    if not reg.enabled:
        return FlatLipp.compile(sources)
    with trace("flat_compile", registry=reg, family=indexes[0].name, trees=len(sources)):
        flat = FlatLipp.compile(sources)
    for ix, src in zip(indexes, sources):
        if src is ix._root:
            reg.counter("flat_compiles_total", family=ix.name).inc()
    return flat
