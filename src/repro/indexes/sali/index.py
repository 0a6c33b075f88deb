"""SALI index: LIPP + probability-driven hot-subtree flattening [9].

SALI keeps LIPP's precise-position core (it is "based on LIPP", which
is why the paper reports near-identical CSV behaviour on the two) and
adds workload adaptation: per-node access statistics identify the most
frequently traversed subtrees, which get flattened into PGM-segmented
nodes to cut their traversal depth at the price of an extra search
step (see :mod:`repro.indexes.sali.flatten`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ...core.exceptions import IndexStateError
from ..base import (
    MODEL_BYTES,
    NODE_HEADER_BYTES,
    OFFSET_BYTES,
    POINTER_BYTES,
    QueryStats,
)
from ..lipp.flat import NO_VISITS, FlatLipp
from ..lipp.index import SLOT_BYTES, LippIndex
from ..lipp.node import DEFAULT_SLOT_FACTOR, SLOT_CHILD, SLOT_DATA, LippNode
from .flatten import DEFAULT_EPSILON, FlattenedNode
from .probability import AccessTracker

__all__ = ["SaliIndex"]


class SaliIndex(LippIndex):
    """Scalable Adaptive Learned Index (reproduction)."""

    name = "sali"
    tracks_access = True

    def __init__(
        self,
        root: LippNode,
        slot_factor: float,
        flatten_epsilon: int = DEFAULT_EPSILON,
        use_flat: bool = True,
    ):
        super().__init__(root, slot_factor, use_flat=use_flat)
        self.tracker = AccessTracker()
        self._flatten_epsilon = int(flatten_epsilon)

    @classmethod
    def build(
        cls,
        keys,
        values=None,
        slot_factor: float = DEFAULT_SLOT_FACTOR,
        flatten_epsilon: int = DEFAULT_EPSILON,
        use_flat: bool = True,
    ) -> "SaliIndex":
        base = LippIndex.build(keys, values, slot_factor)
        return cls(base.root, slot_factor, flatten_epsilon, use_flat=use_flat)

    # ------------------------------------------------------------------
    # Queries (track access statistics; handle flattened children)
    # ------------------------------------------------------------------
    def lookup_stats(self, key: int) -> QueryStats:
        key = int(key)
        path: list = []
        node = self._root
        levels = 1
        while True:
            path.append(node)
            if isinstance(node, FlattenedNode):
                found, value, steps = node.lookup(key)
                self.tracker.record_path(path)
                return QueryStats(key=key, found=found, value=value, levels=levels, search_steps=steps)
            slot = node.slot_of(key)
            kind = int(node.slot_type[slot])
            if kind == SLOT_CHILD:
                node = node.children[slot]
                levels += 1
                continue
            self.tracker.record_path(path)
            if kind == SLOT_DATA and int(node.slot_keys[slot]) == key:
                return QueryStats(
                    key=key, found=True, value=int(node.slot_values[slot]),
                    levels=levels, search_steps=0,
                )
            return QueryStats(key=key, found=False, value=None, levels=levels, search_steps=0)

    def credit_batch(
        self,
        n_queries: int,
        flat: FlatLipp | None = None,
        nodes: tuple = NO_VISITS,
        leaves: tuple = NO_VISITS,
    ) -> None:
        """Count the batch's queries and credit a flat sweep's visits.

        Per-node ``access_count`` gains each node's visit count —
        aggregate-equivalent to per-query ``record_path``.  Called by
        :meth:`lookup_many` and by the router's forest sweep.
        """
        self.tracker.total_queries += n_queries
        if flat is not None:
            flat.credit_access(nodes, leaves)

    def key_level(self, key: int) -> int:
        key = int(key)
        node = self._root
        levels = 1
        while True:
            if isinstance(node, FlattenedNode):
                found, __, __steps = node.lookup(key)
                if found:
                    return levels
                raise IndexStateError(f"key {key} is not stored in this SALI index")
            slot = node.slot_of(key)
            kind = int(node.slot_type[slot])
            if kind == SLOT_CHILD:
                node = node.children[slot]
                levels += 1
                continue
            if kind == SLOT_DATA and int(node.slot_keys[slot]) == key:
                return levels
            raise IndexStateError(f"key {key} is not stored in this SALI index")

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        key = int(key)
        value = int(value)
        node = self._root
        path: list[LippNode] = []
        while True:
            if isinstance(node, FlattenedNode):
                before = node.n_subtree_keys
                node.insert(key, value)
                if node.n_subtree_keys > before:
                    for visited in path:
                        visited.n_subtree_keys += 1
                return
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
        if kind == SLOT_DATA:
            node.make_conflict_child(slot, key, value, self._slot_factor)
            self.invalidate_flat()
            for visited in path:
                visited.conflicts_since_build += 1
            self._maybe_rebuild([n for n in path if isinstance(n, LippNode)])
        else:
            node.slot_type[slot] = SLOT_DATA
            node.slot_keys[slot] = key
            node.slot_values[slot] = value

    # Bulk ingest is inherited from LippIndex: `bulk_insert_many`'s
    # recursive sorted-merge (`_bulk_into`) duck-types non-LippNode
    # leaves, so batches landing in a flattened subtree merge into its
    # dense arrays and rebuild it *as a flattened node* — one
    # re-segmentation per touched flat leaf, preserving SALI's
    # adaptation instead of per-key `FlattenedNode.insert` rebuilds.

    # ------------------------------------------------------------------
    # SALI's own adaptation: flattening hot subtrees
    # ------------------------------------------------------------------
    def flatten_hot_subtrees(self, min_probability: float = 0.05) -> int:
        """Flatten subtrees whose access probability exceeds the bound.

        Walks top-down; once a subtree is flattened its descendants are
        gone, so nested candidates resolve to the shallowest hot node.
        The root is never flattened (that would degenerate to one big
        PGM node).  Returns the number of subtrees flattened.
        """
        flattened = 0
        stack: list[LippNode] = []
        if isinstance(self._root, LippNode):
            stack.append(self._root)
        while stack:
            node = stack.pop()
            for slot, child in list(node.children.items()):
                if not isinstance(child, LippNode):
                    continue
                if child.has_subtree and self.tracker.is_hot(child, min_probability):
                    keys, values = child.collect_arrays()
                    flat = FlattenedNode(keys, values, child.level, self._flatten_epsilon)
                    flat.parent = node
                    flat.parent_slot = slot
                    node.children[slot] = flat
                    flattened += 1
                else:
                    stack.append(child)
        if flattened:
            self.invalidate_flat()
        return flattened

    def flattened_nodes(self) -> list[FlattenedNode]:
        """Every flattened node currently in the structure."""
        return [n for n in self._root.walk() if isinstance(n, FlattenedNode)]

    # ------------------------------------------------------------------
    # Structure metrics (flattened nodes accounted separately)
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Resident bytes: LIPP's flat accounting + flattened leaves.

        LIPP nodes are charged header + slots + model + CSR offset
        exactly as in :meth:`LippIndex.size_bytes`; flattened leaves
        report their dense arrays and PLA segments through
        :meth:`~repro.indexes.sali.flatten.FlattenedNode.leaf_size_bytes`.
        """
        flat = self._flat_view()
        if flat is not None:
            total = flat.n_nodes * (NODE_HEADER_BYTES + MODEL_BYTES + OFFSET_BYTES)
            total += flat.total_slots * SLOT_BYTES
            total += flat.child_slot_count() * POINTER_BYTES
            return total + sum(leaf.leaf_size_bytes() for leaf in flat.window_leaves)
        total = 0
        for node in self._root.walk():
            if isinstance(node, FlattenedNode):
                total += node.leaf_size_bytes()
            else:
                total += NODE_HEADER_BYTES + MODEL_BYTES + OFFSET_BYTES
                total += node.m * SLOT_BYTES
                total += len(node.children) * POINTER_BYTES
        return total

    def iter_keys(self) -> Iterator[int]:
        for key, __ in self._root.iter_entries():
            yield key

    # ------------------------------------------------------------------
    # Range queries (flattening-aware)
    # ------------------------------------------------------------------
    def range_query(self, low: int, high: int) -> list[tuple[int, int]]:
        """All (key, value) pairs with ``low <= key <= high``.

        Same in-order bounded walk as LIPP, except flattened subtrees —
        whose entries are dense sorted arrays — are answered with a
        single ``searchsorted`` slice instead of entry-by-entry
        iteration.  Returns True from the helper once a key above
        *high* is seen, which cuts the remainder of the walk.
        """
        low = int(low)
        high = int(high)
        out: list[tuple[int, int]] = []

        def scan(node) -> bool:
            if isinstance(node, FlattenedNode):
                lo = int(np.searchsorted(node.keys, low, side="left"))
                hi = int(np.searchsorted(node.keys, high, side="right"))
                out.extend(zip(node.keys[lo:hi].tolist(), node.values[lo:hi].tolist()))
                return hi < int(node.keys.size)
            for slot in range(node.m):
                kind = int(node.slot_type[slot])
                if kind == SLOT_DATA:
                    key = int(node.slot_keys[slot])
                    if key > high:
                        return True
                    if key >= low:
                        out.append((key, int(node.slot_values[slot])))
                elif kind == SLOT_CHILD:
                    if scan(node.children[slot]):
                        return True
            return False

        scan(self._root)
        return out
