"""Level-ordered flat (struct-of-arrays) view of a forest of LIPP/SALI trees.

The node-object representation (:class:`~repro.indexes.lipp.node.
LippNode`) is ideal for mutation but terrible for batch traversal: the
grouped frontier sweep pays a Python dispatch per visited node, and a
LIPP tree built at slot factor 1.0 has *thousands* of two-key conflict
children, so batch lookups were structure-bound at ~1.5x over the
scalar loop while every array-backed index family enjoyed 10-850x.

:class:`FlatLipp` compiles one or more trees into contiguous arrays.
Each tree owns a contiguous node, slot and leaf range, laid out in BFS
order (so within a tree each level occupies one contiguous id range):

* per node: ``node_level``, the model coefficients ``node_a`` /
  ``node_b`` / ``node_c`` / ``node_pivot`` (quadratic form with
  ``a = 0`` for the ubiquitous linear models, evaluated as
  ``(a*t + b)*t + c`` with ``t = key - pivot`` so linear predictions
  are bit-identical to :meth:`LinearModel.predict`), and the CSR-style
  ``slot_start`` offsets mapping node ``i`` to its slot range
  ``[slot_start[i], slot_start[i+1])`` (``node_last`` caches each
  node's last local slot as the clamp bound);
* per slot (concatenated in node order): ``slot_type`` /
  ``slot_keys`` / ``slot_values`` exactly as in the nodes, plus
  ``slot_child`` holding the child *node id* for CHILD slots (or an
  encoded index into :attr:`leaves` when the child is one of SALI's
  flattened subtrees);
* per tree: ``tree_node_start`` / ``tree_leaf_start`` offsets; a
  tree's root is the first node of its range.

A batch lookup is then a few vectorised gathers per level over the
whole surviving frontier — predict slots for every active query at
once, resolve DATA/EMPTY terminals with array compares, and route
CHILD survivors down by assigning their next node ids — instead of a
Python-object walk per node.  Each query may start at a different
tree's root, so one sweep answers a batch spread over many shards
(:class:`~repro.serving.router.ShardRouter`).  The same ``locate``
sweep drives the in-place gapped bulk merge in
:meth:`~repro.indexes.lipp.index.LippIndex.bulk_insert_many`.

**Windows.**  :meth:`FlatLipp.window` returns one tree's view of a
forest: it shares every array and list with the forest, and its
introspection helpers, ``lookup_many_into`` and ``locate`` default to
that tree's range and root.  A single-tree compile is its own window.

**Buffer sharing.**  ``compile`` does not keep a second copy of the
slots: as it lays a tree out it re-points every node's
``slot_type`` / ``slot_keys`` / ``slot_values`` at views into the
forest buffers, so each node's slots have exactly one owner.  The node
objects remain the authoritative mutable structure, and any in-place
slot write (an EMPTY slot filled by ``insert``, a DATA value
overwritten) is immediately visible to the flat view with no
invalidation.  Only *structural* changes — a conflict child created,
a subtree rebuilt, a hot subtree flattened — stale the compiled
mapping; the index invalidates and lazily recompiles.  A tree already
laid out in an earlier view is copied range-wise, ids shifted, instead
of being walked again.  ``StaleFlatError`` is the safety net for
structural edits that bypass the index API (tests performing direct
tree surgery must call ``invalidate_flat``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...core.linear_model import LinearModel, QuadraticModel
from ..base import group_runs
from .node import SLOT_CHILD, SLOT_DATA, SLOT_EMPTY, LippNode

__all__ = ["FlatLipp", "StaleFlatError"]

#: ``slot_child`` encoding: ``>= 0`` is a node id, ``NO_CHILD`` marks a
#: non-CHILD slot, and ``<= FLAT_LEAF_BASE`` encodes flattened-leaf
#: index ``FLAT_LEAF_BASE - value``.
NO_CHILD = -1
FLAT_LEAF_BASE = -2

#: The :meth:`FlatLipp.tally` of no visits.
NO_VISITS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


class StaleFlatError(RuntimeError):
    """The compiled flat view no longer matches the node tree.

    Raised when a sweep follows a CHILD slot with no compiled mapping.
    Outputs may already be partly written; callers zero them,
    invalidate, recompile and retry.  *slot* is the offending global
    slot index.
    """

    def __init__(self, slot: int):
        super().__init__(f"flat view is stale: unmapped CHILD slot {slot}")
        self.slot = slot


def _leaf_like(node) -> bool:
    """Whether *node* is a flattened leaf (duck-typed, non-LippNode)."""
    return not isinstance(node, LippNode)


def _walk(root):
    """``(nodes, leaves, n_slots)`` of one tree in BFS order, or None
    when it cannot be represented (a leaf root, or a model neither
    linear nor quadratic).

    Children are appended strictly after their parents, in slot order,
    so node ids are level-ordered and each level is contiguous;
    :meth:`FlatLipp._lay_tree` replays the same numbering.
    """
    if _leaf_like(root):
        return None
    nodes = [root]
    leaves: list = []
    n_slots = 0
    head = 0
    while head < len(nodes):
        node = nodes[head]
        head += 1
        if not isinstance(node.model, (LinearModel, QuadraticModel)):
            return None
        n_slots += node.slot_type.size
        for __, child in sorted(node.children.items()):
            (leaves if _leaf_like(child) else nodes).append(child)
    return nodes, leaves, n_slots


class FlatLipp:
    """Compiled slot arrays over a forest of LIPP/SALI trees, or one
    tree's window onto them."""

    #: What a forest shares with its windows.
    _SHARED = (
        "nodes",
        "leaves",
        "node_level",
        "node_a",
        "node_b",
        "node_c",
        "node_pivot",
        "node_last",
        "slot_start",
        "slot_type",
        "slot_keys",
        "slot_values",
        "slot_child",
        "tree_node_start",
        "tree_leaf_start",
    )
    #: Plus the range this object answers for: a whole forest, or one
    #: tree's window.
    __slots__ = _SHARED + ("node_lo", "node_hi", "slot_lo", "slot_hi", "leaf_lo", "leaf_hi")

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @classmethod
    def compile(cls, sources: Sequence) -> "FlatLipp | None":
        """Lay out one tree per source into one set of shared arrays.

        A source is either a tree root, compiled by walking its nodes,
        or a :class:`FlatLipp` window compiled earlier, whose ranges
        are copied with ids shifted.  Either way the tree's nodes are
        re-pointed at the new buffers as soon as its slots are copied,
        so a node-owned or standalone buffer is released tree by tree.

        Returns None when some root cannot be represented (a
        non-LippNode root, or a node model that is neither linear nor
        quadratic) — callers fall back to the node-object sweep.
        Nothing is re-pointed in that case.
        """
        trees = []
        for src in sources:
            if isinstance(src, FlatLipp):
                trees.append(src)
            else:
                walked = _walk(src)
                if walked is None:
                    return None
                trees.append(walked)
        sizes = [
            (t.n_nodes, t.total_slots, t.leaf_hi - t.leaf_lo)
            if isinstance(t, FlatLipp)
            else (len(t[0]), t[2], len(t[1]))
            for t in trees
        ]
        n_nodes = sum(s[0] for s in sizes)
        n_slots = sum(s[1] for s in sizes)
        flat = cls.__new__(cls)
        flat.nodes = []
        flat.leaves = []
        flat.node_level = np.empty(n_nodes, dtype=np.int64)
        flat.node_a = np.empty(n_nodes, dtype=np.float64)
        flat.node_b = np.empty(n_nodes, dtype=np.float64)
        flat.node_c = np.empty(n_nodes, dtype=np.float64)
        flat.node_pivot = np.empty(n_nodes, dtype=np.int64)
        flat.slot_start = np.empty(n_nodes + 1, dtype=np.int64)
        # np.empty: pages are only committed as trees are copied in.
        flat.slot_type = np.empty(n_slots, dtype=np.uint8)
        flat.slot_keys = np.empty(n_slots, dtype=np.int64)
        flat.slot_values = np.empty(n_slots, dtype=np.int64)
        flat.slot_child = np.empty(n_slots, dtype=np.int64)
        flat.tree_node_start = np.zeros(len(trees) + 1, dtype=np.int64)
        flat.tree_leaf_start = np.zeros(len(trees) + 1, dtype=np.int64)
        n0 = s0 = l0 = 0
        for t, (tree, (k, w, n_leaves)) in enumerate(zip(trees, sizes)):
            if isinstance(tree, FlatLipp):
                nodes = flat._copy_tree(tree, n0, s0, l0)
            else:
                nodes = flat._lay_tree(tree, n0, s0, l0)
            flat.slot_start[n0 + k] = s0 + w
            flat._repoint(nodes, n0)
            n0 += k
            s0 += w
            l0 += n_leaves
            flat.tree_node_start[t + 1] = n0
            flat.tree_leaf_start[t + 1] = l0
        flat.slot_start[n_nodes] = n_slots
        flat.node_last = (np.diff(flat.slot_start) - 1).astype(np.float64)
        flat.node_lo, flat.node_hi = 0, n_nodes
        flat.slot_lo, flat.slot_hi = 0, n_slots
        flat.leaf_lo, flat.leaf_hi = 0, l0
        return flat

    def _lay_tree(self, walked, n0: int, s0: int, l0: int) -> list:
        """Copy a walked tree's nodes in at node/slot/leaf offsets."""
        nodes, leaves, w = walked
        k = len(nodes)
        ns = slice(n0, n0 + k)
        self.node_level[ns] = [node.level for node in nodes]
        self.node_pivot[ns] = [node.model.pivot for node in nodes]
        coef = [
            (m.a, m.b, m.c) if isinstance(m, QuadraticModel) else (0.0, m.slope, m.intercept)
            for m in (node.model for node in nodes)
        ]
        self.node_a[ns], self.node_b[ns], self.node_c[ns] = zip(*coef)
        sizes = np.fromiter((node.slot_type.size for node in nodes), dtype=np.int64, count=k)
        starts = np.cumsum(sizes) - sizes
        self.slot_start[ns] = starts + s0
        np.concatenate([n.slot_type for n in nodes], out=self.slot_type[s0 : s0 + w])
        np.concatenate([n.slot_keys for n in nodes], out=self.slot_keys[s0 : s0 + w])
        np.concatenate([n.slot_values for n in nodes], out=self.slot_values[s0 : s0 + w])
        # Replay _walk's BFS numbering to map each CHILD slot.
        pos: list[int] = []
        code: list[int] = []
        next_node = n0 + 1
        next_leaf = FLAT_LEAF_BASE - l0
        for node, base in zip(nodes, starts.tolist()):
            for slot, child in sorted(node.children.items()):
                pos.append(base + slot)
                if _leaf_like(child):
                    code.append(next_leaf)
                    next_leaf -= 1
                else:
                    code.append(next_node)
                    next_node += 1
        child = self.slot_child[s0 : s0 + w]
        child.fill(NO_CHILD)
        child[pos] = code
        self.nodes.extend(nodes)
        self.leaves.extend(leaves)
        return nodes

    def _copy_tree(self, src: "FlatLipp", n0: int, s0: int, l0: int) -> list:
        """Copy *src*'s tree range in at node/slot/leaf offsets."""
        nodes = src.nodes[src.node_lo : src.node_hi]
        k = len(nodes)
        w = src.total_slots
        ns = slice(src.node_lo, src.node_hi)
        ss = slice(src.slot_lo, src.slot_hi)
        self.node_level[n0 : n0 + k] = src.node_level[ns]
        self.node_a[n0 : n0 + k] = src.node_a[ns]
        self.node_b[n0 : n0 + k] = src.node_b[ns]
        self.node_c[n0 : n0 + k] = src.node_c[ns]
        self.node_pivot[n0 : n0 + k] = src.node_pivot[ns]
        self.slot_start[n0 : n0 + k] = src.slot_start[ns] + (s0 - src.slot_lo)
        self.slot_type[s0 : s0 + w] = src.slot_type[ss]
        self.slot_keys[s0 : s0 + w] = src.slot_keys[ss]
        self.slot_values[s0 : s0 + w] = src.slot_values[ss]
        child = self.slot_child[s0 : s0 + w]
        child[:] = src.slot_child[ss]
        if n0 != src.node_lo:
            child[child >= 0] += n0 - src.node_lo
        if l0 != src.leaf_lo:
            child[child <= FLAT_LEAF_BASE] -= l0 - src.leaf_lo
        self.nodes.extend(nodes)
        self.leaves.extend(src.leaves[src.leaf_lo : src.leaf_hi])
        return nodes

    def _repoint(self, nodes: list, n0: int) -> None:
        """Point each node's slot arrays at its range of the buffers."""
        bounds = self.slot_start[n0 : n0 + len(nodes) + 1].tolist()
        st, sk, sv = self.slot_type, self.slot_keys, self.slot_values
        for node, lo, hi in zip(nodes, bounds, bounds[1:]):
            node.slot_type = st[lo:hi]
            node.slot_keys = sk[lo:hi]
            node.slot_values = sv[lo:hi]

    def release(self) -> None:
        """Give nodes that still view these superseded buffers private copies.

        Call once a newer compile has re-pointed every live node
        elsewhere: what still views these buffers was detached from
        its tree (a rebuilt subtree, a replaced shard).  Parent
        pointers make such nodes cyclic garbage that only a full
        collection frees, and one view pins all of a forest's buffers
        until then.
        """
        keys = self.slot_keys
        for node in self.nodes:
            if node.slot_keys.base is keys:
                node.slot_type = node.slot_type.copy()
                node.slot_keys = node.slot_keys.copy()
                node.slot_values = node.slot_values.copy()

    def window(self, tree: int) -> "FlatLipp":
        """Tree *tree*'s view: shared arrays, that tree's ranges."""
        if self.n_trees == 1:
            return self
        view = FlatLipp.__new__(FlatLipp)
        for name in self._SHARED:
            setattr(view, name, getattr(self, name))
        view.node_lo = int(self.tree_node_start[tree])
        view.node_hi = int(self.tree_node_start[tree + 1])
        view.slot_lo = int(self.slot_start[view.node_lo])
        view.slot_hi = int(self.slot_start[view.node_hi])
        view.leaf_lo = int(self.tree_leaf_start[tree])
        view.leaf_hi = int(self.tree_leaf_start[tree + 1])
        return view

    # ------------------------------------------------------------------
    @property
    def n_trees(self) -> int:
        """Trees laid out in the shared arrays."""
        return int(self.tree_node_start.size) - 1

    @property
    def root(self) -> int:
        """Node id of this view's root (the first node of its range)."""
        return self.node_lo

    @property
    def n_nodes(self) -> int:
        """Number of (non-leaf) LIPP nodes in this view."""
        return self.node_hi - self.node_lo

    @property
    def total_slots(self) -> int:
        """Total slot count across this view's nodes."""
        return self.slot_hi - self.slot_lo

    @property
    def window_leaves(self) -> list:
        """The flattened leaves of this view."""
        return self.leaves[self.leaf_lo : self.leaf_hi]

    def _predict_slots(self, ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Global slot index each node model assigns to its query key."""
        t = (keys - self.node_pivot[ids]).astype(np.float64)
        pos = (self.node_a[ids] * t + self.node_b[ids]) * t + self.node_c[ids]
        # Clamp in float space before rounding: identical result to the
        # scalar round-then-clamp (bounds are integers and rounding is
        # monotone) without int64 overflow on wild extrapolations.
        pos = np.rint(np.clip(pos, 0.0, self.node_last[ids])).astype(np.int64)
        return self.slot_start[ids] + pos

    def _start(self, n: int, start: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Initial ``(active, cur)``: every query at this view's root, or
        each at its own start node (negative entries skip the query)."""
        if start is None:
            return np.arange(n), np.full(n, self.node_lo, dtype=np.int64)
        active = np.flatnonzero(start >= 0)
        return active, start[active]

    @staticmethod
    def _leaf_or_stale(nxt: np.ndarray, c_slots: np.ndarray) -> np.ndarray | None:
        """Mask of followed children that are flattened leaves (None if
        there are none); raises on a CHILD slot with no mapping — a
        conflict child created behind the view."""
        if not nxt.size or nxt.min() >= 0:
            return None
        stale = nxt == NO_CHILD
        if np.any(stale):
            raise StaleFlatError(int(c_slots[np.argmax(stale)]))
        return nxt <= FLAT_LEAF_BASE

    # ------------------------------------------------------------------
    # Batched traversal
    # ------------------------------------------------------------------
    def lookup_many_into(
        self,
        q: np.ndarray,
        found: np.ndarray,
        values: np.ndarray,
        levels: np.ndarray,
        steps: np.ndarray,
        visits: list | None = None,
        leaf_visits: list | None = None,
        start: np.ndarray | None = None,
    ) -> None:
        """Vectorised multi-level lookup sweep, scattered into outputs.

        All four output arrays parallel *q*.  Every query starts at
        this view's root, or with *start* at its own node id (a
        forest sweep starts each key at its shard's root; negative
        entries leave the query untouched).  With *visits* (a list)
        the node ids each level visits are appended — tallied
        (:meth:`tally`) and credited (:meth:`credit_access`), the
        aggregate equivalent of SALI's per-query ``record_path``;
        *leaf_visits* does the same for flattened leaves.  Raises
        :class:`StaleFlatError` when a query follows an unmapped CHILD
        slot; outputs may then be partly written.
        """
        active, cur = self._start(q.size, start)
        depth = 1
        while active.size:
            if visits is not None:
                visits.append(cur)
            keys = q[active]
            gslot = self._predict_slots(cur, keys)
            kinds = self.slot_type[gslot]
            is_child = kinds == SLOT_CHILD
            # Only DATA slots can hit, whatever key an EMPTY or CHILD
            # slot still holds.
            hit = (kinds == SLOT_DATA) & (self.slot_keys[gslot] == keys)
            hit_active = active[hit]
            found[hit_active] = True
            values[hit_active] = self.slot_values[gslot[hit]]
            levels[active[~is_child]] = depth
            active = active[is_child]
            c_slots = gslot[is_child]
            nxt = self.slot_child[c_slots]
            leaf_sel = self._leaf_or_stale(nxt, c_slots)
            if leaf_sel is not None:
                l_active = active[leaf_sel]
                l_ids = FLAT_LEAF_BASE - nxt[leaf_sel]
                levels[l_active] = depth + 1
                if leaf_visits is not None:
                    leaf_visits.append(l_ids)
                for group in group_runs(l_ids):
                    leaf = self.leaves[int(l_ids[group[0]])]
                    sel = l_active[group]
                    g_found, g_values, g_steps = leaf.lookup_batch(q[sel])
                    found[sel] = g_found
                    values[sel] = g_values
                    steps[sel] = g_steps
                keep = ~leaf_sel
                active = active[keep]
                nxt = nxt[keep]
            cur = nxt
            depth += 1

    def locate(
        self, bkeys: np.ndarray, start: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Terminal position of each key: ``(node, gslot, kind, leaf)``.

        The same per-level sweep as :meth:`lookup_many_into` (and the
        same *start* convention), but it returns where each key's
        descent *ends* instead of resolving hits: ``node[i]`` /
        ``gslot[i]`` / ``kind[i]`` identify the terminal node id,
        global slot and slot type, or ``leaf[i]`` (else -1) the
        flattened leaf the key routed into.  This is the addressing
        pass of the in-place gapped bulk merge.
        """
        n = int(bkeys.size)
        term_node = np.full(n, -1, dtype=np.int64)
        term_slot = np.full(n, -1, dtype=np.int64)
        term_kind = np.full(n, -1, dtype=np.int64)
        leaf_of = np.full(n, -1, dtype=np.int64)
        active, cur = self._start(n, start)
        while active.size:
            gslot = self._predict_slots(cur, bkeys[active])
            kinds = self.slot_type[gslot]
            is_child = kinds == SLOT_CHILD
            terminal = ~is_child
            if np.any(terminal):
                t_active = active[terminal]
                term_node[t_active] = cur[terminal]
                term_slot[t_active] = gslot[terminal]
                term_kind[t_active] = kinds[terminal]
            active = active[is_child]
            c_slots = gslot[is_child]
            nxt = self.slot_child[c_slots]
            leaf_sel = self._leaf_or_stale(nxt, c_slots)
            if leaf_sel is not None:
                leaf_of[active[leaf_sel]] = FLAT_LEAF_BASE - nxt[leaf_sel]
                keep = ~leaf_sel
                active = active[keep]
                nxt = nxt[keep]
            cur = nxt
        return term_node, term_slot, term_kind, leaf_of

    @staticmethod
    def tally(visits: list) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, counts)`` of a sweep's visit list, ids ascending."""
        if not visits:
            return NO_VISITS
        return np.unique(np.concatenate(visits), return_counts=True)

    def tally_by_tree(self, visits: list, leaf_visits: list) -> list[tuple[tuple, tuple]]:
        """Per tree, the ``(node, leaf)`` tallies of a forest sweep's
        visits — one :meth:`tally` each, split at the tree offsets."""
        nodes, leaves = self.tally(visits), self.tally(leaf_visits)
        n_cut = np.searchsorted(nodes[0], self.tree_node_start).tolist()
        l_cut = np.searchsorted(leaves[0], self.tree_leaf_start).tolist()
        return [
            ((nodes[0][a:b], nodes[1][a:b]), (leaves[0][c:d], leaves[1][c:d]))
            for a, b, c, d in zip(n_cut, n_cut[1:], l_cut, l_cut[1:])
        ]

    def credit_access(self, nodes: tuple, leaves: tuple) -> None:
        """Add tallied visits (:meth:`tally`) onto the node objects.

        Keeps the node tree the single source of truth for SALI's
        access statistics (``AccessTracker`` reads ``access_count``
        off the objects when picking flattening targets)."""
        for (ids, counts), objs in ((nodes, self.nodes), (leaves, self.leaves)):
            for i, c in zip(ids.tolist(), counts.tolist()):
                objs[i].access_count += c

    # ------------------------------------------------------------------
    # Vectorised structural introspection (this view's ranges only)
    # ------------------------------------------------------------------
    def _data_slot_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(global DATA slot indexes, owning node id per slot)."""
        data_slots = np.flatnonzero(self.slot_type[self.slot_lo : self.slot_hi] == SLOT_DATA)
        data_slots += self.slot_lo
        starts = self.slot_start[self.node_lo : self.node_hi + 1]
        node_of = np.searchsorted(starts, data_slots, side="right") - 1 + self.node_lo
        return data_slots, node_of

    def level_histogram(self) -> dict[int, int]:
        """Keys stored per level — one bincount over the DATA slots."""
        __, node_of = self._data_slot_nodes()
        leaves = self.window_leaves
        max_level = int(self.node_level[self.node_lo : self.node_hi].max(initial=0))
        for leaf in leaves:
            max_level = max(max_level, int(leaf.level))
        counts = np.bincount(self.node_level[node_of], minlength=max_level + 1)
        for leaf in leaves:
            counts[int(leaf.level)] += int(leaf.keys.size)
        return {int(lvl): int(c) for lvl, c in enumerate(counts) if c}

    def keys_at_or_below(self, level: int) -> np.ndarray:
        """Sorted keys stored at *level* or deeper — masked gathers."""
        data_slots, node_of = self._data_slot_nodes()
        deep = self.node_level[node_of] >= level
        parts = [self.slot_keys[data_slots[deep]]]
        parts.extend(leaf.keys for leaf in self.window_leaves if leaf.level >= level)
        return np.sort(np.concatenate(parts))

    def node_levels(self) -> list[int]:
        """Level of every node (leaves included), unordered."""
        own = self.node_level[self.node_lo : self.node_hi].tolist()
        return own + [int(leaf.level) for leaf in self.window_leaves]

    def height(self) -> int:
        """Deepest level of any node or flattened leaf."""
        deepest = int(self.node_level[self.node_lo : self.node_hi].max(initial=1))
        for leaf in self.window_leaves:
            deepest = max(deepest, int(leaf.level))
        return deepest

    def empty_and_total_slots(self) -> tuple[int, int]:
        """(EMPTY slots, total slots) with flattened leaves' dense
        entries counted as fully occupied slots."""
        own = self.slot_type[self.slot_lo : self.slot_hi]
        empty = int(np.count_nonzero(own == SLOT_EMPTY))
        total = self.total_slots + sum(int(leaf.keys.size) for leaf in self.window_leaves)
        return empty, total

    def child_slot_count(self) -> int:
        """CHILD slots across this view's nodes (= child pointers stored)."""
        own = self.slot_type[self.slot_lo : self.slot_hi]
        return int(np.count_nonzero(own == SLOT_CHILD))
