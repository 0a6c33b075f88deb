"""The router's shared flat forest over LIPP/SALI shards.

A router whose shards all have flat views answers a batch with one
sweep over a forest laid out from every shard, each key starting at
its shard's root.  These tests hold that sweep to three references:

* each shard's own ``lookup_many`` (found / values / levels /
  search_steps, plus SALI's access accounting), run on a copy of the
  shard that compiles a standalone view;
* a plain ``dict`` of everything inserted;
* a standalone compile's structure reports (``size_bytes``,
  ``level_histogram``, ``empty_slot_fraction``).

and check that the forest never holds a second copy of the slots:
every node's slot arrays are views into the one set of forest buffers.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.indexes import INDEX_FAMILIES
from repro.indexes.base import attach_from_buffers
from repro.indexes.lipp.flat import FlatLipp
from repro.indexes.lipp.node import SLOT_DATA
from repro.obs.metrics import MetricsRegistry, scoped_registry
from repro.serving import IndexService

FAMILIES = ["lipp", "sali"]

KEY = st.integers(min_value=0, max_value=1 << 40)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(KEY, min_size=1, max_size=60)),
        st.tuples(st.just("lookup"), st.lists(KEY, max_size=40)),
        st.tuples(st.just("replace"), st.integers(0, 7), st.booleans()),
        st.tuples(st.just("flatten"), st.integers(0, 7)),
        st.tuples(st.just("flush")),
    ),
    max_size=10,
)


def _standalone_copy(shard):
    """An independent copy of *shard* that compiles its own view."""
    return None if shard is None else attach_from_buffers(*shard.export_buffers())


def _access_counts(shard) -> list[int]:
    return sorted(node.access_count for node in shard.root.walk())


def _check_forest(service: IndexService, oracle: dict[int, int], probes: list[int]) -> None:
    router = service.router
    stored = sorted(oracle)
    q = np.asarray(probes + stored[:: max(1, len(stored) // 50)], dtype=np.int64)
    copies = [_standalone_copy(s) for s in router.shards]

    fused = router.lookup_many(q).gathered
    shard_ids = router.shard_of(q)
    for shard_no, (shard, copy) in enumerate(zip(router.shards, copies)):
        sel = shard_ids == shard_no
        if shard is None:
            assert not fused.found[sel].any()
            assert not fused.levels[sel].any()
            continue
        if sel.any():
            own = copy.lookup_many(q[sel])
            assert np.array_equal(fused.found[sel], own.found)
            assert np.array_equal(fused.values[sel], own.values)
            assert np.array_equal(fused.levels[sel], own.levels)
            assert np.array_equal(fused.search_steps[sel], own.search_steps)
        if shard.tracks_access:
            assert shard.tracker.total_queries == copy.tracker.total_queries
            assert _access_counts(shard) == _access_counts(copy)
        assert shard.size_bytes() == copy.size_bytes()
        assert shard.level_histogram() == copy.level_histogram()
        assert shard.empty_slot_fraction() == copy.empty_slot_fraction()

    # One set of buffers; every node's slots are views into it.
    windows = [s.compiled_flat for s in router.shards if s is not None]
    if windows:
        buffers = windows[0]
        for window in windows:
            assert window.slot_keys is buffers.slot_keys
            for node in window.nodes[window.node_lo : window.node_hi]:
                for name in ("slot_type", "slot_keys", "slot_values"):
                    assert np.shares_memory(getattr(node, name), getattr(buffers, name))

    served = service.lookup_many(q)
    expected_found = np.asarray([int(k) in oracle for k in q.tolist()], dtype=bool)
    assert np.array_equal(served.found, expected_found)
    assert served.values[served.found].tolist() == [oracle[int(k)] for k in q[served.found]]


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    raw=st.lists(KEY, min_size=1, max_size=300),
    k=st.sampled_from([1, 3, 8]),
    background=st.booleans(),
    script=ops,
)
def test_fused_lookups_match_shards_and_dict(family, raw, k, background, script):
    keys = np.unique(np.asarray(raw, dtype=np.int64))
    values = keys * 3 + 1
    oracle = dict(zip(keys.tolist(), values.tolist()))
    service = IndexService.build(
        keys, family=family, n_shards=k, values=values, background_merge=background
    )
    with service:
        _check_forest(service, oracle, [])
        for step, op in enumerate(script):
            if op[0] == "insert":
                new = np.asarray(op[1], dtype=np.int64)
                vals = new * 5 + step
                service.insert_many(new, vals)
                oracle.update(zip(new.tolist(), vals.tolist()))
            elif op[0] == "replace":
                shard_no = op[1] % k
                shard = service.router.shards[shard_no]
                if shard is None:
                    continue
                pairs = shard.range_query(0, 1 << 62)
                fresh = INDEX_FAMILIES[family].build(
                    np.asarray([p[0] for p in pairs], dtype=np.int64),
                    np.asarray([p[1] for p in pairs], dtype=np.int64),
                )
                if op[2]:
                    fresh.prewarm_flat()
                service.router.replace_shard(shard_no, fresh)
            elif op[0] == "flatten":
                shard = service.router.shards[op[1] % k]
                if shard is not None and family == "sali":
                    shard.flatten_hot_subtrees(0.01)
            elif op[0] == "flush":
                service.flush()
            service.drain()
            if op[0] == "lookup":
                _check_forest(service, oracle, op[1])
        _check_forest(service, oracle, [])


def _service(family: str = "lipp", n: int = 20_000, k: int = 8) -> tuple[np.ndarray, IndexService]:
    keys = np.unique(np.random.default_rng(3).integers(0, 1 << 40, n))
    return keys, IndexService.build(keys, family=family, n_shards=k)


def test_merge_recompiles_only_the_merged_shard():
    keys, service = _service()
    with service, scoped_registry(MetricsRegistry(enabled=True)) as reg:
        service.lookup_many(keys[::100])  # lay the forest out
        counter = "flat_compiles_total{family=lipp}"
        assert reg.counters()[counter] == 8
        nodes_before = [list(s.root.walk()) for s in service.router.shards]
        # Enough colliding writes into shard 2 to cross the staleness
        # threshold, with conflict children (a structural change).
        lo, hi = service.router.boundaries[1], service.router.boundaries[2]
        target = keys[(keys >= lo) & (keys < hi)]
        service.insert_many(target[: target.size // 5 + 2] + 1)
        assert service.stats.merges == 1
        assert reg.counters()[counter] == 9
        # The merge itself re-laid the forest, before any lookup.
        buffers = service.router.shards[0].compiled_flat.slot_keys
        for shard_no, shard in enumerate(service.router.shards):
            assert shard.compiled_flat.slot_keys is buffers
            if shard_no != 2:
                # Unchanged shards: the same node objects, re-pointed.
                same = list(shard.root.walk())
                assert len(same) == len(nodes_before[shard_no])
                assert all(a is b for a, b in zip(same, nodes_before[shard_no]))
                assert all(np.shares_memory(n.slot_keys, buffers) for n in same)
        got = service.lookup_many(keys)
        assert got.found.all()
        assert reg.counters()[counter] == 9


def test_flattened_leaves_survive_relay(clustered_keys):
    keys = clustered_keys
    values = keys * 3 + 1
    oracle = dict(zip(keys.tolist(), values.tolist()))
    service = IndexService.build(keys, family="sali", n_shards=4, values=values)
    with service:
        rng = np.random.default_rng(9)
        service.lookup_many(rng.choice(keys, 4000))
        for shard in service.router.shards:
            shard.flatten_hot_subtrees(0.01)
        _check_forest(service, oracle, [])
        assert sum(1 for s in service.router.shards if s.flattened_nodes()) >= 3
        # Shard 0 comes back without its flattened leaves: every other
        # shard's tree is copied in at a shifted leaf offset.
        pairs = service.router.shards[0].range_query(0, 1 << 62)
        fresh = INDEX_FAMILIES["sali"].build(
            np.asarray([p[0] for p in pairs]), np.asarray([p[1] for p in pairs])
        )
        service.router.replace_shard(0, fresh)
        _check_forest(service, oracle, rng.integers(0, 1 << 40, 50).tolist())


def test_racing_first_router_lookups_lay_one_forest(run_together):
    keys = np.unique(np.random.default_rng(4).integers(0, 1 << 40, 20_000))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for __ in range(5):
            service = IndexService.build(keys, family="lipp", n_shards=8)
            with service:
                # Per-shard compiles (size_bytes) race the forest's.
                calls = [lambda: service.lookup_many(keys[::20]), service.size_bytes] * 2
                run_together(len(calls), lambda: calls.pop()())
                _check_one_owner(service, keys)
    finally:
        sys.setswitchinterval(switch)


def _check_one_owner(service: IndexService, keys: np.ndarray) -> None:
    """Every node writes where the published windows read."""
    buffers = service.router.shards[0].compiled_flat.slot_values
    for shard in service.router.shards:
        window = shard.compiled_flat
        assert window.slot_values is buffers
        nodes = window.nodes[window.node_lo : window.node_hi]
        assert all(node.slot_values.base is buffers for node in nodes)
    probe = keys[::37]
    for shard in service.router.shards:
        for key in probe.tolist():
            if shard.lookup_stats(key).found:
                shard.insert(key, -7)  # in-place overwrite
    assert (service.lookup_many(probe).values == -7).all()


def test_unmapped_conflict_child_falls_back_and_relays():
    keys, service = _service(k=4)
    with service, scoped_registry(MetricsRegistry(enabled=True)) as reg:
        service.lookup_many(keys)
        shard = service.router.shards[2]
        root = shard.root
        slot = int(np.flatnonzero(root.slot_type == SLOT_DATA)[0])
        old = int(root.slot_keys[slot])
        new = next(k for k in range(old + 1, old + 10_000) if root.slot_of(k) == slot)
        # Structural surgery through the node API, no invalidate_flat.
        root.make_conflict_child(slot, new, 5)
        q = np.concatenate([keys[::11], [old, new]])
        got = service.router.lookup_many(q).gathered
        assert got.found.all()
        assert got.values[-2:].tolist() == [old, 5]
        assert reg.counters()["flat_stale_retries_total{family=lipp}"] == 1
        again = service.router.lookup_many(q).gathered
        assert np.array_equal(again.values, got.values)
        assert np.array_equal(again.levels, got.levels)


def test_readers_sweep_the_old_forest_while_a_merge_relays(monkeypatch):
    keys = np.unique(np.random.default_rng(3).integers(0, 1 << 40, 20_000))
    service = IndexService.build(keys, family="lipp", n_shards=4, background_merge=True)
    relaying, resume = threading.Event(), threading.Event()
    repoint = FlatLipp._repoint

    def held_repoint(flat, nodes, n0):
        # Hold the merge thread's forest re-lay after its first tree
        # is re-pointed at the new buffers.
        repoint(flat, nodes, n0)
        if n0 > 0 and threading.current_thread().name == "merge":
            relaying.set()
            assert resume.wait(60)

    with service:
        service.lookup_many(keys)  # lay the forest out
        monkeypatch.setattr(FlatLipp, "_repoint", held_repoint)
        lo, hi = service.router.boundaries[0], service.router.boundaries[1]
        target = keys[(keys >= lo) & (keys < hi)]
        new = target[: target.size // 5 + 2] + 1
        service.insert_many(new, new * 7)
        try:
            assert relaying.wait(60)
            results = []
            reader = threading.Thread(
                target=lambda: results.append(service.lookup_many(np.concatenate([keys, new])))
            )
            reader.start()
            # The reader must not wait for the re-lay to finish.
            reader.join(30)
            assert not reader.is_alive()
        finally:
            resume.set()
        service.drain()
        (got,) = results
        assert got.found.all()
        assert np.array_equal(got.values[keys.size :], new * 7)
        assert service.stats.merges == 1
        after = service.lookup_many(np.concatenate([keys, new]))
        assert after.found.all()
        assert np.array_equal(after.values, got.values)
        _check_one_owner(service, keys)


def test_empty_batch_never_reaches_the_router():
    keys, service = _service(k=4)
    with service, scoped_registry(MetricsRegistry(enabled=True)) as reg:
        got = service.lookup_many(np.empty(0, dtype=np.int64))
        assert got.found.size == 0
        assert "router_batches_total" not in reg.counters()
        assert service.router.shards[0].compiled_flat is None
