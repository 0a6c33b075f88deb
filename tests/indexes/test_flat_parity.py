"""Property-based flat-vs-node parity for LIPP/SALI.

The flat level-ordered representation (:mod:`repro.indexes.lipp.flat`)
must be observationally identical to the node-object oracle
(``use_flat=False``) for every query the index answers.  Hypothesis
drives the comparison across random key distributions, duplicates,
inserts, sparse and dense bulk merges, CSV-smoothed builds and SALI's
hot-subtree flattening.

Parity contract:

* ``lookup_many`` — exact per-key stats parity (found / value / level /
  search_steps) for any build + ``insert`` history, and for CSV-smoothed
  trees (quadratic models);
* ``bulk_insert_many`` — *content* parity (same sorted key set, same
  values, same total key count).  The physical layouts legitimately
  diverge: the flat path runs the in-place gapped merge while the
  oracle sorted-merge-rebuilds whole subtrees, and rebuilt subtrees
  reset their conflict counters;
* ``range_query`` and the structural introspection helpers — exact
  parity on identical (non-bulk-diverged) trees.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.csv_algorithm import CsvConfig, apply_csv
from repro.datasets import load
from repro.indexes.adapters import adapter_for
from repro.indexes.lipp.index import LippIndex
from repro.indexes.lipp.node import SLOT_DATA
from repro.indexes.sali.index import SaliIndex
from repro.obs.metrics import MetricsRegistry, scoped_registry

INDEX_CLASSES = [LippIndex, SaliIndex]

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

key_lists = st.lists(
    st.integers(min_value=0, max_value=1 << 44), min_size=2, max_size=400
)


def _build_pair(cls, raw_keys):
    keys = np.unique(np.asarray(raw_keys, dtype=np.int64))
    values = np.arange(keys.size, dtype=np.int64) * 3
    return keys, cls.build(keys, values), cls.build(keys, values, use_flat=False)


def _assert_stats_parity(flat_stats, oracle_stats):
    assert np.array_equal(flat_stats.found, oracle_stats.found)
    assert np.array_equal(
        flat_stats.values[flat_stats.found], oracle_stats.values[oracle_stats.found]
    )
    assert np.array_equal(flat_stats.levels, oracle_stats.levels)
    assert np.array_equal(flat_stats.search_steps, oracle_stats.search_steps)


def _assert_content_parity(flat_index, oracle_index):
    flat_keys = np.fromiter(flat_index.iter_keys(), dtype=np.int64)
    oracle_keys = np.fromiter(oracle_index.iter_keys(), dtype=np.int64)
    assert np.array_equal(flat_keys, oracle_keys)
    assert flat_index.n_keys == oracle_index.n_keys == flat_keys.size
    if flat_keys.size:
        fs = flat_index.lookup_many(flat_keys)
        os_ = oracle_index.lookup_many(oracle_keys)
        assert bool(np.all(fs.found))
        assert np.array_equal(fs.values, os_.values)


@pytest.mark.parametrize("cls", INDEX_CLASSES)
class TestLookupParity:
    @SETTINGS
    @given(raw=key_lists, probes=key_lists)
    def test_lookup_many_matches_oracle(self, cls, raw, probes):
        keys, flat, oracle = _build_pair(cls, raw)
        q = np.concatenate([keys, np.asarray(probes, dtype=np.int64)])
        _assert_stats_parity(flat.lookup_many(q), oracle.lookup_many(q))

    @SETTINGS
    @given(raw=key_lists)
    def test_batch_matches_scalar(self, cls, raw):
        keys, flat, __ = _build_pair(cls, raw)
        q = np.concatenate([keys, keys + 1])
        batch = flat.lookup_many(q)
        for j, key in enumerate(q.tolist()):
            scalar = flat.lookup_stats(key)
            assert scalar.found == bool(batch.found[j])
            if scalar.found:
                assert scalar.value == int(batch.values[j])
            assert scalar.levels == int(batch.levels[j])
            assert scalar.search_steps == int(batch.search_steps[j])

    @SETTINGS
    @given(raw=key_lists, extra=key_lists)
    def test_insert_history_parity(self, cls, raw, extra):
        keys, flat, oracle = _build_pair(cls, raw)
        for i, key in enumerate(extra):
            flat.insert(key, i)
            oracle.insert(key, i)
        q = np.concatenate([keys, np.asarray(extra, dtype=np.int64)])
        _assert_stats_parity(flat.lookup_many(q), oracle.lookup_many(q))
        _assert_content_parity(flat, oracle)


@pytest.mark.parametrize("cls", INDEX_CLASSES)
class TestBulkParity:
    @SETTINGS
    @given(raw=key_lists, batch=key_lists)
    def test_bulk_content_parity(self, cls, raw, batch):
        __, flat, oracle = _build_pair(cls, raw)
        bkeys = np.asarray(batch, dtype=np.int64)
        bvals = np.arange(bkeys.size, dtype=np.int64) + 10_000
        flat.bulk_insert_many(bkeys, bvals)
        oracle.bulk_insert_many(bkeys, bvals)
        _assert_content_parity(flat, oracle)

    @SETTINGS
    @given(raw=key_lists, b1=key_lists, b2=key_lists)
    def test_repeated_bulk_content_parity(self, cls, raw, b1, b2):
        __, flat, oracle = _build_pair(cls, raw)
        for i, batch in enumerate((b1, b2)):
            bkeys = np.asarray(batch, dtype=np.int64)
            bvals = np.full(bkeys.size, 77 + i, dtype=np.int64)
            flat.bulk_insert_many(bkeys, bvals)
            oracle.bulk_insert_many(bkeys, bvals)
        _assert_content_parity(flat, oracle)

    @SETTINGS
    @given(raw=key_lists)
    def test_bulk_duplicates_last_wins(self, cls, raw):
        keys, flat, oracle = _build_pair(cls, raw)
        # Re-insert every existing key (duplicate overwrite) plus its
        # successor (gap/conflict), duplicated within the batch.
        bkeys = np.concatenate([keys, keys, keys + 1])
        bvals = np.concatenate(
            [
                np.zeros(keys.size, dtype=np.int64),
                np.ones(keys.size, dtype=np.int64),
                np.full(keys.size, 2, dtype=np.int64),
            ]
        )
        flat.bulk_insert_many(bkeys, bvals)
        oracle.bulk_insert_many(bkeys, bvals)
        _assert_content_parity(flat, oracle)
        stats = flat.lookup_many(keys)
        # Last wins: an existing key k ends at 1 (second keys section),
        # unless k-1 is also stored — then k == (k-1) + 1 reappears in
        # the successor section, which comes last, and ends at 2.
        expected = np.where(np.isin(keys - 1, keys), 2, 1)
        assert np.array_equal(stats.values, expected)


@pytest.mark.parametrize("cls", INDEX_CLASSES)
class TestRangeAndIntrospectionParity:
    @SETTINGS
    @given(raw=key_lists, bounds=st.tuples(st.integers(0, 1 << 44), st.integers(0, 1 << 44)))
    def test_range_query_parity(self, cls, raw, bounds):
        __, flat, oracle = _build_pair(cls, raw)
        low, high = min(bounds), max(bounds)
        assert flat.range_query(low, high) == oracle.range_query(low, high)

    @SETTINGS
    @given(raw=key_lists)
    def test_introspection_parity(self, cls, raw):
        keys, flat, oracle = _build_pair(cls, raw)
        assert flat.level_histogram() == oracle.level_histogram()
        assert sum(flat.level_histogram().values()) == keys.size
        assert flat.height() == oracle.height()
        assert flat.node_count() == oracle.node_count()
        assert sorted(flat.node_levels()) == sorted(oracle.node_levels())
        assert flat.size_bytes() == oracle.size_bytes()
        assert flat.empty_slot_fraction() == pytest.approx(oracle.empty_slot_fraction())
        for level in (1, 2, 3):
            assert np.array_equal(
                flat.keys_at_or_below(level), oracle.keys_at_or_below(level)
            )


@pytest.mark.parametrize("cls", INDEX_CLASSES)
class TestCsvSmoothedParity:
    @SETTINGS
    @given(raw=st.lists(st.integers(0, 1 << 38), min_size=64, max_size=300))
    def test_smoothed_lookup_parity(self, cls, raw):
        keys, flat, oracle = _build_pair(cls, raw)
        apply_csv(adapter_for(flat), CsvConfig(alpha=0.2))
        apply_csv(adapter_for(oracle), CsvConfig(alpha=0.2))
        q = np.concatenate([keys, keys + 1])
        _assert_stats_parity(flat.lookup_many(q), oracle.lookup_many(q))
        assert flat.level_histogram() == oracle.level_histogram()
        assert flat.size_bytes() == oracle.size_bytes()


class TestSaliFlattenedParity:
    def _hot_pair(self, rng):
        keys = np.unique(rng.integers(0, 1 << 40, 3000))
        values = np.arange(keys.size, dtype=np.int64)
        flat = SaliIndex.build(keys, values)
        oracle = SaliIndex.build(keys, values, use_flat=False)
        hot = rng.choice(keys[: keys.size // 4], 6000)
        flat.lookup_many(hot)
        oracle.lookup_many(hot)
        assert flat.flatten_hot_subtrees(0.01) == oracle.flatten_hot_subtrees(0.01)
        return keys, hot, flat, oracle

    def test_flattened_lookup_parity(self):
        rng = np.random.default_rng(2024)
        keys, hot, flat, oracle = self._hot_pair(rng)
        assert len(flat.flattened_nodes()) > 0
        q = np.concatenate([keys, rng.integers(0, 1 << 40, 500)])
        _assert_stats_parity(flat.lookup_many(q), oracle.lookup_many(q))
        assert flat.size_bytes() == oracle.size_bytes()
        assert flat.empty_slot_fraction() == pytest.approx(oracle.empty_slot_fraction())

    def test_flattened_bulk_content_parity(self):
        rng = np.random.default_rng(2025)
        keys, __, flat, oracle = self._hot_pair(rng)
        bkeys = np.unique(rng.choice(keys[: keys.size // 4], 200) + 1)
        bvals = np.full(bkeys.size, 5, dtype=np.int64)
        flat.bulk_insert_many(bkeys, bvals)
        oracle.bulk_insert_many(bkeys, bvals)
        _assert_content_parity(flat, oracle)

    def test_access_tracking_parity(self):
        rng = np.random.default_rng(2026)
        keys, __, flat, oracle = self._hot_pair(rng)
        assert flat.tracker.total_queries == oracle.tracker.total_queries
        flat_counts = sorted(n.access_count for n in flat.root.walk())
        oracle_counts = sorted(n.access_count for n in oracle.root.walk())
        assert flat_counts == oracle_counts


class TestFlatCacheLifecycle:
    def test_direct_surgery_requires_invalidate(self):
        rng = np.random.default_rng(7)
        keys = np.unique(rng.integers(0, 1 << 40, 2000))
        index = LippIndex.build(keys)
        index.lookup_many(keys[:10])  # compile the view
        # Structural surgery through the public API invalidates and
        # recompiles transparently.
        index.insert(int(keys[0]) + 1, 1)
        stats = index.lookup_many(np.asarray([int(keys[0]) + 1], dtype=np.int64))
        assert bool(stats.found[0])

    def test_prewarm_is_idempotent(self):
        keys = np.arange(0, 5000, 3, dtype=np.int64)
        index = LippIndex.build(keys)
        index.prewarm_flat()
        view = index._flat_view()
        index.prewarm_flat()
        assert index._flat_view() is view
        index.invalidate_flat()
        assert index._flat_view() is not view

    def test_oracle_mode_never_compiles(self):
        keys = np.arange(0, 3000, 7, dtype=np.int64)
        index = LippIndex.build(keys, use_flat=False)
        index.lookup_many(keys)
        assert index._flat_view() is None

    def test_racing_first_lookups_publish_the_buffers_nodes_write(self, run_together):
        # Two threads making the first lookup at once used to both
        # compile and re-point the nodes, so the published view could
        # read buffers the nodes no longer wrote into.
        keys = load("facebook", 50_000)
        probe = keys[::97]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for __ in range(10):
                index = LippIndex.build(keys)
                run_together(4, lambda: index.lookup_many(keys[::50]))
                flat = index.compiled_flat
                assert all(node.slot_values.base is flat.slot_values for node in flat.nodes)
                for key in probe.tolist():
                    index.insert(key, -7)  # in-place overwrites through the nodes
                assert (index.lookup_many(probe).values == -7).all()
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("cls", INDEX_CLASSES)
    def test_unmapped_conflict_child_is_caught_on_its_path(self, cls):
        keys = np.arange(0, 300_000, 100, dtype=np.int64)
        index = cls.build(keys, keys * 2)
        index.lookup_many(keys)  # compile the view
        root = index.root
        slot = int(np.flatnonzero(root.slot_type == SLOT_DATA)[0])
        old = int(root.slot_keys[slot])
        new = next(
            k for k in range(old + 1, old + 100) if root.slot_of(k) == slot
        )
        # Structural surgery through the node API, no invalidate_flat.
        root.make_conflict_child(slot, new, 5)
        q = np.concatenate([keys[::7], [old, new]])
        with scoped_registry(MetricsRegistry(enabled=True)) as reg:
            got = index.lookup_many(q)
        assert got.found.all()
        assert np.array_equal(got.values, np.concatenate([keys[::7] * 2, [old * 2, 5]]))
        assert got.levels[-1] == got.levels[-2] == 2
        assert reg.counters()[f"flat_stale_retries_total{{family={cls.name}}}"] == 1
