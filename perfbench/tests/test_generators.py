import json

import numpy as np

from perfbench import workloads
from perfbench.workloads import lib_batches, mixed_requests, small_requests

KEYS = np.unique(np.random.default_rng(0).integers(1_000, 5_000_000, size=5_000)).astype(np.int64)


def _bodies(requests):
    return [(r.kind, r.path, r.body) for r in requests]


def test_generators_are_deterministic_for_a_seed():
    assert _bodies(small_requests(KEYS, 7, 1, 50)) == _bodies(small_requests(KEYS, 7, 1, 50))
    assert _bodies(small_requests(KEYS, 7, 1, 50)) != _bodies(small_requests(KEYS, 8, 1, 50))
    assert _bodies(mixed_requests(KEYS, 7, (400,))) == _bodies(mixed_requests(KEYS, 7, (400,)))
    assert _bodies(mixed_requests(KEYS, 7, (400,))) != _bodies(mixed_requests(KEYS, 8, (400,)))
    a, b = lib_batches(KEYS, 7, 1, 3), lib_batches(KEYS, 7, 1, 3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_mixed_schedule_has_the_stated_mix_and_only_new_insert_keys():
    reqs = mixed_requests(KEYS, 3, (100, 300))
    kinds = [r.kind for r in reqs]
    assert (kinds.count("lookup"), kinds.count("insert"), kinds.count("range")) == (280, 100, 20)
    inserted = [k for r in reqs if r.kind == "insert" for k in r.data[0]]
    assert len(inserted) == len(set(inserted)) == 100 * workloads.MIXED_INSERT_KEYS
    assert not np.isin(inserted, KEYS).any()
    assert KEYS[0] <= min(inserted) and max(inserted) <= KEYS[-1]
    for r in reqs:
        body = json.loads(r.body)
        if r.kind == "lookup":
            assert len(body["keys"]) == workloads.MIXED_LOOKUP_KEYS
        elif r.kind == "range":
            lo, hi = np.searchsorted(KEYS, [body["low"], body["high"]])
            assert hi - lo + 1 == workloads.MIXED_RANGE_SPAN
    assert [r.kind for r in reqs[:100]].count("insert") == 25


def test_mixed_lookups_read_only_keys_inserted_at_least_three_requests_earlier():
    reqs = mixed_requests(KEYS, 5, (400,))
    inserted_at = {k: i for i, r in enumerate(reqs) if r.kind == "insert" for k in r.data[0]}
    base = set(KEYS.tolist())
    recent = 0
    for i, r in enumerate(reqs):
        if r.kind != "lookup":
            continue
        for key in r.data:
            assert key in base or inserted_at[key] <= i - 3
            recent += key not in base
    assert recent > 0
