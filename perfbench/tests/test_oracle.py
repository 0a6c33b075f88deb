import numpy as np

from perfbench.oracle import Oracle

BASE = np.arange(10, 200, 10, dtype=np.int64)  # 10, 20, ..., 190


def test_lookup_accepts_right_answers_and_rejects_an_injected_wrong_value():
    oracle = Oracle(BASE)
    oracle.insert_acked([15, 25], [7, 9])
    keys = [10, 15, 25, 17]
    found = [True, True, True, False]
    assert oracle.lookup_ok(keys, found, [10, 7, 9, 0])
    assert not oracle.lookup_ok(keys, found, [10, 7, 8, 0])  # wrong value
    assert not oracle.lookup_ok(keys, [True, True, False, False], [10, 7, 0, 0])  # lost insert
    assert not oracle.lookup_ok(keys, [True, True, True, True], [10, 7, 9, 17])  # phantom key


def test_base_lookup_rejects_an_injected_wrong_value():
    oracle = Oracle(BASE)
    keys = BASE[[0, 3, 5]]
    assert oracle.base_lookup_ok(keys, np.ones(3, bool), keys.copy())
    wrong = keys.copy()
    wrong[1] += 1
    assert not oracle.base_lookup_ok(keys, np.ones(3, bool), wrong)
    assert not oracle.base_lookup_ok(keys, np.array([True, False, True]), keys.copy())


def test_range_rejects_wrong_values_missing_and_extra_pairs():
    oracle = Oracle(BASE)
    oracle.insert_acked([35], [1])
    right = [[30, 30], [35, 1], [40, 40]]
    assert oracle.range_ok(30, 40, right)
    assert not oracle.range_ok(30, 40, [[30, 30], [35, 2], [40, 40]])
    assert not oracle.range_ok(30, 40, [[30, 30], [40, 40]])
    assert not oracle.range_ok(30, 40, right + [[41, 41]])
    assert not oracle.range_ok(30, 40, [right[1], right[0], right[2]])  # unsorted


def test_an_insert_in_flight_may_be_seen_either_way_but_only_with_its_value():
    oracle = Oracle(BASE)
    oracle.insert_sent([33], [5])
    pending = oracle.pending_snapshot()
    assert oracle.lookup_ok([33], [False], [0], pending)
    assert oracle.lookup_ok([33], [True], [5], pending)
    assert not oracle.lookup_ok([33], [True], [6], pending)
    assert oracle.range_ok(30, 40, [[30, 30], [33, 5], [40, 40]], pending)
    assert oracle.range_ok(30, 40, [[30, 30], [40, 40]], pending)
    oracle.insert_acked([33], [5])
    assert not oracle.lookup_ok([33], [False], [0], oracle.pending_snapshot())
