"""Instruments: counters, gauges, and the mergeable log-bucket histogram."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.obs.metrics import (
    HIST_SUBBUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metric_key,
    observe_grouped,
    scoped_registry,
    set_registry,
)

#: One relative bucket width — the histogram's percentile tolerance.
BUCKET_WIDTH = 2.0 ** (1.0 / HIST_SUBBUCKETS)


def test_counter_and_gauge():
    c = Counter()
    c.inc()
    c.inc(41)
    assert c.value == 42
    g = Gauge()
    g.set(7)
    g.inc(3)
    g.dec()
    assert g.value == 9.0


def test_metric_key_sorts_labels():
    assert metric_key("m") == "m"
    assert metric_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"


def test_histogram_moments_are_exact(rng):
    values = rng.exponential(250.0, 5000)
    h = Histogram()
    h.observe_array(values)
    assert h.count == values.size
    assert h.sum == pytest.approx(float(values.sum()))
    assert h.mean == pytest.approx(float(values.mean()))
    assert h.min == pytest.approx(float(values.min()))
    assert h.max == pytest.approx(float(values.max()))


@pytest.mark.parametrize("q", [50, 90, 99])
@pytest.mark.parametrize(
    "sample",
    ["exponential", "lognormal", "uniform", "bimodal"],
)
def test_histogram_percentiles_within_bucket_tolerance(rng, q, sample):
    """The regression contract replacing the decimated sample list:

    every percentile estimate is within one relative bucket width
    (``2**(1/4) ~ 1.19x``) of the exact ``np.percentile`` order
    statistic.
    """
    if sample == "exponential":
        values = rng.exponential(120.0, 20_000)
    elif sample == "lognormal":
        values = rng.lognormal(5.0, 1.5, 20_000)
    elif sample == "uniform":
        values = rng.uniform(10.0, 1e6, 20_000)
    else:
        # Unequal modes keep each tested rank inside a mode; at an exact
        # mode boundary np.percentile interpolates between modes, where
        # no sample (and no bucket) exists.
        values = np.concatenate(
            [rng.normal(100.0, 5.0, 12_000), rng.normal(9000.0, 100.0, 8_000)]
        )
    values = np.abs(values) + 1e-9
    h = Histogram()
    h.observe_array(values)
    exact = float(np.percentile(values, q))
    estimate = h.percentile(q)
    assert exact / BUCKET_WIDTH <= estimate <= exact * BUCKET_WIDTH


def test_histogram_percentiles_monotone(rng):
    h = Histogram()
    h.observe_array(rng.exponential(50.0, 3000))
    p50, p90, p99 = h.percentiles([50, 90, 99])
    assert p50 <= p90 <= p99


def test_histogram_scalar_and_array_paths_agree(rng):
    values = rng.exponential(80.0, 500)
    a, b = Histogram(), Histogram()
    a.observe_array(values)
    for v in values:
        b.observe(float(v))
    assert np.array_equal(a.bucket_counts(), b.bucket_counts())
    assert a.count == b.count
    assert a.sum == pytest.approx(b.sum)


def test_merge_equals_observing_the_whole(rng):
    """Merging per-shard histograms == one histogram over all samples —
    the property that makes per-shard percentiles aggregable."""
    shards = [rng.exponential(s * 40.0 + 20.0, 4000) for s in range(4)]
    whole = Histogram()
    whole.observe_array(np.concatenate(shards))
    merged = Histogram()
    for sample in shards:
        part = Histogram()
        part.observe_array(sample)
        merged.merge(part)
    assert np.array_equal(merged.bucket_counts(), whole.bucket_counts())
    assert merged.count == whole.count
    assert merged.sum == pytest.approx(whole.sum)
    for q in (50, 90, 99):
        assert merged.percentile(q) == pytest.approx(whole.percentile(q))


def test_snapshot_roundtrip(rng):
    h = Histogram()
    h.observe_array(rng.exponential(100.0, 2000))
    snap = h.snapshot()
    assert snap["count"] == 2000
    assert sum(snap["buckets"].values()) == 2000
    back = Histogram.from_snapshot(snap)
    assert np.array_equal(back.bucket_counts(), h.bucket_counts())
    assert back.percentile(99) == pytest.approx(h.percentile(99))
    # Rebuilt snapshots merge like live histograms (cross-process case).
    other = Histogram()
    other.observe_array(rng.exponential(100.0, 1000))
    back.merge(other)
    assert back.count == 3000


def test_histogram_nonpositive_and_extreme_values():
    h = Histogram()
    h.observe(0.0)
    h.observe(-5.0)
    h.observe(1e30)  # beyond the top edge: clamps, never raises
    assert h.count == 3
    assert h.percentile(50) >= 0.0


def test_histogram_thread_safety(rng):
    values = rng.exponential(10.0, 2000)
    h = Histogram()
    threads = [
        threading.Thread(target=h.observe_array, args=(values,)) for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert h.count == 8 * values.size
    assert int(h.bucket_counts().sum()) == h.count


def test_registry_get_or_create_and_labels():
    reg = MetricsRegistry()
    c1 = reg.counter("hits", shard=0)
    c2 = reg.counter("hits", shard=0)
    c3 = reg.counter("hits", shard=1)
    assert c1 is c2 and c1 is not c3
    c1.inc(5)
    assert reg.counters() == {"hits{shard=0}": 5, "hits{shard=1}": 0}


def test_register_histogram_overwrites():
    reg = MetricsRegistry()
    first, second = Histogram(), Histogram()
    reg.register_histogram("lat", first, shard=0)
    reg.register_histogram("lat", second, shard=0)
    assert reg.histograms()["lat{shard=0}"] is second


def test_global_registry_swap_and_scoping():
    baseline = get_registry()
    assert baseline.enabled is False  # disabled out of the box
    mine = MetricsRegistry(enabled=True)
    with scoped_registry(mine) as reg:
        assert get_registry() is reg is mine
    assert get_registry() is baseline
    previous = set_registry(mine)
    try:
        assert previous is baseline
        assert get_registry() is mine
    finally:
        set_registry(baseline)


def test_registry_reset():
    reg = MetricsRegistry()
    reg.counter("a").inc()
    reg.histogram("h").observe(1.0)
    reg.reset()
    assert reg.counters() == {}
    assert reg.histograms() == {}


def test_observe_grouped_equals_per_group_observe_array():
    rng = np.random.default_rng(5)
    groups = rng.integers(0, 6, 3000)
    groups[groups == 4] = 5  # group 4 stays untouched
    values = np.concatenate([rng.lognormal(5, 2, 2990), [0.0, -3.0, 1e-9, 1e12] * 2, [7, 7]])
    grouped = [Histogram() for _ in range(6)]
    single = [Histogram() for _ in range(6)]
    observe_grouped(grouped, groups, values)
    for g in range(6):
        single[g].observe_array(values[groups == g])
    for a, b in zip(grouped, single):
        assert np.array_equal(a._counts, b._counts)
        assert a.count == b.count
        assert a.sum == pytest.approx(b.sum, rel=1e-12)
        assert (a.min, a.max) == (b.min, b.max)
    assert grouped[4].count == 0 and grouped[4].min == float("inf")
