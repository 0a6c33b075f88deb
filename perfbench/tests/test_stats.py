from perfbench.stats import percentile, samples_beyond, tail_percentile


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(reversed(samples), 90) == 90


def test_tail_percentile_picks_the_highest_with_ten_samples_beyond():
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert samples_beyond(1000, 99) == 10
    assert tail_percentile(list(range(999)))[0] == 90.0
    assert tail_percentile(list(range(10_000)))[0] == 99.9
    assert tail_percentile(list(range(10_000)), at_most=99)[0] == 99.0
    assert tail_percentile(list(range(15)))[0] == 50.0


def test_tail_percentile_value_matches_percentile():
    samples = [float(i) for i in range(2000)]
    p, value = tail_percentile(samples, at_most=99)
    assert (p, value) == (99.0, percentile(samples, 99))
