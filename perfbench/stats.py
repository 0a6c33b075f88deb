"""Summary statistics shared by every workload."""

from __future__ import annotations

import math
import statistics

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A tail percentile is only reported when at least this many samples
#: lie beyond it; with fewer it is one or two outliers, not a tail.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the *p*-th percentile of *n* samples."""
    # The epsilon keeps float error from bumping an exact rank up by one.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(samples, p: float) -> float:
    """Nearest-rank *p*-th percentile of *samples* (need not be sorted)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of *n* samples lie strictly above the nearest-rank *p*-th."""
    return n - _rank(n, p)


def tail_percentile(samples, at_most: float = 99.9) -> tuple[float, float]:
    """``(p, value)`` for the highest ladder percentile ≤ *at_most* that
    has at least :data:`MIN_BEYOND` samples beyond it.

    Falls back to the median when even p90 is unsupported.
    """
    n = len(samples)
    chosen = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if p <= at_most and samples_beyond(n, p) >= MIN_BEYOND:
            chosen = p
    return chosen, percentile(samples, chosen)


def median(samples) -> float:
    return float(statistics.median(samples))


def mean(samples) -> float:
    return float(statistics.fmean(samples)) if samples else 0.0
