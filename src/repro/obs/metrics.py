"""Structured metrics: counters, gauges, and mergeable histograms.

The instruments here are deliberately dumb data holders — a
:class:`Counter` adds, a :class:`Gauge` stores, a :class:`Histogram`
bins — with *no* internal enabled/disabled state.  Whether a hot path
records anything at all is decided at the call site with one guard::

    reg = get_registry()
    if reg.enabled:                # the near-zero-cost no-op gate
        reg.counter("merges_total").inc()

so a disabled registry costs a single attribute load and branch per
instrumented block, allocates nothing, and cannot perturb results
(``tests/obs`` asserts bit-identical service output metrics-on vs
metrics-off).

Histogram layout
----------------

Every histogram shares one **fixed log-bucket layout**: bucket ``i``
covers ``[2**(i/S + E), 2**((i+1)/S + E))`` with ``S = 4`` sub-buckets
per octave and ``E = HIST_EXP_MIN`` octaves of underflow headroom.
Because the layout is a global constant, two histograms — from
different shards, threads, processes, or JSON-lines snapshots — merge
by summing their bucket-count arrays, which is what makes per-shard
p50/p90/p99 aggregable into service-wide percentiles without retaining
a single raw sample.  Relative bucket width is ``2**(1/4) ≈ 1.19``, so
any percentile estimate is within ~19% of the exact order statistic
(``tests/obs/test_metrics.py`` pins this against ``np.percentile``).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from .tracing import SpanRecord

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "observe_grouped",
    "get_registry",
    "set_registry",
    "scoped_registry",
    "metric_key",
]

#: Sub-buckets per octave (power of two).  Relative bucket width is
#: ``2**(1/HIST_SUBBUCKETS)``; 4 gives ~19% wide buckets.
HIST_SUBBUCKETS = 4
#: Smallest resolvable magnitude is ``2**HIST_EXP_MIN`` (~1e-6, enough
#: for sub-microsecond span durations in seconds); anything at or
#: below it lands in bucket 0.
HIST_EXP_MIN = -20
#: Largest resolvable magnitude is ``2**HIST_EXP_MAX`` (~1.7e13,
#: enough for simulated-ns totals); larger values clamp into the top
#: bucket.
HIST_EXP_MAX = 44
#: Total number of buckets in the fixed layout.
HIST_BUCKETS = (HIST_EXP_MAX - HIST_EXP_MIN) * HIST_SUBBUCKETS


def metric_key(name: str, labels: dict | None = None) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,...}`` (sorted by k)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count (float to allow key totals)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        """Add *n* (default 1) to the count."""
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: int | float) -> None:
        """Overwrite the gauge with *v*."""
        self.value = float(v)

    def inc(self, n: int | float = 1) -> None:
        """Add *n* (default 1) to the gauge."""
        self.value += n

    def dec(self, n: int | float = 1) -> None:
        """Subtract *n* (default 1) from the gauge."""
        self.value -= n


class Histogram:
    """Streaming log-bucket histogram with exact count/sum/min/max.

    See the module docstring for the fixed bucket layout.  All
    mutating operations take the instance lock so a background merge
    thread and the serving thread can share one histogram.
    """

    __slots__ = ("_counts", "count", "sum", "min", "max", "_lock")

    def __init__(self) -> None:
        self._counts = np.zeros(HIST_BUCKETS, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @staticmethod
    def bucket_of(value: float) -> int:
        """Bucket index of one value under the fixed layout."""
        if value <= 0.0 or not math.isfinite(value):
            return 0
        i = math.floor(math.log2(value) * HIST_SUBBUCKETS) - HIST_EXP_MIN * HIST_SUBBUCKETS
        return min(max(i, 0), HIST_BUCKETS - 1)

    @staticmethod
    def bucket_upper_edge(i: int) -> float:
        """Exclusive upper bound of bucket *i*."""
        return 2.0 ** ((i + 1) / HIST_SUBBUCKETS + HIST_EXP_MIN)

    @staticmethod
    def bucket_mid(i: int) -> float:
        """Geometric midpoint of bucket *i* (the percentile estimate)."""
        return 2.0 ** ((i + 0.5) / HIST_SUBBUCKETS + HIST_EXP_MIN)

    def observe(self, value: float) -> None:
        """Record one scalar observation."""
        value = float(value)
        with self._lock:
            self._counts[self.bucket_of(value)] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @staticmethod
    def buckets_of(values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`bucket_of` over a float64 array."""
        # Raising zero, negatives and NaN to the smallest resolvable
        # magnitude maps them to bucket 0 with no warning context.
        floor = np.fmax(values, 2.0**HIST_EXP_MIN)
        idx = np.floor(np.log2(floor) * HIST_SUBBUCKETS).astype(np.int64)
        return np.clip(idx - HIST_EXP_MIN * HIST_SUBBUCKETS, 0, HIST_BUCKETS - 1)

    def observe_array(self, values: np.ndarray) -> None:
        """Record a batch of observations in one vectorised pass."""
        v = np.asarray(values, dtype=np.float64)
        if v.size == 0:
            return
        binned = np.bincount(self.buckets_of(v), minlength=HIST_BUCKETS)
        self._fold(binned, int(v.size), float(v.sum()), float(v.min()), float(v.max()))

    def _fold(self, binned: np.ndarray, count: int, total: float, lo: float, hi: float) -> None:
        """Add pre-binned observations with their moments."""
        with self._lock:
            self._counts += binned
            self.count += count
            self.sum += total
            if lo < self.min:
                self.min = lo
            if hi > self.max:
                self.max = hi

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Exact arithmetic mean of every observation (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated *q*-th percentile (``0 <= q <= 100``).

        The estimate is the geometric midpoint of the bucket holding
        the target order statistic, clamped into the observed
        ``[min, max]`` — within one relative bucket width
        (``2**(1/4)``) of the exact value, and monotone in *q*.
        """
        with self._lock:
            if self.count == 0:
                return 0.0
            target = max(1, math.ceil(self.count * q / 100.0))
            cum = np.cumsum(self._counts)
            bucket = int(np.searchsorted(cum, target))
        return float(min(max(self.bucket_mid(bucket), self.min), self.max))

    def percentiles(self, qs: Iterable[float]) -> list[float]:
        """:meth:`percentile` for each *q* in *qs*."""
        return [self.percentile(q) for q in qs]

    # ------------------------------------------------------------------
    # Merging and snapshots
    # ------------------------------------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other* into this histogram (same fixed layout)."""
        with other._lock:
            counts = other._counts.copy()
            o_count, o_sum, o_min, o_max = other.count, other.sum, other.min, other.max
        with self._lock:
            self._counts += counts
            self.count += o_count
            self.sum += o_sum
            if o_min < self.min:
                self.min = o_min
            if o_max > self.max:
                self.max = o_max
        return self

    def snapshot(self) -> dict:
        """JSON-safe state: exact moments, percentiles, sparse buckets."""
        with self._lock:
            nonzero = np.nonzero(self._counts)[0]
            buckets = {int(i): int(self._counts[i]) for i in nonzero}
            count, total = self.count, self.sum
            lo = self.min if count else 0.0
            hi = self.max if count else 0.0
        snap = {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "buckets": {str(i): c for i, c in buckets.items()},
        }
        for q in (50, 90, 99):
            snap[f"p{q}"] = self.percentile(q)
        return snap

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`snapshot` output (mergeable)."""
        hist = cls()
        for raw, c in snap.get("buckets", {}).items():
            hist._counts[int(raw)] = int(c)
        hist.count = int(snap.get("count", 0))
        hist.sum = float(snap.get("sum", 0.0))
        if hist.count:
            hist.min = float(snap.get("min", 0.0))
            hist.max = float(snap.get("max", 0.0))
        return hist

    def bucket_counts(self) -> np.ndarray:
        """A copy of the full fixed-layout bucket-count array."""
        with self._lock:
            return self._counts.copy()


def observe_grouped(hists: Sequence[Histogram], groups: np.ndarray, values: np.ndarray) -> None:
    """Record ``values[i]`` into ``hists[groups[i]]`` for a whole batch.

    One bucketing pass and one ``bincount`` over
    ``group * HIST_BUCKETS + bucket`` replace a masked
    :meth:`Histogram.observe_array` per group; counts, sums, minima
    and maxima are then folded into each touched histogram.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return
    g = np.asarray(groups, dtype=np.int64)
    n = len(hists)
    binned = np.bincount(
        g * HIST_BUCKETS + Histogram.buckets_of(v), minlength=n * HIST_BUCKETS
    ).reshape(n, HIST_BUCKETS)
    counts = np.bincount(g, minlength=n)
    sums = np.bincount(g, weights=v, minlength=n)
    lo = np.full(n, math.inf)
    np.minimum.at(lo, g, v)
    hi = np.full(n, -math.inf)
    np.maximum.at(hi, g, v)
    for i in np.flatnonzero(counts).tolist():
        hists[i]._fold(binned[i], int(counts[i]), float(sums[i]), float(lo[i]), float(hi[i]))


class MetricsRegistry:
    """Named instruments plus the tracing ring buffer.

    One registry is one observability domain: the process-global
    default (see :func:`get_registry`) collects everything unless a
    component is handed its own.  ``enabled`` is the single no-op
    gate every instrumented hot path checks before touching an
    instrument; a disabled registry can still *hold* instruments
    (e.g. the service's always-on latency histograms register
    themselves so exporters can find them), it just tells call sites
    not to spend anything on optional accounting.
    """

    def __init__(
        self,
        enabled: bool = True,
        trace_capacity: int = 2048,
        trace_sample_every: int = 1,
    ) -> None:
        self.enabled = bool(enabled)
        #: Sample every N-th span (deterministic, 1 = every span).
        self.trace_sample_every = max(1, int(trace_sample_every))
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: deque = deque(maxlen=max(1, int(trace_capacity)))
        self._span_seq = 0
        self._snapshot_seq = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instrument access (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter named ``name{labels}``."""
        key = metric_key(name, labels)
        got = self._counters.get(key)
        if got is None:
            with self._lock:
                got = self._counters.setdefault(key, Counter())
        return got

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create the gauge named ``name{labels}``."""
        key = metric_key(name, labels)
        got = self._gauges.get(key)
        if got is None:
            with self._lock:
                got = self._gauges.setdefault(key, Gauge())
        return got

    def histogram(self, name: str, **labels) -> Histogram:
        """Get or create the histogram named ``name{labels}``."""
        key = metric_key(name, labels)
        got = self._histograms.get(key)
        if got is None:
            with self._lock:
                got = self._histograms.setdefault(key, Histogram())
        return got

    def register_histogram(self, name: str, hist: Histogram, **labels) -> Histogram:
        """Adopt an externally owned histogram under *name* (overwrites).

        The serving layer's always-on latency histograms live on the
        service but register here so exporters see them; the newest
        registrant wins the name.
        """
        with self._lock:
            self._histograms[metric_key(name, labels)] = hist
        return hist

    # ------------------------------------------------------------------
    # Tracing support (used by repro.obs.tracing)
    # ------------------------------------------------------------------
    def sample_span(self) -> bool:
        """Deterministic every-N sampler for spans."""
        self._span_seq += 1
        return self._span_seq % self.trace_sample_every == 0

    def record_span(self, record: "SpanRecord") -> None:
        """Retain *record* and feed its duration histogram."""
        self._spans.append(record)
        self.histogram("span_seconds", span=record.name).observe(record.duration_s)

    def spans(self) -> list:
        """The retained span records, oldest first."""
        return list(self._spans)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int | float]:
        """Current counter values by flat key (sorted)."""
        return {k: c.value for k, c in sorted(self._counters.items())}

    def gauges(self) -> dict[str, float]:
        """Current gauge values by flat key (sorted)."""
        return {k: g.value for k, g in sorted(self._gauges.items())}

    def histograms(self) -> dict[str, Histogram]:
        """The live histogram instruments by flat key (sorted)."""
        return dict(sorted(self._histograms.items()))

    def next_snapshot_seq(self) -> int:
        """The next strictly increasing snapshot sequence number."""
        with self._lock:
            self._snapshot_seq += 1
            return self._snapshot_seq

    def reset(self) -> None:
        """Drop every instrument and span (tests, fresh runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()
            self._span_seq = 0
            self._snapshot_seq = 0


#: Process-global default registry.  Disabled out of the box so
#: importing repro never pays for instrumentation; the serve CLI (or
#: an embedding application) swaps in an enabled registry.
_default_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-global registry instrumented code reports into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the global registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


class scoped_registry:
    """Context manager installing *registry* globally for a block.

    The benchmark harness and tests use this to flip instrumentation
    on/off without leaking state::

        with scoped_registry(MetricsRegistry(enabled=True)) as reg:
            service.lookup_many(queries)
        assert reg.counters()["service_lookups_total"] > 0
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc) -> None:
        assert self._previous is not None
        set_registry(self._previous)
