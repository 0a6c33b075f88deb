"""The answer oracle: a plain ``dict`` plus the sorted base key array.

It shares no code with the program under test.  The base keys come
from ``repro.datasets.load`` and carry their own key as value (the
library's documented default when ``build`` gets no values); every
insert the benchmark makes is recorded here with its explicit value.

Writes race reads on a second connection, so an insert that has been
sent but not acknowledged when a read is *sent* may or may not be
visible to that read.  Such keys are "pending": a read may report
them either way, but if it reports them found, the value must match.
"""

from __future__ import annotations

import bisect

import numpy as np


class Oracle:
    def __init__(self, base_keys: np.ndarray):
        self.base = np.asarray(base_keys, dtype=np.int64)
        self.inserted: dict[int, int] = {}
        #: Sorted keys of ``inserted``, for range checks.
        self._inserted_sorted: list[int] = []
        self.pending: dict[int, int] = {}

    # -- writes --------------------------------------------------------
    def is_base(self, keys: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.base, keys)
        pos = np.minimum(pos, self.base.size - 1)
        return self.base[pos] == keys

    def insert_sent(self, keys, values) -> None:
        self.pending.update(zip(keys, values))

    def insert_acked(self, keys, values) -> None:
        for key, value in zip(keys, values):
            self.pending.pop(key, None)
            if key not in self.inserted:
                bisect.insort(self._inserted_sorted, key)
            self.inserted[key] = value

    def pending_snapshot(self) -> dict[int, int]:
        """Inserts in flight right now (call when a read is sent)."""
        return dict(self.pending)

    def n_live_keys(self) -> int:
        return int(self.base.size) + len(self.inserted)

    # -- reads ---------------------------------------------------------
    def expected(self, key: int) -> int | None:
        """Value *key* must map to, or None when it must be absent."""
        if key in self.inserted:
            return self.inserted[key]
        pos = int(np.searchsorted(self.base, key))
        if pos < self.base.size and int(self.base[pos]) == key:
            return key
        return None

    def lookup_ok(self, keys, found, values, pending: dict[int, int] | None = None) -> bool:
        """True when every ``(found, value)`` answer for *keys* is right."""
        pending = pending or {}
        for key, hit, value in zip(keys, found, values):
            want = self.expected(key)
            if want is None and key in pending:
                if hit and value != pending[key]:
                    return False
                continue
            if want is None:
                if hit:
                    return False
            elif not hit or value != want:
                return False
        return True

    def base_lookup_ok(self, keys: np.ndarray, found: np.ndarray, values: np.ndarray) -> bool:
        """Vectorised :meth:`lookup_ok` for keys drawn from the base set."""
        if not bool(np.all(self.is_base(keys))):
            raise ValueError("base_lookup_ok needs keys from the base set")
        return bool(np.all(found)) and bool(np.array_equal(values, keys))

    def range_ok(self, low: int, high: int, pairs, pending: dict[int, int] | None = None) -> bool:
        """True when *pairs* is exactly the live ``[low, high]`` content."""
        pending = pending or {}
        lo = int(np.searchsorted(self.base, low, side="left"))
        hi = int(np.searchsorted(self.base, high, side="right"))
        want = {int(k): int(k) for k in self.base[lo:hi]}
        i = bisect.bisect_left(self._inserted_sorted, low)
        j = bisect.bisect_right(self._inserted_sorted, high)
        for key in self._inserted_sorted[i:j]:
            want[key] = self.inserted[key]
        got_keys = [int(p[0]) for p in pairs]
        if got_keys != sorted(set(got_keys)):
            return False
        for key, value in pairs:
            key, value = int(key), int(value)
            if key in want:
                if want.pop(key) != value:
                    return False
            elif pending.get(key) != value or not low <= key <= high:
                return False
        return not want
