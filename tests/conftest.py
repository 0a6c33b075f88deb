"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.datasets import FIG2_TOY_KEYS


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def toy_keys() -> np.ndarray:
    """The 10-key running example of Fig. 2 (see datasets.synthetic)."""
    return FIG2_TOY_KEYS.copy()


@pytest.fixture()
def small_keys(rng: np.random.Generator) -> np.ndarray:
    """~300 unique sorted keys with mixed local density."""
    return np.unique(
        np.concatenate(
            [
                rng.integers(0, 5_000, 200),
                50_000 + rng.integers(0, 500, 120),
                (10**7 + rng.lognormal(5, 1.5, 150)).astype(np.int64),
            ]
        )
    )


@pytest.fixture()
def clustered_keys(rng: np.random.Generator) -> np.ndarray:
    """~3k keys in lognormal clusters (hard, deep-index shape)."""
    centers = rng.uniform(0, 2**38, 12)
    return np.unique(
        np.concatenate([(c + rng.lognormal(7, 1.8, 300)).astype(np.int64) for c in centers])
    )


def sorted_unique(rng: np.random.Generator, n: int, span: int) -> np.ndarray:
    """Helper used by hypothesis-free randomised tests."""
    return np.unique(rng.integers(0, span, n))


@pytest.fixture()
def run_together():
    """``run_together(n, fn)``: call *fn* on *n* threads released by
    one barrier, and require every thread to finish within a bound."""

    def run(n_threads: int, fn, timeout: float = 120.0) -> None:
        barrier = threading.Barrier(n_threads)

        def go():
            barrier.wait()
            fn()

        threads = [threading.Thread(target=go) for __ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
        assert not any(t.is_alive() for t in threads)

    return run
