import multiprocessing
import os

import pytest

from bruhatkit import forcing, posets, tables

CPUS = 4


@pytest.fixture(autouse=True)
def cold_scan_caches():
    """Clear the verdict cache, the rank tables and the orbit-extreme
    flags before each test, so that a test that calls ``forces_factor``
    compares a real scan, not a verdict an earlier test left behind, a
    test that reads a rank table sees only the rows it filled itself,
    and one that counts orbit filters sees its own."""
    forcing._level.cache_clear()
    tables.rank_table.cache_clear()
    posets._extremes.cache_clear()


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool of ``posets._fan_out`` by one that runs
    ``imap`` in this process and starts no process.  Returns the list of
    pools made; each records its ``max_workers`` and the (lo, hi) ranges
    it ran.  The CPU count reads as ``CPUS``, so the cap and the ranges
    do not depend on the machine."""
    pools = []

    class InlinePool:
        def __init__(self, processes):
            self.max_workers = processes
            self.ranges = []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, iterable):
            for bounds in iterable:
                self.ranges.append(bounds)
                yield fn(bounds)

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: CPUS)
    return pools
