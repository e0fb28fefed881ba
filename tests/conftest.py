"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every ProcessPoolExecutor made, in order.

    The pool is a stand-in that maps in this process, so no worker is forked.
    """
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes
