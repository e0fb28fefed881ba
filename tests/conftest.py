"""Fixtures shared by the test modules."""

import multiprocessing.pool

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """The processes of every multiprocessing.pool.Pool made, in order.

    The pool is a stand-in that maps in this process, in task order, so no
    worker is forked.
    """
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable):
            return list(map(fn, iterable))

    monkeypatch.setattr(multiprocessing.pool, "Pool", SerialPool)
    return sizes
