from contextlib import contextmanager

import pytest

from fasthebb import tensor as tc


@contextmanager
def _pool_of(workers):
    """The process's pool is a fresh one of ``workers`` workers inside the
    block; afterwards it is shut down, if the block made it, and the previous
    pool is back."""
    saved = tc._pool_workers, tc._pool, tc._pool_pid
    tc._pool_workers, tc._pool, tc._pool_pid = (lambda: workers), None, -1
    try:
        yield
    finally:
        if tc._pool is not None:
            tc._pool[0].shutdown()
        tc._pool_workers, tc._pool, tc._pool_pid = saved


@pytest.fixture
def pool_of():
    """``with pool_of(k):`` runs its block on a fresh pool of k workers."""
    return _pool_of


@pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
def pool_workers(request):
    """A fresh pool of ``request.param`` workers, shut down afterwards."""
    with _pool_of(request.param):
        yield request.param
