import os
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

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


def _peak_bytes(fn, *args):
    """The most bytes ``fn(*args)`` held at once, as ``tracemalloc`` sees
    them: numpy buffers and Python objects, from any thread.  The resident
    size cannot stand in: glibc keeps the heap at its high-water mark for the
    whole process (see :mod:`fasthebb.tensor`)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn, *args)``: the most bytes the call held at once."""
    return _peak_bytes


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_env(**blas):
    """An environment for a fresh interpreter that imports this checkout's
    fasthebb, with none of the variables OpenBLAS reads its thread count from
    set except those given in ``blas``."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    src = str(Path(tc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env | blas


@pytest.fixture
def fresh_env():
    """``fresh_env(OPENBLAS_NUM_THREADS="2")``: see :func:`_fresh_env`."""
    return _fresh_env
