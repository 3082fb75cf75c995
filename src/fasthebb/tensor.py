"""Minimal dense tensor core: immutable float tensors (:class:`Tensor`), the
operations the kernels use, each keeping its operands' float dtype,
:class:`AllocationTracker`, and the per-process thread pool.

At import, glibc's allocator is told to keep freed memory for reuse
(:func:`_keep_freed_memory`) and OpenBLAS is pinned to one thread
(:func:`_one_blas_thread`); the pool's workers fill the other CPUs.
:func:`run_tasks` is the one way work reaches the pool, which takes only
work whose bits do not depend on the thread that runs it: copies, per-row
arithmetic, whole calls that fill their own output, and the rows of a
product in the ranges of :func:`gemm_ranges`, the one rule for where a
product is cut.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from functools import partial

import numpy as np

from .errors import ShapeMismatch, UsageError

__all__ = [
    "Tensor",
    "AllocationTracker",
    "matmul",
    "elementwise",
    "reduce_sum",
    "softmax",
    "tril_mask",
    "transpose",
    "reshape",
    "openblas_threads",
    "openblas_core",
    "SPLIT_GEMM_ABOVE",
    "GEMM_ROW_BLOCK",
    "ROW_BLOCK",
    "row_ranges",
    "gemm_ranges",
    "gemm_calls",
    "pool_workers",
    "run_tasks",
    "split_rows",
]

_TRACKERS: list["AllocationTracker"] = []
_TRACKERS_LOCK = threading.Lock()  # pool workers allocate concurrently

_M_TRIM_THRESHOLD = -1  # glibc mallopt parameters
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_memory() -> None:
    """Serve buffers up to 1 GiB from the heap, trim it only when 2 GiB are
    free, and keep one heap for all threads, so the next step on any thread
    reuses pages this one touched; does nothing without glibc's ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library (Windows), or not glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 1 << 30)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
    mallopt(_M_ARENA_MAX, 1)


_keep_freed_memory()


def _openblas():
    """The OpenBLAS that numpy loaded, or None when that library is not
    mapped into the process."""
    try:
        with open("/proc/self/maps") as fh:
            return ctypes.CDLL(next(line.split()[-1] for line in fh if "libscipy_openblas64_" in line))
    except (OSError, StopIteration):
        return None


def openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded, or None without that library."""
    try:
        handle = _openblas()
        get, set_ = handle.scipy_openblas_get_num_threads64_, handle.scipy_openblas_set_num_threads64_
    except AttributeError:  # no library, or not these functions
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


def openblas_core():
    """The name of the CPU core whose kernels the loaded OpenBLAS runs (such
    as ``SkylakeX``), or None without that library."""
    try:
        corename = _openblas().scipy_openblas_get_corename64_
    except AttributeError:
        return None
    corename.restype, corename.argtypes = ctypes.c_char_p, []
    return corename().decode()


def _one_blas_thread() -> None:
    """Pin the loaded OpenBLAS to one thread before any GEMM runs, unless one
    of the variables OpenBLAS reads its thread count from is set."""
    if not any(map(os.environ.get, ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))):
        threads = openblas_threads()
        if threads is not None:
            threads[1](1)


_one_blas_thread()


def _pool_workers() -> int:
    """The CPUs this process may use over the BLAS thread count, at least 1;
    1 when no OpenBLAS is found, since its thread count is then unknown."""
    threads = openblas_threads()
    if threads is None:
        return 1
    return max(1, len(os.sched_getaffinity(0)) // threads[0]())


_pool = None  # (ThreadPoolExecutor, its worker count) of process _pool_pid
_pool_pid = -1
_pool_lock = threading.Lock()
_this_thread = threading.local()  # ``inline`` is set on the pool's own threads, and on a caller running its run_tasks list


def _mark_pool_thread() -> None:
    _this_thread.inline = True


def _thread_pool():
    """The process's pool and its worker count, made on first use and again
    in a forked child, whose copy of the parent's pool has no threads and
    would never run."""
    global _pool, _pool_pid
    with _pool_lock:
        if _pool_pid != os.getpid():
            # imported here, so a process that never uses the pool never imports it
            from concurrent.futures import ThreadPoolExecutor

            workers = _pool_workers()
            pool = ThreadPoolExecutor(workers, thread_name_prefix="fasthebb", initializer=_mark_pool_thread)
            _pool, _pool_pid = (pool, workers), os.getpid()
        return _pool


def _pool_to_share():
    """The pool that may take part of a call's work and its worker count, or
    (None, 1) inline: on a pool worker, whose wait could deadlock the pool;
    inside a call of a :func:`run_tasks` list, whose other calls have the
    other CPUs; and with a one-worker pool."""
    if getattr(_this_thread, "inline", False):
        return None, 1
    pool, workers = _thread_pool()
    return (pool, workers) if workers > 1 else (None, 1)


# rows*N*K each range of a cut must exceed: at or below it OpenBLAS 0.3.31
# takes its small-matrix path, whose bits differ from one product's
SPLIT_GEMM_ABOVE = 100**3

# OpenBLAS 0.3.31 SkylakeX float64 GEMM row block: a range that starts
# elsewhere can round its last N % 8 columns differently
GEMM_ROW_BLOCK = 12

# rows per block that stay in cache, and that are worth handing to a worker
ROW_BLOCK = 1024


def row_ranges(count: int, parts: int, min_rows: int = 1) -> list[tuple[int, int]]:
    """``range(count)`` as at most ``parts`` consecutive ``(start, stop)``
    ranges of near-equal length, each at least ``min_rows`` long unless there
    is only one."""
    parts = max(1, min(parts, count // min_rows))
    bounds = [count * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def gemm_ranges(count: int, parts: int, products) -> list[tuple[int, int]]:
    """At most ``parts`` near-equal consecutive ``(start, stop)`` ranges of
    ``range(count)`` items in which each product over the items, given as the
    ``(rows per item, N, K)`` of a 1 x M x K by 1 x K x N product, keeps the
    bits of one product: every range starts at a multiple of
    :data:`GEMM_ROW_BLOCK` rows and holds at least 2 rows and more than
    :data:`SPLIT_GEMM_ABOVE` multiply-adds.  A 1-column product is never cut."""
    step, least = 1, 1  # items per step, fewest items in a range
    for rows, n, k in products:
        step = math.lcm(step, GEMM_ROW_BLOCK // math.gcd(GEMM_ROW_BLOCK, rows))
        min_rows = max(2, SPLIT_GEMM_ABOVE // (n * k or 1) + 1) if n > 1 else rows * count
        least = max(least, -(-min_rows // rows))
    tail = (count - 1) % step + 1  # items in the last step
    ranges = row_ranges(-(-count // step), parts, -(-(least - tail) // step) + 1)
    return [(start * step, min(stop * step, count)) for start, stop in ranges if start < stop]


def pool_workers() -> int:
    """The worker count of the process's pool: the most calls of a
    :func:`run_tasks` list that run at once."""
    return _thread_pool()[1]


def run_tasks(calls) -> list:
    """The results of ``calls``, each called with no arguments, in list order.

    The calling thread runs the first call; then it and up to one pool worker
    per further call take the next call in list order until none is left.
    Every call runs inline (its own splits do not use the pool) under the
    caller's floating-point error settings.  The first error in list order is
    raised once every call has ended.  Inline, and for a list of one call,
    the calls run in order on the calling thread."""
    pool, workers = _pool_to_share()
    if workers == 1 or len(calls) < 2:
        return [call() for call in calls]
    from concurrent.futures import Future, wait

    results, failed, err = [None] * len(calls), {}, np.geterr()
    pending, lock = iter(range(len(calls))), threading.Lock()

    def take() -> int | None:
        with lock:
            return next(pending, None)

    def drain(i: int | None) -> None:
        while i is not None:
            try:
                results[i] = calls[i]()
            except Exception as exc:  # raised in list order once every call has ended
                failed[i] = Future()
                failed[i].set_exception(exc)
            i = take()

    def work() -> None:
        with np.errstate(**err):  # numpy does not carry the caller's settings to other threads
            drain(take())

    first = take()  # the caller's, taken before any worker starts
    drains = [pool.submit(work) for _ in range(min(workers, len(calls)) - 1)]
    _this_thread.inline = True
    try:
        drain(first)
    finally:
        _this_thread.inline = False
        wait(drains)
    for done in drains:
        done.result()
    if failed:
        failed[min(failed)].result()
    return results


def split_rows(fill, count: int, min_rows: int = 1) -> None:
    """:func:`run_tasks` over ``fill(start, stop)`` for the :func:`row_ranges`
    of ``count``, one per pool worker and each at least ``min_rows`` long;
    inline, one ``fill(0, count)``."""
    ranges = row_ranges(count, _pool_to_share()[1], min_rows)
    run_tasks([partial(fill, start, stop) for start, stop in ranges])


class AllocationTracker:
    """While active, records the element counts of the tensors made through
    :class:`Tensor` on any thread (not numpy scratch, nor views of an existing
    buffer): ``largest`` is the biggest, ``total`` their sum."""

    def __init__(self):
        self.largest = 0
        self.total = 0

    def __enter__(self) -> "AllocationTracker":
        with _TRACKERS_LOCK:
            _TRACKERS.append(self)
        return self

    def __exit__(self, *exc) -> None:
        with _TRACKERS_LOCK:
            _TRACKERS.remove(self)


def _record_alloc(count: int) -> None:
    with _TRACKERS_LOCK:
        for tracker in _TRACKERS:
            tracker.total += count
            if count > tracker.largest:
                tracker.largest = count


_FLOATS = frozenset((np.dtype(np.float32), np.dtype(np.float64)))  # native byte order


class Tensor:
    """Dense float tensor.  Its shape is logical (B x C x H x W for images);
    its read-only ``data`` is row-major or, 4-d only, channels-last (row-major
    in B x H x W x C order).  A native float32 or float64 array keeps its
    dtype, any other data becomes float64; a row-major or channels-last float
    array is wrapped through a read-only view, and any other is copied to
    row-major order."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data)
        row_major = arr.ndim and arr.flags.c_contiguous
        if not (row_major or arr.ndim == 4 and arr.transpose(0, 2, 3, 1).flags.c_contiguous):
            arr = np.ascontiguousarray(arr)  # at least 1-d
        arr = arr.view() if arr.dtype in _FLOATS else arr.astype(np.float64)
        arr.flags.writeable = False
        self.data = arr
        _record_alloc(arr.size)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"


def _wrap_shared(arr: np.ndarray) -> Tensor:
    """Wrap an existing buffer without counting a new allocation."""
    t = Tensor.__new__(Tensor)
    view = arr.view()
    view.flags.writeable = False
    t.data = view
    return t


def _check_batch_dims(a_shape, b_shape) -> None:
    for da, db in zip(a_shape, b_shape):
        if da != db and da != 1 and db != 1:
            raise ShapeMismatch(
                f"batch dims {a_shape} and {b_shape} differ on a non-singleton extent"
            )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix multiplication contracting the last dim of ``a`` with
    the second-to-last dim of ``b``; leading dims broadcast on singletons,
    and other mismatches raise :class:`ShapeMismatch`.  A 1 x M x K by
    1 x K x N product runs as :func:`gemm_calls`, any other as one
    ``np.matmul``; either way every row has the bits of one product."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch("matmul operands need at least 2 dimensions")
    if a.ndim != b.ndim:
        raise ShapeMismatch(f"matmul rank mismatch: {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(
            f"contracted dims differ: {a.shape[-1]} vs {b.shape[-2]}"
        )
    _check_batch_dims(a.shape[:-2], b.shape[:-2])
    if a.shape[:-2] != (1,) or b.shape[0] != 1:
        return Tensor(np.matmul(a.data, b.data))
    out, calls = gemm_calls(a, b)
    run_tasks(calls)
    return Tensor(out)


def gemm_calls(a: Tensor, b: Tensor) -> tuple[np.ndarray, list]:
    """The empty output buffer of the 1 x M x K by 1 x K x N product of ``a``
    and ``b``, and the calls that fill it, one per :func:`gemm_ranges` range
    (one per pool worker), longest first.  Run through :func:`run_tasks`,
    beside other calls or not, they give every row one product's bits."""
    (_, m, k), n = a.shape, b.shape[-1]
    out = np.empty((1, m, n), dtype=np.result_type(a.data, b.data))
    ranges = sorted(gemm_ranges(m, _pool_to_share()[1], [(1, n, k)]), key=lambda r: r[0] - r[1])
    return out, [partial(np.matmul, a.data[:, start:stop], b.data, out=out[:, start:stop]) for start, stop in ranges]


def elementwise(op: np.ufunc, a: Tensor, b) -> Tensor:
    """``op(a, b)`` for a numpy ufunc ``op`` (``np.add``, ``np.subtract``,
    ``np.multiply``, ``np.divide``); ``b`` may be a scalar.  Only singleton
    dims broadcast: other mismatches raise :class:`ShapeMismatch`."""
    if isinstance(b, Tensor):
        if a.ndim != b.ndim:
            raise ShapeMismatch(f"rank mismatch: {a.shape} vs {b.shape}")
        _check_batch_dims(a.shape, b.shape)
        rhs = b.data
    else:
        rhs = float(b)
    return Tensor(op(a.data, rhs))


def reduce_sum(a: Tensor) -> Tensor:
    """Sum over the batch (axis 0), kept as a singleton, strictly left to
    right: bit for bit ``acc = 0.0; for v in values: acc += v``."""
    src = np.ascontiguousarray(a.data)
    if int(np.prod(a.shape[1:])) > 1:
        # on a row-major array numpy adds whole trailing slices in order
        return Tensor(np.sum(src, axis=0, keepdims=True))
    # np.sum would add one value per sample in pairs; + 0.0 starts from +0.0
    return Tensor(np.cumsum(src, axis=0)[-1:] + 0.0)


def softmax(y: Tensor, temperature: float, out: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Temperature softmax along axis 1 with max-subtraction, and the sums of
    the shifted exponentials it divided by (axis 1 kept as a singleton).
    The scores fill ``out`` when given: a writable row-major array of ``y``'s
    shape and of the dtype of ``y / temperature`` that the caller may
    overwrite once done with the returned view.  Rows are filled by
    :func:`split_rows` in ranges of at least :data:`ROW_BLOCK`; a row reads
    only itself, so its bits do not depend on the ranges."""
    if not temperature > 0:
        raise UsageError(f"temperature must be > 0, got {temperature}")
    src = y.data
    z = np.empty(src.shape, dtype=np.result_type(src, temperature)) if out is None else out
    sums = np.empty(src.shape[:1] + (1,) + src.shape[2:], dtype=z.dtype)

    def fill(start: int, stop: int) -> None:
        rows = z[start:stop]
        np.divide(src[start:stop], temperature, out=rows)
        rows -= np.max(rows, axis=1, keepdims=True)
        np.exp(rows, out=rows)
        np.sum(rows, axis=1, keepdims=True, out=sums[start:stop])
        rows /= sums[start:stop]

    split_rows(fill, src.shape[0], ROW_BLOCK)
    return Tensor(z), Tensor(sums)


def tril_mask(n: int, dtype) -> Tensor:
    """1 x n x n lower-triangular matrix of ones (diagonal inclusive): the
    mask of the HPCA kernels, shaped like their 1 x N x N Gram tensor."""
    if n < 1:
        raise ShapeMismatch(f"tril_mask needs n >= 1, got {n}")
    return Tensor(np.tril(np.ones((1, n, n), dtype=dtype)))


def transpose(a: Tensor) -> Tensor:
    """``np.swapaxes(a, -1, -2)`` copied into a new row-major buffer, in
    blocks of :data:`ROW_BLOCK` source rows split over the pool.  A copy,
    not a view: a product reading a transposed view can take another BLAS
    path and so other bits."""
    src = a.data
    rows = src.shape[-2]
    out = np.empty(src.shape[:-2] + (src.shape[-1], rows), dtype=src.dtype)

    def fill(first: int, stop: int) -> None:
        for i in range(first * ROW_BLOCK, stop * ROW_BLOCK, ROW_BLOCK):
            block = slice(i, i + ROW_BLOCK)
            out[..., block] = np.swapaxes(src[..., block, :], -1, -2)

    split_rows(fill, -(-rows // ROW_BLOCK))
    return Tensor(out)


def reshape(a: Tensor, shape) -> Tensor:
    """The values of ``a`` in row-major order of its logical indices, under a
    new shape: a view of a row-major buffer; a channels-last one is copied
    into a new row-major buffer, counted as an allocation."""
    if int(np.prod(shape)) != a.size:
        raise ShapeMismatch(f"cannot reshape {a.shape} to {tuple(shape)}")
    out = a.data.reshape(shape)
    return _wrap_shared(out) if np.may_share_memory(out, a.data) else Tensor(out)
