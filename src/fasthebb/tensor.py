"""Minimal dense tensor core.

Tensors are immutable wrappers around numpy arrays with explicit
broadcasting rules: only extent-1 (singleton) dimensions broadcast, any other
mismatch raises :class:`ShapeMismatch`.  All operations are pure functions
returning new tensors.  A tensor's shape is its logical shape (B x C x H x W
for images); its buffer is row-major, or, for a 4-d tensor, channels-last:
row-major in B x H x W x C order, as a conv layer's forward rows come out of
their product.  numpy's strides carry that layout, so every operation reads
either one by its logical indices, and :func:`reshape` of a channels-last
tensor copies its values into row-major order of those indices.
:class:`Tensor` is the one constructor: it keeps the dtype of a native float32
or float64 array and makes anything else float64, and every operation keeps
its operands' float dtype, so a float32 batch stays float32 through every
stage.

:func:`reduce_sum` adds strictly left to right, bit for bit like a sequential
loop; which numpy routine does that is chosen from the input's shape alone,
on a row-major copy of a channels-last input.
:class:`AllocationTracker` is a context manager that counts elements of every
tensor allocated through this module, so kernels can report the largest
temporary they built.

Every operation returns a fresh buffer, so a training step allocates and frees
hundreds of megabytes.  At import the module tells glibc's allocator to keep
freed memory in the process heap instead of handing each large buffer back to
the kernel on free; the next step then reuses pages it has already touched
rather than faulting in and zeroing new ones.  The cost is that the process
keeps its peak resident size after its largest step.

:func:`run_tasks` is the one way work reaches the per-process thread pool,
whose workers fill the CPUs that BLAS leaves idle: the CPUs this process may
run on, divided by the thread count of the loaded OpenBLAS, which import pins
to one unless the environment sets it.  So by default the per-row work, the
output rows of the batch contractions and independent calls such as the
HPCA kernel's two products and its metric's row blocks, or the SWTA
kernel's sum over the batch beside the row ranges of its pull, run on every
CPU, while no contraction over the batch is split.  ``run_tasks`` takes a list
of calls: the calling thread runs the first, and it and the pool workers
then take the next call in list order until none is left, each call
running inline.  :func:`split_rows` fills one buffer as the
:func:`row_ranges` of its rows handed to ``run_tasks``.  The calls run
inline in order on the calling thread when the pool has one worker, on a
pool worker, and on a caller while it runs a call of its own list.  Only
work whose bits do not depend on the thread that runs it goes to the pool:
copies (:func:`transpose` among them), per-row arithmetic whose every row
depends on that row alone (:func:`softmax`), whole calls that each fill
their own output, and the rows of a product in the ranges of
:func:`gemm_ranges`, the one rule for where a product is cut: the HPCA
metric's row blocks and feature extraction's image blocks follow it, and
:func:`gemm_calls` turns it into the calls that fill one product, which
:func:`matmul` runs as its list and a kernel may run beside other calls.
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
    """Serve buffers up to 1 GiB from the heap, give its top back to the
    kernel only when 2 GiB of it are free, so freed buffers stay mapped for
    reuse, and keep one heap for all threads, so a buffer a pool worker frees
    is reused by the next step on any thread; does nothing without glibc's
    ``mallopt``."""
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
            # imported here: concurrent.futures takes ~10 ms to import, which
            # a process that never uses the pool should not pay at start
            from concurrent.futures import ThreadPoolExecutor

            workers = _pool_workers()
            pool = ThreadPoolExecutor(workers, thread_name_prefix="fasthebb", initializer=_mark_pool_thread)
            _pool, _pool_pid = (pool, workers), os.getpid()
        return _pool


def _pool_to_share():
    """The pool that may take part of a call's work and its worker count, or
    (None, 1) when the call runs inline: on a pool worker, whose wait on the
    pool could deadlock once every worker waits; on a caller running a call
    of its own :func:`run_tasks` list, whose other calls already have the
    other CPUs; and with a one-worker pool."""
    if getattr(_this_thread, "inline", False):
        return None, 1
    pool, workers = _thread_pool()
    return (pool, workers) if workers > 1 else (None, 1)


# rows*N*K that each range of a :func:`gemm_ranges` cut must exceed: on
# OpenBLAS 0.3.31, in float32 and float64 at N 2-2400 and K 8-131072, every
# range of at least 2 rows above this that starts at a multiple of
# GEMM_ROW_BLOCK had the bits of one product over all rows; at or below it
# OpenBLAS takes its small-matrix path (16x75x1024 in 8-row halves already
# differs), and a 1-row range or a 1-column output takes the GEMV path
SPLIT_GEMM_ABOVE = 100**3

# rows of the float64 GEMM kernel's row blocks (OpenBLAS 0.3.31, its
# SkylakeX kernels): a row computed in a full block can round differently in its
# last N % 8 columns from the same row in a shorter block, so a split keeps
# every bit only where its ranges start at multiples of this (34x230x3027
# in 17-row halves differs; starts at multiples of 4, 8 or 16 differed too)
GEMM_ROW_BLOCK = 12

# rows per block of the row-wise passes: :func:`softmax` splits its rows in
# ranges of at least this many, below which handing a range to a worker
# costs more than its arithmetic, and :func:`transpose` and the fast SWTA
# kernel's C*R pass copy blocks of this many source rows, which stay in cache
# with the output columns they fill
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
    ``range(count)`` items, where each product over the items, given as the
    ``(rows per item, N, K)`` of a 1 x M x K by 1 x K x N product, keeps the
    bits of one product: in each, a range starts at a multiple of
    :data:`GEMM_ROW_BLOCK` rows and holds at least 2 rows and more than
    :data:`SPLIT_GEMM_ABOVE` multiply-adds, the last range too, whose last
    step may be short.  A 1-column product (GEMV) is never cut."""
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
    per further call keep taking the next call in list order until none is
    left.  Every call runs inline, so its own splits do not wait on the pool,
    and under the caller's floating-point error settings.  The first error
    in list order is raised once every call has ended.  Inline (with a
    one-worker pool, on a pool worker, or inside a call of an enclosing
    list) the calls run in order on the calling thread, and so does a list
    of one call, whose own splits may then use the pool."""
    pool, workers = _pool_to_share()
    if workers == 1 or len(calls) < 2:
        return [call() for call in calls]
    from concurrent.futures import Future, wait

    results, err = [Future() for _ in calls], np.geterr()
    pending, lock = iter(range(1, len(calls))), threading.Lock()

    def run(i: int) -> None:
        try:
            results[i].set_result(calls[i]())
        except Exception as exc:  # raised in list order once every call has ended
            results[i].set_exception(exc)

    def drain() -> None:
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            run(i)

    def work() -> None:
        with np.errstate(**err):  # numpy does not carry the caller's settings to other threads
            drain()

    drains = [pool.submit(work) for _ in range(min(workers, len(calls)) - 1)]
    _this_thread.inline = True
    try:
        run(0)
        drain()
    finally:
        _this_thread.inline = False
        wait(drains)
    for done in drains:
        done.result()
    return [result.result() for result in results]


def split_rows(fill, count: int, min_rows: int = 1) -> None:
    """Call ``fill(start, stop)`` on the :func:`row_ranges` of ``count``, one
    range per pool worker and each at least ``min_rows`` long, through
    :func:`run_tasks`: the calling thread fills the first range, and the
    call returns when every range is filled, raising the first error in
    range order.  Inline, it is one ``fill(0, count)`` on the calling
    thread."""
    ranges = row_ranges(count, _pool_to_share()[1], min_rows)
    run_tasks([partial(fill, start, stop) for start, stop in ranges])


class AllocationTracker:
    """Records element counts of tensors allocated while active.

    ``largest`` is the element count of the single biggest tensor seen,
    ``total`` the cumulative count.  Only allocations that go through the
    tensor core are counted (not numpy scratch space, nor views of an
    existing buffer), which is exactly the accounting the space-complexity
    checks need.
    """

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
    """Dense tensor of floats, row-major or (4-d) channels-last.  A native
    float32 or float64 array keeps its dtype; any other data becomes float64.
    ``data`` is read-only; a row-major or channels-last float array is
    wrapped without a copy, through a read-only view, so the caller's own
    array stays writable, and any other array is copied to row-major order.
    So a 4-d ``data`` that is not row-major is channels-last."""

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
    the second-to-last dim of ``b``; leading dims broadcast on singletons.

    A 1 x M x K by 1 x K x N product is :func:`run_tasks` over the calls of
    :func:`gemm_calls`, which fill its rows in their :func:`gemm_ranges`, one
    per worker, so every row has the bits of one product over all rows; any
    other product is one ``np.matmul``."""
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
    and ``b``, and the calls that fill it, one per range of its
    :func:`gemm_ranges` (one range per pool worker), longest first.

    Run through :func:`run_tasks`, possibly beside other calls, they leave
    every row with the bits of one product over all rows; the calling thread
    takes the longest range, so a worker that takes a shorter one has slack
    for the list's further calls."""
    (_, m, k), n = a.shape, b.shape[-1]
    out = np.empty((1, m, n), dtype=np.result_type(a.data, b.data))
    ranges = sorted(gemm_ranges(m, _pool_to_share()[1], [(1, n, k)]), key=lambda r: r[0] - r[1])
    return out, [partial(np.matmul, a.data[:, start:stop], b.data, out=out[:, start:stop]) for start, stop in ranges]


def elementwise(op: np.ufunc, a: Tensor, b) -> Tensor:
    """``op(a, b)`` for a numpy ufunc ``op`` (``np.add``, ``np.subtract``,
    ``np.multiply``, ``np.divide``) with singleton-only broadcasting; ``b``
    may be a scalar."""
    if isinstance(b, Tensor):
        if a.ndim != b.ndim:
            raise ShapeMismatch(f"rank mismatch: {a.shape} vs {b.shape}")
        _check_batch_dims(a.shape, b.shape)
        rhs = b.data
    else:
        rhs = float(b)
    return Tensor(op(a.data, rhs))


def reduce_sum(a: Tensor) -> Tensor:
    """Sum over the batch (axis 0), keeping it as a singleton.

    The accumulation is strictly left to right over the batch: every result
    is bit for bit ``acc = 0.0; for v in values: acc += v``.
    """
    src = np.ascontiguousarray(a.data)
    if int(np.prod(a.shape[1:])) > 1:
        # on a row-major array numpy then adds whole trailing slices in order
        return Tensor(np.sum(src, axis=0, keepdims=True))
    # one value per sample (a one-neuron layer), where np.sum would add in
    # pairs; cumsum adds sequentially, and + 0.0 starts the sum from +0.0 as
    # np.sum does
    return Tensor(np.cumsum(src, axis=0)[-1:] + 0.0)


def softmax(y: Tensor, temperature: float, out: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Temperature softmax along axis 1 with max-subtraction for stability,
    and the sums of the shifted exponentials that it divided by (axis 1 kept
    as a singleton).

    The scores fill ``out`` when it is given, a writable row-major array of
    ``y``'s shape and of the dtype of ``y / temperature``, which the caller
    owns and may overwrite once it is done with the returned read-only view;
    otherwise a new buffer.  The score and row-sum buffers are filled by
    :func:`split_rows` in ranges of at least :data:`ROW_BLOCK` rows; each
    range scales its rows, then shifts, exponentiates, sums and normalises
    them in place.  A row's max, sum and division read that row alone, so
    every row has the bits of one pass over all rows."""
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
    """Swap the last two dimensions into a new row-major buffer.

    The copy runs in blocks of :data:`ROW_BLOCK` source rows, each written
    to the matching column range of the output, and :func:`split_rows` hands
    ranges of whole blocks to the pool; the values are those of
    ``np.swapaxes(a, -1, -2).copy()``.  A transposed view saves the copy
    but slows the product that reads it, and changes which path BLAS takes,
    and with it the bits, at some shapes.  On one thread (OpenBLAS 0.3.31,
    SkylakeX, float64) the SWTA pull took 15.9 ms through a view at
    65536 x 32 x 75 and 16.4 ms at 16384 x 64 x 288, against 15.5 and
    15.9 ms through the copy, which itself took about 5 and 2 ms; the bits
    were the same there, but differed at 88 of 280 smaller shapes tried
    (32 x 75 x 75 in float64 among them).  The fast SWTA kernel fills its
    transposed copy inside a pass it makes anyway.
    """
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
