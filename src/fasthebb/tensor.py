"""Minimal dense tensor core.

Tensors are immutable wrappers around row-major numpy arrays with explicit
broadcasting rules: only extent-1 (singleton) dimensions broadcast, any other
mismatch raises :class:`ShapeMismatch`.  All operations are pure functions
returning new tensors.

:func:`reduce_sum` adds strictly left to right, bit for bit like a sequential
loop; which numpy routine does that is chosen from the input's shape alone.
:class:`AllocationTracker` is a context manager that counts elements of every
tensor allocated through this module, so kernels can report the largest
temporary they built.

Every operation returns a fresh buffer, so a training step allocates and frees
hundreds of megabytes.  At import the module tells glibc's allocator to keep
freed memory in the process heap instead of handing each large buffer back to
the kernel on free; the next step then reuses pages it has already touched
rather than faulting in and zeroing new ones.  The cost is that the process
keeps its peak resident size after its largest step.

:func:`parallel_map` runs independent calls on a per-process thread pool whose
workers fill the CPUs that BLAS leaves idle: the CPUs this process may run on,
divided by the thread count of the loaded OpenBLAS.
"""

from __future__ import annotations

import ctypes
import os
import threading

import numpy as np

from .errors import InvalidTemperature, ShapeMismatch

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
    "parallel_map",
]

_TRACKERS: list["AllocationTracker"] = []
_TRACKERS_LOCK = threading.Lock()  # pool workers allocate concurrently

_M_TRIM_THRESHOLD = -1  # glibc mallopt parameters
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Serve buffers up to 1 GiB from the heap, and give its top back to the
    kernel only when 2 GiB of it are free, so freed buffers stay mapped for
    reuse; does nothing without glibc's ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library (Windows), or not glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 1 << 30)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


_keep_freed_memory()


def openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded, or None when that library is not mapped into the process."""
    try:
        with open("/proc/self/maps") as fh:
            lib = next(line.split()[-1] for line in fh if "libscipy_openblas64_" in line)
        handle = ctypes.CDLL(lib)
        get, set_ = handle.scipy_openblas_get_num_threads64_, handle.scipy_openblas_set_num_threads64_
    except (OSError, StopIteration, AttributeError):
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


def _pool_workers() -> int:
    """The CPUs this process may use over the BLAS thread count, at least 1;
    1 when no OpenBLAS is found, since its thread count is then unknown."""
    threads = openblas_threads()
    if threads is None:
        return 1
    return max(1, len(os.sched_getaffinity(0)) // threads[0]())


_pool = None  # the ThreadPoolExecutor of process _pool_pid
_pool_pid = -1
_pool_lock = threading.Lock()


def _thread_pool():
    """The process's pool, made on first use and again in a forked child,
    whose copy of the parent's pool has no threads and would never run."""
    global _pool, _pool_pid
    with _pool_lock:
        if _pool_pid != os.getpid():
            # imported here: concurrent.futures takes ~10 ms to import, which
            # a process that never calls parallel_map should not pay at start
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_pool_workers(), thread_name_prefix="fasthebb")
            _pool_pid = os.getpid()
        return _pool


def parallel_map(fn, items):
    """An iterator over ``fn(item)`` for each item, in order, with the calls
    run on the process's thread pool under the caller's floating-point error
    settings (numpy does not carry ``errstate`` into other threads).  A call
    that raises raises at its place in the iteration, and the calls not yet
    started are then dropped."""
    err = np.geterr()

    def call(item):
        with np.errstate(**err):
            return fn(item)

    return _thread_pool().map(call, items)


class AllocationTracker:
    """Records element counts of tensors allocated while active.

    ``largest`` is the element count of the single biggest tensor seen,
    ``total`` the cumulative count.  Only allocations that go through the
    tensor core are counted (not numpy scratch space), which is exactly the
    accounting the space-complexity checks need.
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


class Tensor:
    """Dense row-major tensor of 64-bit floats (32-bit mode available)."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=np.float64):
        arr = np.ascontiguousarray(data, dtype=dtype)
        if arr.ndim == 0:
            arr = arr.reshape(1)
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

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"


def _wrap_shared(arr: np.ndarray) -> Tensor:
    """Wrap an existing buffer without counting a new allocation."""
    t = Tensor.__new__(Tensor)
    view = arr.view()
    view.flags.writeable = False
    t.data = view
    return t


def _wrap_new(arr: np.ndarray) -> Tensor:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    t = Tensor.__new__(Tensor)
    t.data = arr
    _record_alloc(arr.size)
    return t


def _check_batch_dims(a_shape, b_shape) -> None:
    for da, db in zip(a_shape, b_shape):
        if da != db and da != 1 and db != 1:
            raise ShapeMismatch(
                f"batch dims {a_shape} and {b_shape} differ on a non-singleton extent"
            )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix multiplication contracting the last dim of ``a`` with
    the second-to-last dim of ``b``; leading dims broadcast on singletons."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch("matmul operands need at least 2 dimensions")
    if a.ndim != b.ndim:
        raise ShapeMismatch(f"matmul rank mismatch: {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(
            f"contracted dims differ: {a.shape[-1]} vs {b.shape[-2]}"
        )
    _check_batch_dims(a.shape[:-2], b.shape[:-2])
    return _wrap_new(np.matmul(a.data, b.data))


_ELEMENTWISE_OPS = ("add", "sub", "mul", "div", "scale")


def elementwise(op: str, a: Tensor, b) -> Tensor:
    """Componentwise op with singleton-only broadcasting.

    ``b`` may be a scalar; ``scale`` requires a scalar operand.
    """
    if op not in _ELEMENTWISE_OPS:
        raise ValueError(f"unknown elementwise op {op!r}")
    if isinstance(b, Tensor):
        if op == "scale":
            raise ShapeMismatch("scale takes a scalar operand")
        if a.ndim != b.ndim:
            raise ShapeMismatch(f"rank mismatch: {a.shape} vs {b.shape}")
        _check_batch_dims(a.shape, b.shape)
        rhs = b.data
    else:
        rhs = float(b)
    if op == "add":
        out = a.data + rhs
    elif op == "sub":
        out = a.data - rhs
    elif op == "div":
        out = a.data / rhs
    else:  # mul, scale
        out = a.data * rhs
    return _wrap_new(out)


def reduce_sum(a: Tensor, dim_index: int) -> Tensor:
    """Sum along one dimension, keeping it as a singleton.

    The accumulation is strictly left to right along the reduced dimension:
    every result is bit for bit ``acc = 0.0; for v in values: acc += v``.
    """
    if not 0 <= dim_index < a.ndim:
        raise IndexError(f"dim {dim_index} out of range for shape {a.shape}")
    if int(np.prod(a.shape[dim_index + 1 :])) > 1:
        # on a row-major array numpy then adds whole trailing slices in order
        return _wrap_new(np.sum(a.data, axis=dim_index, keepdims=True))
    # the reduced dim is innermost, where np.sum would add in pairs; cumsum
    # adds sequentially, and + 0.0 starts the sum from +0.0 as np.sum does
    idx = [slice(None)] * a.ndim
    idx[dim_index] = slice(-1, None)
    return _wrap_new(np.cumsum(a.data, axis=dim_index)[tuple(idx)] + 0.0)


def softmax(y: Tensor, temperature: float, dim: int = 1) -> Tensor:
    """Temperature softmax along ``dim`` with max-subtraction for stability.

    The scaled copy of ``y`` is the only buffer; the shift, ``exp`` and the
    normalisation then run in place on it."""
    if not temperature > 0:
        raise InvalidTemperature(f"temperature must be > 0, got {temperature}")
    z = y.data / temperature
    z -= np.max(z, axis=dim, keepdims=True)
    np.exp(z, out=z)
    z /= np.sum(z, axis=dim, keepdims=True)
    return _wrap_new(z)


def tril_mask(n: int, dtype=np.float64) -> Tensor:
    """n x n lower-triangular matrix of ones (diagonal inclusive)."""
    if n < 1:
        raise ShapeMismatch(f"tril_mask needs n >= 1, got {n}")
    return _wrap_new(np.tril(np.ones((n, n), dtype=dtype)))


# source rows copied per block by :func:`transpose`: a block of source rows
# and the output columns it fills stay in cache together
_TRANSPOSE_BLOCK = 1024


def transpose(a: Tensor) -> Tensor:
    """Swap the last two dimensions into a new row-major buffer.

    The copy runs in blocks of ``_TRANSPOSE_BLOCK`` source rows, each written
    to the matching column range of the output; the values are those of
    ``np.swapaxes(a, -1, -2).copy()``.  A view would be cheaper but changes
    which path BLAS takes on the result, and with it the bits of products.
    """
    src = a.data
    rows = src.shape[-2]
    out = np.empty(src.shape[:-2] + (src.shape[-1], rows), dtype=src.dtype)
    for i in range(0, rows, _TRANSPOSE_BLOCK):
        block = slice(i, i + _TRANSPOSE_BLOCK)
        out[..., block] = np.swapaxes(src[..., block, :], -1, -2)
    return _wrap_new(out)


def reshape(a: Tensor, shape) -> Tensor:
    """Reinterpret the row-major buffer under a new shape; never copies."""
    if int(np.prod(shape)) != a.size:
        raise ShapeMismatch(f"cannot reshape {a.shape} to {tuple(shape)}")
    return _wrap_shared(a.data.reshape(shape))
