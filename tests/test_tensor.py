import ctypes
import os
import platform
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fasthebb import tensor as tc
from fasthebb.errors import InvalidTemperature, ShapeMismatch
from fasthebb.tensor import AllocationTracker, Tensor


def T(data):
    return Tensor(np.asarray(data, dtype=np.float64))


class TestMatmul:
    def test_identity_case(self):
        a = T([[[1.0, 2.0], [3.0, 4.0]]])
        eye = T(np.eye(2)[None])
        out = tc.matmul(a, eye)
        np.testing.assert_array_equal(out.data, a.data)
        out = tc.matmul(eye, a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_column_vector(self):
        a = T([[[1.0, 2.0], [3.0, 4.0]]])
        b = T([[[5.0], [6.0]]])
        np.testing.assert_array_equal(tc.matmul(a, b).data, [[[17.0], [39.0]]])

    def test_broadcast_matches_stacked_products(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 2, 4)))
        b = Tensor(rng.standard_normal((1, 4, 5)))
        out = tc.matmul(a, b)
        assert out.shape == (3, 2, 5)
        for i in range(3):
            expected = a.data[i] @ b.data[0]
            np.testing.assert_array_equal(out.data[i], expected)

    def test_contracted_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            tc.matmul(T(np.ones((1, 2, 3))), T(np.ones((1, 2, 3))))

    def test_batch_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            tc.matmul(T(np.ones((3, 2, 2))), T(np.ones((2, 2, 2))))

    @settings(max_examples=30, deadline=None)
    @given(
        b=st.integers(1, 8), n=st.integers(1, 8), s=st.integers(1, 8),
        seed=st.integers(0, 1000), left_batched=st.booleans(),
    )
    def test_broadcast_bitwise_equals_materialized(self, b, n, s, seed, left_batched):
        rng = np.random.default_rng(seed)
        if left_batched:
            a = Tensor(rng.standard_normal((b, n, s)))
            other = Tensor(rng.standard_normal((1, s, n)))
            tiled = Tensor(np.repeat(other.data, b, axis=0))
            lhs, rhs = a, other
            lhs_t, rhs_t = a, tiled
        else:
            a = Tensor(rng.standard_normal((1, n, s)))
            other = Tensor(rng.standard_normal((b, s, n)))
            tiled = Tensor(np.repeat(a.data, b, axis=0))
            lhs, rhs = a, other
            lhs_t, rhs_t = tiled, other
        np.testing.assert_array_equal(
            tc.matmul(lhs, rhs).data, tc.matmul(lhs_t, rhs_t).data
        )


class TestElementwise:
    def test_broadcast_sub_shapes(self):
        x = T(np.arange(6.0).reshape(2, 1, 3))
        w = T(np.ones((1, 4, 3)))
        out = tc.elementwise("sub", x, w)
        assert out.shape == (2, 4, 3)
        np.testing.assert_array_equal(out.data, x.data - w.data)

    def test_add_zero_identity(self):
        a = T([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(tc.elementwise("add", a, 0.0).data, a.data)

    def test_scale(self):
        np.testing.assert_array_equal(
            tc.elementwise("scale", T([1.0, 2.0, 3.0]), 2.0).data, [2.0, 4.0, 6.0]
        )

    def test_non_singleton_mismatch(self):
        with pytest.raises(ShapeMismatch):
            tc.elementwise("add", T(np.ones((2, 3))), T(np.ones((2, 2))))

    def test_rank_mismatch(self):
        with pytest.raises(ShapeMismatch):
            tc.elementwise("add", T(np.ones((2, 3))), T(np.ones((1, 2, 3))))


def _sequential_sum(data, dim):
    """Sum along ``dim`` one term at a time, left to right, from 0.0."""
    out = np.empty(data.shape[:dim] + (1,) + data.shape[dim + 1 :])
    for idx in np.ndindex(out.shape):
        acc = 0.0
        for k in range(data.shape[dim]):
            acc += data[idx[:dim] + (k,) + idx[dim + 1 :]]
        out[idx] = acc
    return out


class TestReduceSum:
    def test_singleton_dim_unchanged(self):
        a = T(np.arange(4.0).reshape(1, 4))
        np.testing.assert_array_equal(tc.reduce_sum(a, 0).data, a.data)

    def test_hand_sum(self):
        a = T([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(tc.reduce_sum(a, 0).data, [[4.0, 6.0]])

    def test_order_commutes(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = Tensor(rng.standard_normal((4, 5, 6)))
            ab = tc.reduce_sum(tc.reduce_sum(a, 0), 1)
            ba = tc.reduce_sum(tc.reduce_sum(a, 1), 0)
            np.testing.assert_allclose(ab.data, ba.data, rtol=1e-12)

    @pytest.mark.parametrize(
        "shape, dims",
        [
            ((13, 7), (1, 0)),
            ((200, 1, 1), (0,)),
            ((4097, 33), (0,)),
            ((7, 300), (1,)),
            ((4, 5, 6), (1,)),
        ],
        ids=["13x7", "200x1x1", "4097x33", "7x300", "4x5x6"],
    )
    def test_deterministic_matches_sequential_loop(self, shape, dims):
        rng = np.random.default_rng(11)
        a = Tensor(rng.standard_normal(shape) * 1e3)
        got, expected = a, a.data
        for dim in dims:  # reduced in the listed order
            got = tc.reduce_sum(got, dim)
            expected = _sequential_sum(expected, dim)
        np.testing.assert_array_equal(got.data, expected)

    @pytest.mark.parametrize("dim", [0, 1])
    def test_sum_starts_from_positive_zero(self, dim):
        # dim 0 takes the np.sum branch, dim 1 the cumsum branch
        out = tc.reduce_sum(T(np.full((3, 4), -0.0)), dim)
        assert not np.signbit(out.data).any()


class TestSoftmax:
    def test_symmetry(self):
        out = tc.softmax(T([[0.0, 0.0]]), 1.0, dim=1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_log2_case(self):
        out = tc.softmax(T([[np.log(2.0), 0.0]]), 1.0, dim=1)
        np.testing.assert_allclose(out.data, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_high_temperature_near_uniform(self):
        rng = np.random.default_rng(3)
        y = Tensor(rng.standard_normal((4, 6)))
        out = tc.softmax(y, 1e9, dim=1)
        np.testing.assert_allclose(out.data, 1.0 / 6.0, atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        y = Tensor(rng.standard_normal((8, 5)) * 5)
        out = tc.softmax(y, 0.5, dim=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((4, 5))
        a = tc.softmax(Tensor(y), 2.0, dim=1)
        b = tc.softmax(Tensor(y + 17.3), 2.0, dim=1)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_invalid_temperature(self):
        with pytest.raises(InvalidTemperature):
            tc.softmax(T([[1.0]]), 0.0)
        with pytest.raises(InvalidTemperature):
            tc.softmax(T([[1.0]]), -1.0)

    @pytest.mark.parametrize(
        "scale, shift, temperature",
        [(1.0, 0.0, 1.0), (3.0, 0.0, 0.3), (1.0, 700.0, 1.0), (1.0, -700.0, 1.0), (5.0, 0.0, 0.02)],
        ids=["random", "T=0.3", "y~+700", "y~-700", "T=0.02"],
    )
    @pytest.mark.parametrize("shape, dim", [((64, 8, 1), 1), ((64, 8), 1), ((64, 8), 0)])
    def test_bitwise_equals_four_array_expression(self, shape, dim, scale, shift, temperature):
        y = np.random.default_rng(4).standard_normal(shape) * scale + shift
        # neuron 0 always loses by a wide margin: at T=0.02 its whole column is 0.0
        np.moveaxis(y, dim, 0)[0] -= 100.0
        z = y / temperature
        z = z - np.max(z, axis=dim, keepdims=True)
        e = np.exp(z)
        want = e / np.sum(e, axis=dim, keepdims=True)
        got = tc.softmax(T(y), temperature, dim=dim).data
        assert np.array_equal(got, want)
        if temperature == 0.02:
            assert np.all(np.moveaxis(got, dim, 0)[0] == 0.0)


class TestTrilMask:
    def test_n1(self):
        np.testing.assert_array_equal(tc.tril_mask(1).data, [[1.0]])

    def test_n2(self):
        np.testing.assert_array_equal(tc.tril_mask(2).data, [[1, 0], [1, 1]])

    def test_n3_row_sums(self):
        np.testing.assert_array_equal(tc.tril_mask(3).data.sum(axis=1), [1, 2, 3])


BLOCK = tc._TRANSPOSE_BLOCK


class TestTranspose:
    """The blocked copy gives the bits of ``np.swapaxes(a, -1, -2).copy()`` in a
    new read-only row-major buffer, whatever the row count's remainder."""

    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=["2d", "3d", "4d"])
    def test_matches_swapaxes_copy(self, lead, rows):
        a = T(np.random.default_rng(rows).standard_normal((*lead, rows, 5)))
        out = tc.transpose(a)
        assert np.array_equal(out.data, np.swapaxes(a.data, -1, -2).copy())
        assert out.shape == (*lead, 5, rows)
        assert out.data.flags.c_contiguous
        assert not out.data.flags.writeable
        assert not np.shares_memory(out.data, a.data)

    def test_keeps_dtype_and_counts_one_allocation(self):
        a = Tensor(np.ones((BLOCK + 1, 3)), dtype=np.float32)
        with AllocationTracker() as tracker:
            out = tc.transpose(a)
        assert out.dtype == np.float32
        assert tracker.total == tracker.largest == a.size


class TestAllocationTracking:
    def test_largest_and_total(self):
        with AllocationTracker() as tracker:
            T(np.ones((2, 3)))
            T(np.ones((4, 4)))
        assert tracker.largest == 16
        assert tracker.total == 22

    def test_reshape_is_free(self):
        a = T(np.ones((2, 6)))
        with AllocationTracker() as tracker:
            tc.reshape(a, (3, 4))
        assert tracker.total == 0

    def test_counts_are_exact_when_threads_allocate_at_once(self):
        class Tracker(AllocationTracker):
            # counters read and written through Python calls, between which
            # the interpreter may switch threads: a lost update shows
            total = property(lambda self: self._total, lambda self, v: setattr(self, "_total", v))
            largest = property(lambda self: self._largest, lambda self, v: setattr(self, "_largest", v))

        small, large = np.ones(3), np.ones(5)
        start = threading.Barrier(2)

        def allocate(last):
            start.wait()
            for _ in range(20_000 - 1):
                Tensor(small)
            Tensor(last)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            with Tracker() as tracker:
                threads = [threading.Thread(target=allocate, args=(last,)) for last in (small, large)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert tracker.total == 2 * (20_000 - 1) * 3 + 3 + 5
        assert tracker.largest == 5


class TestFreedMemoryStaysMapped:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's allocator")
    def test_a_freed_buffer_comes_back_without_page_faults(self):
        import resource

        n = 40_000_000 // 8  # above glibc's largest default mmap threshold (32 MiB)
        buf = np.ones(n)
        del buf
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        buf = np.empty(n)
        buf[:] = 1.0  # touch every page
        # about 0; a buffer handed back to the kernel faults in again page by page
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 16

    def test_without_a_c_library_nothing_is_set(self, monkeypatch):
        def no_library(name):
            raise OSError("cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        assert tc._keep_freed_memory() is None

    def test_without_mallopt_nothing_is_set(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a C library that is not glibc
        assert tc._keep_freed_memory() is None


class TestPoolWorkers:
    """One pool worker per CPU that BLAS leaves idle, and 1 when BLAS is unknown."""

    @pytest.mark.parametrize("cpus, blas, workers", [(2, 1, 2), (2, 2, 1), (1, 4, 1)])
    def test_cpus_over_blas_threads(self, monkeypatch, cpus, blas, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(tc, "openblas_threads", lambda: (lambda: blas, None))
        assert tc._pool_workers() == workers

    def test_one_worker_without_openblas(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(tc, "openblas_threads", lambda: None)
        assert tc._pool_workers() == 1


def test_tensor_is_immutable():
    t = T([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0
