import ctypes
import os
import platform
import subprocess
import sys
import threading
import time
import types
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fasthebb import tensor as tc
from fasthebb.errors import ShapeMismatch, UsageError
from fasthebb.tensor import AllocationTracker, Tensor

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")  # OpenBLAS reads its thread count from these


def T(data):
    return Tensor(np.asarray(data, dtype=np.float64))


class TestConstructor:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_array_keeps_its_dtype(self, dtype):
        assert Tensor(np.ones(3, dtype)).dtype == dtype

    @pytest.mark.parametrize(
        "data", [np.arange(3), np.ones(3, np.float16), np.ones(3, ">f8"), [1, 2, 3], [1.0, 2.0], 5],
        ids=["int", "float16", "big-endian", "int-list", "float-list", "scalar"],
    )
    def test_other_data_becomes_float64(self, data):
        t = Tensor(data)
        assert t.dtype == np.float64 and t.dtype.isnative
        np.testing.assert_array_equal(t.data, np.atleast_1d(data))

    def test_wraps_a_float_array_without_taking_it_over(self):
        a = np.ones(3)
        t = Tensor(a)
        a[0] = 2.0  # the caller's array stays writable
        assert not t.data.flags.writeable
        assert np.shares_memory(t.data, a) and t.data[0] == 2.0


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


@contextmanager
def _matmul_calls(meet=None):
    """A list of ``(thread, rows of the left operand)``, one per
    ``np.matmul`` call in the block; each call first waits at ``meet``, a
    barrier, when one is given."""
    calls, original = [], np.matmul

    def spy(lhs, rhs, **kw):
        if meet is not None:
            meet.wait()
        calls.append((threading.get_ident(), lhs.shape[-2]))
        return original(lhs, rhs, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "matmul", spy)
        yield calls


def _split_and_one_product(m, n, k, dtype):
    """``tc.matmul`` of a seeded 1 x M x K by 1 x K x N pair, one
    ``np.matmul`` of the same pair, and the rows of each ``np.matmul`` call
    that ``tc.matmul`` made, in ascending order."""
    rng = np.random.default_rng(m * n + k)
    a = rng.standard_normal((1, m, k)).astype(dtype)
    b = rng.standard_normal((1, k, n)).astype(dtype)
    with _matmul_calls() as calls:
        split = tc.matmul(Tensor(a), Tensor(b)).data
    return split, np.matmul(a, b), sorted(rows for _, rows in calls)


# M x N x K of the premise sweep, without products above 2**26 multiply-adds
# or a K x N operand above 2**21 elements; K = 27, 75 and 288 are the conv
# patch sizes that feature blocks and conv1's forward are cut at, and
# M = 1024 and 4096, swept at those K only, give them rows enough to be cut
_PREMISE_SHAPES = [
    (m, n, k)
    for m in (4, 5, 16, 33, 34, 64, 256, 1024, 4096)
    for n in (2, 7, 75, 230, 288, 784)
    for k in (27, 75, 256, 288, 1024, 3027, 4096, 16384, 65536)
    if m * n * k <= 2**26 and n * k <= 2**21 and (m <= 256 or k in (27, 75, 288))
]


class TestMatmulRowSplit:
    """A 1 x M x K by 1 x K x N product fills its rows on the pool only where
    every range has the bits of one product: the ``gemm_ranges`` that start
    at a multiple of ``GEMM_ROW_BLOCK`` rows, have at least 2 rows and more
    than ``SPLIT_GEMM_ABOVE`` multiply-adds, and N >= 2."""

    @pytest.mark.parametrize(
        "count, parts, products, ranges",
        [
            # 75 x 1024 needs 14 rows, and the last 12-row step holds 4
            (64, 2, [(1, 75, 1024)], [(0, 36), (36, 64)]),
            (64, 9, [(1, 75, 1024)], [(0, 24), (24, 48), (48, 64)]),
            # 1024 and 256 rows per item fill whole 12-row blocks in steps of 3 items
            (17, 2, [(1024, 32, 75), (256, 64, 288)], [(0, 9), (9, 17)]),
            # steps of 4 items (225 rows) and of 12 (49 rows) make steps of 12;
            # 10 x 75 needs 1334 rows, 6 items, so the 4-item last step cannot stand alone
            (40, 4, [(225, 10, 75), (49, 230, 90)], [(0, 24), (24, 40)]),
            # the most items any product needs: 2 x 75 needs 6667 rows, 27 items
            (40, 3, [(256, 2, 75)], [(0, 40)]),
            (60, 3, [(256, 2, 75), (256, 230, 75)], [(0, 30), (30, 60)]),
            (4096, 2, [(1, 1, 4096)], [(0, 4096)]),  # one column: the GEMV path is never cut
            (10, 3, [], [(0, 3), (3, 6), (6, 10)]),
            (0, 2, [(1, 75, 1024)], []),
        ],
    )
    def test_gemm_ranges(self, count, parts, products, ranges):
        assert tc.gemm_ranges(count, parts, products) == ranges

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_workers_give_the_bits_of_one_product(self, dtype, pool_of):
        with pool_of(2):
            for m, n, k in _PREMISE_SHAPES:
                split, one, _ = _split_and_one_product(m, n, k, dtype)
                assert np.array_equal(split, one), (m, n, k)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "m, n, k",
        [
            (24, 1, 131072),  # 12-row halves above the bound, but one column: GEMV
            (13, 288, 4096),  # above the bound, but the last range would hold 1 row: GEMV
            (16, 75, 1024),  # the 4-row range below the bound
            (24, 75, 1109),  # 12-row halves of 998,100 multiply-adds
            (20, 125, 1000),  # the 8-row range at exactly the bound
        ],
        ids=["one-column", "one-row-range", "below-bound", "just-below-bound", "at-bound"],
    )
    def test_refused_splits_run_as_one_product(self, m, n, k, dtype, pool_of):
        # split after the first 12 rows, each of these but the one-column
        # product has other bits than one product on OpenBLAS 0.3.31
        with pool_of(2):
            split, one, calls = _split_and_one_product(m, n, k, dtype)
        assert calls == [m]
        assert np.array_equal(split, one)

    @pytest.mark.parametrize("m", [32, 34, 64])
    def test_ranges_start_at_row_blocks(self, m, pool_of):
        # in halves of 16, 17 or 32 rows these have other bits than one
        # product in their last 230 % 8 columns on OpenBLAS 0.3.31
        with pool_of(2):
            split, one, calls = _split_and_one_product(m, 230, 3027, np.float64)
        assert len(calls) == 2
        assert np.array_equal(split, one)

    @pytest.mark.parametrize("m, n, k", [(32, 75, 4096), (230, 64, 4096)], ids=["12-20-cut", "230-rows"])
    def test_calls_fill_the_gemm_ranges_longest_first(self, m, n, k, pool_of):
        rng = np.random.default_rng(m)
        a, b = rng.standard_normal((1, m, k)), rng.standard_normal((1, k, n))
        with pool_of(2):
            out, calls = tc.gemm_calls(Tensor(a), Tensor(b))
            want = sorted(tc.gemm_ranges(m, 2, [(1, n, k)]), key=lambda r: r[0] - r[1])
        out[...] = np.nan
        filled = []
        for call in calls:  # the rows each call fills, in list order
            before = np.isnan(out[0, :, 0])
            call()
            rows = np.flatnonzero(before & ~np.isnan(out[0, :, 0]))
            filled.append((int(rows[0]), int(rows[-1]) + 1))
            assert len(rows) == filled[-1][1] - filled[-1][0]
        assert filled == want and len(want) == 2
        assert [stop - start for start, stop in filled] == sorted((stop - start for start, stop in filled), reverse=True)
        assert np.array_equal(out, np.matmul(a, b))

    def test_rows_fill_on_the_pool_and_inline_in_one_call(self, pool_of):
        a, b = Tensor(np.ones((1, 64, 1024))), Tensor(np.ones((1, 1024, 75)))
        with pool_of(2):
            # each range waits for the other, so the caller cannot take both
            with _matmul_calls(threading.Barrier(2, timeout=30)) as calls:
                tc.matmul(a, b)
            assert sorted(rows for _, rows in calls) == [28, 36]  # 3 blocks of 12 rows, then 28
            assert len({thread for thread, _ in calls}) == 2
            with _matmul_calls() as calls:
                tc.run_tasks([lambda: tc.matmul(a, b), lambda: None])
            assert calls == [(threading.get_ident(), 64)]


class TestElementwise:
    def test_broadcast_sub_shapes(self):
        x = T(np.arange(6.0).reshape(2, 1, 3))
        w = T(np.ones((1, 4, 3)))
        out = tc.elementwise(np.subtract, x, w)
        assert out.shape == (2, 4, 3)
        np.testing.assert_array_equal(out.data, x.data - w.data)

    def test_add_zero_identity(self):
        a = T([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(tc.elementwise(np.add, a, 0.0).data, a.data)

    def test_scale(self):
        np.testing.assert_array_equal(
            tc.elementwise(np.multiply, T([1.0, 2.0, 3.0]), 2.0).data, [2.0, 4.0, 6.0]
        )

    def test_divide_by_singleton_column(self):
        a = T([[2.0, 4.0], [9.0, 3.0]])
        np.testing.assert_array_equal(tc.elementwise(np.divide, a, T([[2.0], [3.0]])).data, [[1.0, 2.0], [3.0, 1.0]])

    def test_non_singleton_mismatch(self):
        with pytest.raises(ShapeMismatch):
            tc.elementwise(np.add, T(np.ones((2, 3))), T(np.ones((2, 2))))

    def test_rank_mismatch(self):
        with pytest.raises(ShapeMismatch):
            tc.elementwise(np.add, T(np.ones((2, 3))), T(np.ones((1, 2, 3))))


def _sequential_sum(data):
    """Sum over axis 0 one term at a time, left to right, from 0.0."""
    acc = np.zeros((1,) + data.shape[1:])
    for values in data:
        acc = acc + values
    return acc


class TestReduceSum:
    def test_singleton_batch_unchanged(self):
        a = T(np.arange(4.0).reshape(1, 4))
        np.testing.assert_array_equal(tc.reduce_sum(a).data, a.data)

    def test_hand_sum(self):
        a = T([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(tc.reduce_sum(a).data, [[4.0, 6.0]])

    # 200x1x1 and 300x1 (one value per sample) take the cumsum branch, the
    # others the np.sum branch
    @pytest.mark.parametrize("shape", [(13, 7), (200, 1, 1), (300, 1), (4097, 33), (7, 300), (4, 5, 6)])
    def test_deterministic_matches_sequential_loop(self, shape):
        a = Tensor(np.random.default_rng(11).standard_normal(shape) * 1e3)
        np.testing.assert_array_equal(tc.reduce_sum(a).data, _sequential_sum(a.data))

    def test_channels_last_input_matches_sequential_loop(self):
        values = np.random.default_rng(12).standard_normal((300, 40, 5, 6)) * 1e3
        a = Tensor(np.ascontiguousarray(values.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2))
        assert not a.data.flags.c_contiguous
        np.testing.assert_array_equal(tc.reduce_sum(a).data, _sequential_sum(values))

    @pytest.mark.parametrize("shape", [(3, 4), (3, 1)], ids=["np.sum", "cumsum"])
    def test_sum_starts_from_positive_zero(self, shape):
        out = tc.reduce_sum(T(np.full(shape, -0.0)))
        assert not np.signbit(out.data).any()


class TestSoftmax:
    def test_symmetry(self):
        out, _ = tc.softmax(T([[0.0, 0.0]]), 1.0)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_log2_case(self):
        out, _ = tc.softmax(T([[np.log(2.0), 0.0]]), 1.0)
        np.testing.assert_allclose(out.data, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_high_temperature_near_uniform(self):
        rng = np.random.default_rng(3)
        y = Tensor(rng.standard_normal((4, 6)))
        out, _ = tc.softmax(y, 1e9)
        np.testing.assert_allclose(out.data, 1.0 / 6.0, atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        y = Tensor(rng.standard_normal((8, 5)) * 5)
        out, _ = tc.softmax(y, 0.5)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((4, 5))
        a, _ = tc.softmax(Tensor(y), 2.0)
        b, _ = tc.softmax(Tensor(y + 17.3), 2.0)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_invalid_temperature(self):
        with pytest.raises(UsageError, match="temperature must be > 0, got 0.0"):
            tc.softmax(T([[1.0]]), 0.0)
        with pytest.raises(UsageError, match="temperature must be > 0, got -1.0"):
            tc.softmax(T([[1.0]]), -1.0)

    @pytest.mark.parametrize(
        "scale, shift, temperature",
        [(1.0, 0.0, 1.0), (3.0, 0.0, 0.3), (1.0, 700.0, 1.0), (1.0, -700.0, 1.0), (5.0, 0.0, 0.02)],
        ids=["random", "T=0.3", "y~+700", "y~-700", "T=0.02"],
    )
    # the ids name the shape and the axis softmax normalises over
    @pytest.mark.parametrize("shape", [(64, 8, 1), (64, 8)], ids=["shape0-1", "shape1-1"])
    def test_bitwise_equals_four_array_expression(self, shape, scale, shift, temperature):
        y = np.random.default_rng(4).standard_normal(shape) * scale + shift
        # neuron 0 always loses by a wide margin: at T=0.02 its whole column is 0.0
        y[:, 0] -= 100.0
        z = y / temperature
        z = z - np.max(z, axis=1, keepdims=True)
        e = np.exp(z)
        want = e / np.sum(e, axis=1, keepdims=True)
        got, sums = tc.softmax(T(y), temperature)
        got = got.data
        assert np.array_equal(got, want)
        assert np.array_equal(sums.data, np.sum(e, axis=1, keepdims=True))
        if temperature == 0.02:
            assert np.all(got[:, 0] == 0.0)

    ROWS = tc.ROW_BLOCK

    @pytest.mark.parametrize("temperature", [1.0, 0.02])
    @pytest.mark.parametrize(
        "shape, dtype",
        [((2 * ROWS - 1, 32, 1), np.float64), ((2 * ROWS, 32, 1), np.float64), ((2 * ROWS + 1, 32, 1), np.float64),
         ((2 * ROWS + 1, 8), np.float32), ((65536, 32, 1), np.float64)],
        ids=["below-split", "at-split", "above-split", "2d-float32", "conv1"],
    )
    def test_two_workers_give_the_bits_of_one(self, shape, dtype, temperature, pool_of):
        y = np.random.default_rng(shape[0]).standard_normal(shape) * 5.0
        y[:, 0] -= 100.0  # at T=0.02 neuron 0's whole column underflows to 0.0
        y = Tensor(y.astype(dtype))
        runs = []
        for workers in (1, 2):
            with pool_of(workers):
                runs.append(tc.softmax(y, temperature))
        (one, one_sums), (two, two_sums) = runs
        assert two.dtype == two_sums.dtype == dtype
        assert np.array_equal(one.data, two.data)
        assert np.array_equal(one_sums.data, two_sums.data)
        if temperature == 0.02:
            assert np.all(two.data[:, 0] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fills_the_callers_buffer(self, dtype, pool_workers):
        # the caller keeps its buffer writable and gets the bits of a new buffer
        y = Tensor(np.random.default_rng(3).standard_normal((2 * self.ROWS + 1, 10, 1)).astype(dtype))
        out = np.empty(y.shape, dtype=dtype)
        got, sums = tc.softmax(y, 0.3, out)
        want, want_sums = tc.softmax(y, 0.3)
        assert np.shares_memory(got.data, out) and out.flags.writeable
        assert not got.data.flags.writeable and not want.data.flags.writeable
        assert np.array_equal(got.data, want.data) and np.array_equal(sums.data, want_sums.data)

    def test_overflow_in_a_workers_range_keeps_the_callers_errstate(self, pool_of):
        # the first 1024 rows are the caller's range, the rest a worker's; only
        # the worker's rows overflow y / T
        y = np.zeros((2 * self.ROWS, 4, 1))
        y[-1, 0] = 1e300
        with pool_of(2):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                tc.softmax(Tensor(y), 1e-10)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # a warning in any thread raises
                with np.errstate(all="ignore"):
                    scores, _ = tc.softmax(Tensor(y), 1e-10)
        assert np.isnan(scores.data[-1]).all() and np.isfinite(scores.data[:-1]).all()


class TestTrilMask:
    def test_n1(self):
        np.testing.assert_array_equal(tc.tril_mask(1, np.float64).data, [[[1.0]]])

    def test_n2(self):
        np.testing.assert_array_equal(tc.tril_mask(2, np.float64).data, [[[1, 0], [1, 1]]])

    def test_n3_row_sums(self):
        np.testing.assert_array_equal(tc.tril_mask(3, np.float64).data.sum(axis=2), [[1, 2, 3]])

    def test_n0_is_shape_mismatch(self):
        with pytest.raises(ShapeMismatch, match="tril_mask needs n >= 1, got 0"):
            tc.tril_mask(0, np.float64)


BLOCK = tc.ROW_BLOCK


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

    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 64 * BLOCK])
    def test_two_workers_give_the_bits_of_one(self, rows, pool_of):
        a = Tensor(np.random.default_rng(rows).standard_normal((1, rows, 3)))
        runs = []
        for workers in (1, 2):
            with pool_of(workers):
                runs.append(tc.transpose(a).data)
        assert np.array_equal(*runs)

    def test_keeps_dtype_and_counts_one_allocation(self):
        a = Tensor(np.ones((BLOCK + 1, 3), np.float32))
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

    def test_sets_mmap_and_trim_thresholds_and_one_heap(self, monkeypatch):
        calls = []

        class Mallopt:  # takes argtypes and restype like a ctypes function
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=Mallopt()))
        tc._keep_freed_memory()
        # M_MMAP_THRESHOLD 1 GiB, M_TRIM_THRESHOLD 2 GiB - 1, M_ARENA_MAX 1
        assert calls == [(-3, 1 << 30), (-1, 2**31 - 1), (-8, 1)]


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

    @pytest.mark.parametrize("var", [None, *BLAS_THREAD_VARS])
    def test_blas_pinned_unless_the_environment_sets_it(self, monkeypatch, var):
        for name in BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        if var is not None:
            monkeypatch.setenv(var, "2")
        pins = []
        monkeypatch.setattr(tc, "openblas_threads", lambda: (None, pins.append))
        tc._one_blas_thread()
        assert pins == ([] if var else [1])

    def test_no_pin_without_openblas(self, monkeypatch):
        for name in BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(tc, "openblas_threads", lambda: None)
        tc._one_blas_thread()  # nothing to pin, and no error

    @pytest.mark.parametrize("blas", [{}, {"OPENBLAS_NUM_THREADS": "2"}], ids=["default", "user-set-2"])
    def test_fresh_process_blas_threads_and_pool(self, fresh_env, blas):
        cpus = len(os.sched_getaffinity(0))
        if tc.openblas_threads() is None or cpus < 2:
            pytest.skip("needs numpy's OpenBLAS and at least 2 CPUs")
        code = "from fasthebb import tensor as tc; print(tc.openblas_threads()[0](), tc._thread_pool()[1])"
        run = subprocess.run([sys.executable, "-c", code], env=fresh_env(**blas), capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        threads = int(blas.get("OPENBLAS_NUM_THREADS", 1))
        assert [int(v) for v in run.stdout.split()] == [threads, cpus // threads]


class TestSplitRows:
    """Calls on the pool: the caller runs the first call of a ``run_tasks``
    list, and it and the workers take the rest in list order; ``split_rows``
    hands its row ranges to ``run_tasks``.  Calls run inline with one worker
    or on a worker."""

    @pytest.mark.parametrize(
        "count, parts, min_rows, ranges",
        [
            (10, 3, 1, [(0, 3), (3, 6), (6, 10)]),
            (511, 2, 256, [(0, 511)]),
            (512, 2, 256, [(0, 256), (256, 512)]),
            (513, 2, 256, [(0, 256), (256, 513)]),
            (5, 8, 1, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
            (0, 2, 1, [(0, 0)]),
        ],
    )
    def test_row_ranges(self, count, parts, min_rows, ranges):
        assert tc.row_ranges(count, parts, min_rows) == ranges

    @staticmethod
    def _split(count, min_rows=1):
        calls = []
        tc.split_rows(lambda start, stop: calls.append((threading.get_ident(), start, stop)), count, min_rows)
        return calls

    @staticmethod
    def _meeting(first, second=None):
        """``first`` and ``second`` (by default ``first`` again), each after
        a wait for the other to start, so they run on two threads at once or
        time out."""
        barrier = threading.Barrier(2, timeout=30)

        def meet(fn):
            def call(*args):
                barrier.wait()
                return fn(*args)

            return call

        return meet(first), meet(second or first)

    def test_two_workers_split_from_the_caller(self, pool_of):
        with pool_of(2):
            calls = []
            tc.split_rows(self._meeting(lambda start, stop: calls.append((threading.get_ident(), start, stop)))[0], 1000)
            (first, *_), (second, *_) = sorted(calls, key=lambda c: c[1])
            assert sorted(c[1:] for c in calls) == [(0, 500), (500, 1000)]
            assert first == threading.get_ident() != second
            assert self._split(511, 256) == [(threading.get_ident(), 0, 511)]

    def test_results_come_back_in_list_order(self, pool_workers):
        def late(value):
            time.sleep(0.02 * (value == 0))
            return value

        assert tc.run_tasks([lambda value=v: late(value) for v in range(7)]) == list(range(7))
        assert tc.run_tasks([]) == []

    def test_one_worker_runs_inline(self, pool_of):
        main = threading.get_ident()
        with pool_of(1):
            assert self._split(1000) == [(main, 0, 1000)]
            order = []
            assert tc.run_tasks([lambda: order.append((1, threading.get_ident())) or 1,
                                 lambda: order.append((2, threading.get_ident())) or 2]) == [1, 2]
            assert order == [(1, main), (2, main)]

    def test_on_a_worker_runs_inline(self, pool_of):
        # both workers wait on the barrier together, so a split that waited on
        # the pool from a worker would never be served
        barrier = threading.Barrier(2, timeout=30)

        def nested(_):
            barrier.wait()
            me, order = threading.get_ident(), []
            calls = [lambda i=i: order.append(i) or threading.get_ident() for i in range(3)]
            return self._split(1000) == [(me, 0, 1000)] and tc.run_tasks(calls) == [me] * 3 and order == [0, 1, 2]

        results = []
        with pool_of(2):
            runner = threading.Thread(target=lambda: results.extend(tc._thread_pool()[0].map(nested, range(2))))
            runner.start()
            runner.join(timeout=60)
            assert not runner.is_alive()
        assert results == [True, True]

    def test_splits_inside_a_range_run_inline(self, pool_of):
        # the caller's range and the worker's each have one CPU already
        inner = {}

        def fill(start, stop):
            inner[start] = self._split(1000)

        with pool_of(2):
            tc.split_rows(self._meeting(fill)[0], 2)
            assert len(self._split(1000)) == 2  # and the caller's next split uses the pool
        assert inner[0] == [(threading.get_ident(), 0, 1000)]
        ((worker, start, stop),) = inner[1]
        assert (start, stop) == (0, 1000) and worker != threading.get_ident()

    def test_run_tasks_runs_a_call_on_a_worker(self, pool_of):
        with pool_of(2):
            first, second = tc.run_tasks(list(self._meeting(threading.get_ident)))
        assert first == threading.get_ident() != second

    def test_calls_split_inline_and_later_splits_use_the_pool(self, pool_of):
        # inside a call the other calls have the second CPU; once run_tasks
        # returns, or raises, the caller's splits go to the pool again
        def raises(error):
            raise error

        me = threading.get_ident()
        with pool_of(2):
            assert tc.run_tasks([lambda: self._split(1000), lambda: None])[0] == [(me, 0, 1000)]
            assert len(self._split(1000)) == 2
            inner = tc.run_tasks(list(self._meeting(lambda: self._split(1000))))
            assert [len(calls) for calls in inner] == [1, 1]
            assert len(self._split(1000)) == 2
            with pytest.raises(KeyError):
                tc.run_tasks([lambda: raises(KeyError("first")), lambda: None])
            assert len(self._split(1000)) == 2
            with pytest.raises(ValueError):
                tc.run_tasks([lambda: None, lambda: raises(ValueError("second"))])
            assert len(self._split(1000)) == 2

    def test_first_error_in_range_order_after_every_range(self, pool_of):
        done = []

        def fill(start, stop):
            if not start:
                raise KeyError("first range")
            time.sleep(0.05)
            done.append(start)
            raise ValueError(f"range from {start}")

        with pool_of(2), pytest.raises(KeyError, match="first range"):
            tc.split_rows(fill, 10)
        assert done == [5]

    def test_first_error_in_list_order_after_every_call(self, pool_of):
        done = []

        def fails(error, delay):
            def call():
                time.sleep(delay)
                done.append(error)
                raise error

            return call

        with pool_of(2):
            with pytest.raises(KeyError, match="first"):
                tc.run_tasks([fails(KeyError("first"), 0.0), fails(ValueError("second"), 0.05)])
            assert len(done) == 2
            # the second call fails first in time, on the worker
            with pytest.raises(KeyError, match="first"):
                tc.run_tasks(list(self._meeting(fails(KeyError("first"), 0.05), fails(ValueError("second"), 0.0))))
            assert len(done) == 4 and isinstance(done[2], ValueError)
            with pytest.raises(ValueError, match="second"):
                tc.run_tasks([lambda: None, fails(ValueError("second"), 0.05)])

    def test_workers_keep_the_callers_errstate(self, pool_of):
        big = np.full(4, 1e300)
        with pool_of(2), np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                tc.split_rows(lambda start, stop: big[start:stop] * big[start:stop], 4)
            # the caller waits in the first call, so a worker runs the second
            with pytest.raises(FloatingPointError):
                tc.run_tasks(list(self._meeting(lambda: None, lambda: big * big)))

    def test_more_workers_than_cores_fill_each_row_once(self, pool_of):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pool_of(8):
                for count in (1, 7, 100, 1001):
                    out = np.zeros(count)

                    def fill(start, stop):
                        out[start:stop] += np.arange(start, stop) + 1.0

                    tc.split_rows(fill, count)
                    assert np.array_equal(out, np.arange(count) + 1.0)
        finally:
            sys.setswitchinterval(interval)

    def test_pool_fixture_without_a_pool(self, pool_workers):
        assert tc._pool is None  # nothing here made the pool, and the teardown still passes


def test_tensor_is_immutable():
    t = T([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0
