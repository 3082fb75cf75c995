import numpy as np
import pytest

from fasthebb import rules, tensor as tc
from fasthebb.errors import ShapeMismatch
from fasthebb.layers import init_weights
from fasthebb.rules import (
    LearningParams,
    aggregate,
    forward_linear,
    hpca_update_fast,
    hpca_update_naive,
    swta_update_fast,
    swta_update_naive,
)
from fasthebb.tensor import AllocationTracker, Tensor


def rand_case(b, n, s, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((b, 1, s)))
    w = init_weights(n, s, seed=seed + 1)
    return w, x


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), 1e-30)


def swta_terms(w, x, temperature):
    """R, C and Q of the SWTA rule from their documented formulas:
    R = softmax(W·x / T) over neurons, C = R / sum_b R (0 where a column of R
    underflowed to all zeros), Q = sum_b C*R."""
    z = forward_linear(w, x).data / temperature
    z = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(z)
    r = e / np.sum(e, axis=1, keepdims=True)
    col_sums = tc.reduce_sum(Tensor(r)).data
    c = r / np.where(col_sums > 0, col_sums, 1.0)
    q = tc.reduce_sum(Tensor(c * r)).data
    return r, c, q


class TestForwardLinear:
    def test_identity_rows(self):
        w = Tensor(np.eye(3).reshape(1, 3, 3))
        x = Tensor(np.array([[[2.0, -1.0, 4.0]]]))
        np.testing.assert_array_equal(
            forward_linear(w, x).data.ravel(), [2.0, -1.0, 4.0]
        )

    def test_zero_weights(self):
        w = Tensor(np.zeros((1, 4, 3)))
        x = Tensor(np.ones((5, 1, 3)))
        assert np.all(forward_linear(w, x).data == 0)

    def test_hand_dot_product(self):
        w = Tensor([[[1.0, 1.0]]])
        x = Tensor([[[2.0, 3.0]]])
        assert forward_linear(w, x).data.reshape(-1).tolist() == [5.0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            forward_linear(Tensor(np.ones((1, 2, 3))), Tensor(np.ones((4, 1, 2))))

    @pytest.mark.parametrize("n, s", [(32, 75), (64, 288), (16, 784)])
    @pytest.mark.parametrize("b", [100, 511, 512, 513])
    def test_row_ranges_equal_one_product(self, b, n, s, pool_workers):
        # a 2-worker pool splits the rows where each range is above
        # SPLIT_GEMM_ABOVE; at S=784 a product of 50 rows has other bits than
        # the same rows of 100
        w, x = rand_case(b, n, s, seed=b)
        want = np.matmul(x.data.reshape(1, b, s), np.swapaxes(w.data, 1, 2).copy())
        assert np.array_equal(forward_linear(w, x).data, want.reshape(b, n, 1))


    @pytest.mark.parametrize("n, s", [(96, 1152), (96, 2304), (256, 1152), (256, 2304)])
    def test_row_ranges_equal_one_product_at_wide_layers(self, n, s, pool_of):
        # the premise of gemm_ranges at the widths of a deeper stack: a range
        # that starts at a multiple of 12 rows and holds at least 2 rows and
        # more than 100**3 multiply-adds has the bits of one product
        b = 589
        w, x = rand_case(b, n, s, seed=n + s)
        rows, wt = x.data.reshape(1, b, s), np.swapaxes(w.data, 1, 2).copy()
        want = np.matmul(rows, wt)
        cuts = [(0, 12), (12, 300), (252, 516), (576, b)]
        cuts += [r for parts in (2, 3, 7) for r in tc.gemm_ranges(b, parts, [(1, n, s)])]
        for start, stop in cuts:
            assert np.array_equal(np.matmul(rows[:, start:stop], wt), want[:, start:stop])
        with pool_of(2):
            assert np.array_equal(forward_linear(w, x).data, want.reshape(b, n, 1))

    @pytest.mark.parametrize("b, n, s", [(2050, 10, 27), (515, 6, 531)])
    def test_two_workers_give_the_bits_of_one_at_narrow_layers(self, b, n, s, pool_of):
        # halves of these rows are over 256 rows long but at most
        # SPLIT_GEMM_ABOVE multiply-adds, where OpenBLAS's small-matrix path
        # rounds differently from one product
        w, x = rand_case(b, n, s, seed=b + n)
        runs = []
        for workers in (1, 2):
            with pool_of(workers):
                runs.append(forward_linear(w, x).data)
        assert np.array_equal(*runs)


class TestAggregate:
    def test_uniform_coefficients_give_mean(self):
        rng = np.random.default_rng(0)
        per = Tensor(rng.standard_normal((5, 3, 4)))
        coeffs = Tensor(np.full((5, 3, 1), 0.2))
        np.testing.assert_allclose(
            aggregate(coeffs, per).data, per.data.mean(axis=0, keepdims=True),
            rtol=1e-14,
        )

    def test_single_sample_identity(self):
        per = Tensor(np.arange(6.0).reshape(1, 2, 3))
        coeffs = Tensor(np.ones((1, 2, 1)))
        np.testing.assert_array_equal(aggregate(coeffs, per).data, per.data)

    def test_one_hot_selects_row(self):
        rng = np.random.default_rng(1)
        per = Tensor(rng.standard_normal((4, 2, 3)))
        c = np.zeros((4, 2, 1))
        c[2, 0, 0] = 1.0
        c[1, 1, 0] = 1.0
        out = aggregate(Tensor(c), per).data[0]
        np.testing.assert_array_equal(out[0], per.data[2, 0])
        np.testing.assert_array_equal(out[1], per.data[1, 1])


class TestSwta:
    def test_single_neuron_collapses_to_mean(self):
        # N=1: softmax score is 1 for every sample, C = 1/B
        w = Tensor(np.zeros((1, 1, 1)))
        x = Tensor(np.array([[[2.0]], [[4.0]]]))
        params = LearningParams(eta=1.0, rule="swta")
        res = swta_update_naive(w, x, params)
        np.testing.assert_allclose(res.delta_w.data, [[[3.0]]], rtol=1e-14)

    def test_single_sample_is_scaled_rule(self):
        w, x = rand_case(1, 3, 4, seed=2)
        params = LearningParams(eta=0.5, temperature=0.7, rule="swta")
        res = swta_update_naive(w, x, params)
        r, _, _ = swta_terms(w, x, params.temperature)
        expected = 0.5 * r * (x.data - w.data[0])[None, ...].reshape(1, 3, 4)
        np.testing.assert_allclose(res.delta_w.data, expected, rtol=1e-12)

    def test_naive_against_scalar_loop(self):
        b, n, s = 7, 3, 5
        w, x = rand_case(b, n, s, seed=42)
        eta, temp = 0.1, 0.8
        res = swta_update_naive(w, x, LearningParams(eta=eta, temperature=temp, rule="swta"))
        # explicit per-sample scalar oracle
        W, X = w.data[0], x.data[:, 0, :]
        y = np.array([[W[j] @ X[i] for j in range(n)] for i in range(b)])
        r = np.zeros((b, n))
        for i in range(b):
            z = y[i] / temp
            z -= z.max()
            e = np.exp(z)
            r[i] = e / e.sum()
        c = r / r.sum(axis=0, keepdims=True)
        expected = np.zeros((n, s))
        for j in range(n):
            for i in range(b):
                expected[j] += c[i, j] * eta * r[i, j] * (X[i] - W[j])
        np.testing.assert_allclose(res.delta_w.data[0], expected, rtol=1e-10)

    def test_fast_matches_naive(self):
        w, x = rand_case(7, 3, 5, seed=42)
        params = LearningParams(eta=0.1, temperature=0.8, rule="swta")
        naive = swta_update_naive(w, x, params).delta_w.data
        fast = swta_update_fast(w, x, params).delta_w.data
        assert rel_err(naive, fast) <= 1e-10

    def test_fixed_point(self):
        x = Tensor([[[1.5, -2.0]]])
        w = Tensor([[[1.5, -2.0]]])
        res = swta_update_fast(w, x, LearningParams(eta=1.0, rule="swta"))
        np.testing.assert_allclose(res.delta_w.data, 0.0, atol=1e-15)

    def test_score_invariants(self):
        w, x = rand_case(16, 4, 6, seed=3)
        params = LearningParams(eta=0.1, temperature=0.5, rule="swta")
        r, c, q = swta_terms(w, x, params.temperature)
        np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(c.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(q > 0) and np.all(q <= 1.0 + 1e-12)
        # the fast kernel's update is eta * ((C*R)^T X - Q W) from these terms
        want = params.eta * ((c * r)[:, :, 0].T @ x.data[:, 0, :] - q[0] * w.data[0])
        assert rel_err(want, swta_update_fast(w, x, params).delta_w.data[0]) <= 1e-10

    def test_convexity(self):
        # with eta*Q <= 1 each updated coordinate stays inside the span of
        # the old weight and the batch inputs
        w, x = rand_case(9, 3, 4, seed=8)
        params = LearningParams(eta=1.0, temperature=0.6, rule="swta")
        res = swta_update_fast(w, x, params)
        _, _, q = swta_terms(w, x, params.temperature)
        assert np.all(params.eta * q <= 1.0 + 1e-12)
        new_w = w.data + res.delta_w.data
        lo = np.minimum(w.data[0], x.data[:, 0, :].min(axis=0))
        hi = np.maximum(w.data[0], x.data[:, 0, :].max(axis=0))
        assert np.all(new_w[0] >= lo - 1e-12)
        assert np.all(new_w[0] <= hi + 1e-12)

    def test_peak_temp_accounting(self):
        b, n, s = 4096, 64, 75
        w, x = rand_case(b, n, s, seed=0)
        params = LearningParams(eta=0.1, rule="swta")
        naive = swta_update_naive(w, x, params)
        fast = swta_update_fast(w, x, params)
        assert naive.peak_temp_elements >= b * n * s
        assert fast.peak_temp_elements < naive.peak_temp_elements / 10
        assert fast.peak_temp_elements <= n * (b + s) + n * n + 64

    def test_fast_allocates_four_b_by_n_tensors(self, monkeypatch):
        # y, R, C*R and its transpose; C itself is never a tensor of its own
        b, n, s = 37, 5, 3
        w, x = rand_case(b, n, s, seed=6)
        sizes = []
        record = tc._record_alloc
        monkeypatch.setattr(tc, "_record_alloc", lambda count: (sizes.append(count), record(count)))
        swta_update_fast(w, x, LearningParams(eta=0.1, rule="swta"))
        assert 0 < sizes.count(b * n) <= 4

    @pytest.mark.parametrize("temperature", [1.0, 0.01])
    @pytest.mark.parametrize("kernel", [swta_update_naive, swta_update_fast])
    def test_intermediates_keep_their_values(self, kernel, temperature):
        # the kernel's update is the one built from the formulas' R, C and Q, and
        # its metric is bit for bit their mean row maximum of R
        w, x = _losing_neuron_case()
        params = LearningParams(eta=0.1, temperature=temperature, rule="swta")
        r, c, q = swta_terms(w, x, temperature)
        res = kernel(w, x, params)
        want = params.eta * ((c * r)[:, :, 0].T @ x.data[:, 0, :] - q[0] * w.data[0])
        assert rel_err(want, res.delta_w.data[0]) <= 1e-10
        assert res.metric == float(np.mean(np.max(r, axis=1)))

    @pytest.mark.parametrize("temperature", [1.0, 0.3, 0.01])
    def test_naive_and_fast_report_layer_metric(self, temperature):
        w, x = rand_case(300, 7, 5, seed=11)
        x = Tensor(x.data * 4.0)
        params = LearningParams(eta=0.1, temperature=temperature, rule="swta")
        y = forward_linear(w, x)
        want = rules.layer_metric(w, x, y, params)
        assert swta_update_naive(w, x, params).metric == want
        assert swta_update_fast(w, x, params).metric == want

    def test_underflowed_column_keeps_fast_finite(self):
        # at T=0.01 every score of neuron 2 underflows: its column sums to
        # exactly 0.0, and the guard makes its C (and its update) 0 instead of NaN
        w, x = _losing_neuron_case()
        params = LearningParams(eta=0.1, temperature=0.01, rule="swta")
        naive = swta_update_naive(w, x, params)
        r, _, _ = swta_terms(w, x, params.temperature)
        assert np.sum(r[:, 2]) == 0.0
        fast = swta_update_fast(w, x, params).delta_w.data
        assert np.all(np.isfinite(fast))
        assert np.all(fast[0, 2] == 0.0)
        assert rel_err(naive.delta_w.data, fast) <= 1e-10


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("temperature", [1.0, 0.05])
@pytest.mark.parametrize(
    "kernel, b, n, s",
    [(swta_update_fast, 65536, 32, 75), (swta_update_fast, 16384, 64, 288),
     (swta_update_naive, 2048, 32, 75), (swta_update_naive, 2049, 8, 288)],
    ids=["fast-conv1", "fast-conv2", "naive-2048", "naive-2049"],
)
def test_swta_two_workers_give_the_bits_of_one(kernel, b, n, s, temperature, dtype, pool_of):
    # the fast kernels at the benchmark's conv-layer shapes; the naive ones
    # build B x N x S, so they run at the fewest rows that split
    w, x = rand_case(b, n, s, seed=b)
    w, x = Tensor(w.data.astype(dtype)), Tensor((x.data * 3.0).astype(dtype))
    params = LearningParams(eta=0.1, temperature=temperature, rule="swta")
    runs = []
    for workers in (1, 2):
        with pool_of(workers):
            runs.append(kernel(w, x, params))
    one, two = runs
    assert two.delta_w.dtype == dtype
    assert np.array_equal(one.delta_w.data, two.delta_w.data)
    assert one.metric == two.metric
    assert one.peak_temp_elements == two.peak_temp_elements


def _swta_chain(w, x, params):
    """The fast SWTA update as a chain of whole tensor-core calls, each on
    its own buffer: softmax, Σ_b R, C·R by divide and multiply, Σ_b C·R,
    (C·R)ᵀ by transpose, and the pull by matmul.  Its delta_w, metric and
    largest temporary."""
    b, n, s = x.shape[0], w.shape[1], w.shape[2]
    with AllocationTracker() as tr:
        r, row_sums = tc.softmax(forward_linear(w, x), params.temperature)
        col_sums = tc.reduce_sum(r).data
        cr = Tensor(r.data / np.where(col_sums > 0, col_sums, 1.0) * r.data)
        del r
        q = tc.reduce_sum(cr)
        pull = tc.matmul(tc.transpose(tc.reshape(cr, (1, b, n))), tc.reshape(x, (1, b, s)))
        decay = tc.elementwise(np.multiply, q, w)
        delta_w = tc.elementwise(np.multiply, tc.elementwise(np.subtract, pull, decay), params.eta)
    return delta_w.data, float(np.mean(1.0 / row_sums.data)), tr.largest


def _swta_case(b, n, s, dtype):
    """A seeded case whose last neuron trails the first by x_0 >= 5 on every
    sample, so at T = 0.003 its whole column of scores underflows to 0.0."""
    w, x = rand_case(b, n, s, seed=b + n)
    w, x = w.data.copy(), x.data * 3.0
    x[:, 0, 0] = 5.0 + np.abs(x[:, 0, 0])
    w[0, -1] = w[0, 0]
    w[0, -1, 0] -= 1.0
    return Tensor(w.astype(dtype)), Tensor(x.astype(dtype))


@pytest.mark.parametrize("temperature", [1.0, 0.05, 0.003])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "b, n, s",
    [(65536, 32, 75), (16384, 64, 288), (3001, 10, 27), (2050, 230, 64), (1025, 1, 9)],
    ids=["conv1", "conv2", "b-off-block", "n-off-row-block", "one-neuron"],
)
def test_fast_swta_has_the_bits_of_the_whole_call_chain(b, n, s, dtype, temperature, pool_workers):
    # the fused pass over 1024-row blocks and the pull's ranges beside Σ_b C·R
    # keep every bit of the chain, B not a multiple of the block, N not of
    # the GEMM row block and N = 1 (reduce_sum's one-column path) included
    w, x = _swta_case(b, n, s, dtype)
    params = LearningParams(eta=0.1, temperature=temperature, rule="swta")
    want, want_metric, want_peak = _swta_chain(w, x, params)
    got = swta_update_fast(w, x, params)
    uint = np.uint64 if dtype == np.float64 else np.uint32
    assert got.delta_w.dtype == dtype
    assert np.array_equal(got.delta_w.data.view(uint), want.view(uint))
    assert got.metric == want_metric
    assert got.peak_temp_elements == want_peak
    if temperature == 0.003 and n > 1:
        assert np.all(got.delta_w.data[0, -1] == 0.0)  # the underflowed column


@pytest.mark.parametrize("b, n, s", [(65536, 32, 75), (16384, 64, 288)], ids=["conv1", "conv2"])
def test_fast_swta_holds_two_b_by_n_buffers(b, n, s, pool_workers, peak_bytes):
    # the docstring's count: two B x N buffers, the N x S terms, the weights'
    # transpose (N x S) and one block's scratch, with 2 MiB for what numpy
    # and Python hold beside them (the B row sums and row maxima among them)
    w, x = rand_case(b, n, s, seed=3)
    params = LearningParams(eta=0.1, rule="swta")
    swta_update_fast(w, x, params)  # warm-up: the pool's threads and numpy's caches are not the kernel's
    assert peak_bytes(swta_update_fast, w, x, params) <= 8 * (2 * b * n + n * s + n * n + tc.ROW_BLOCK * n) + 2**21


def test_scores_without_a_buffer_outlive_a_kernel_call(pool_workers):
    # the kernel overwrites only the score buffer it made itself
    w, x = rand_case(3001, 10, 27, seed=5)
    params = LearningParams(eta=0.1, temperature=0.5, rule="swta")
    scores, _ = tc.softmax(forward_linear(w, x), params.temperature)
    kept = scores.data.copy()
    swta_update_fast(w, x, params)
    assert not scores.data.flags.writeable
    assert np.array_equal(scores.data, kept)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("b, n, s", [(65536, 32, 75), (16384, 64, 288), (1024, 16, 75)], ids=["conv1", "conv2", "small"])
def test_hpca_two_workers_give_the_bits_of_one(b, n, s, dtype, pool_of):
    # Y^T Y and Y^T X split their neuron rows on two workers at the
    # benchmark's conv-layer shapes; at 1024 x 16 x 75 every product is one
    w, x = rand_case(b, n, s, seed=b)
    w, x = Tensor(w.data.astype(dtype)), Tensor(x.data.astype(dtype))
    params = LearningParams(eta=0.1, rule="hpca")
    runs = []
    for workers in (1, 2):
        with pool_of(workers):
            runs.append(hpca_update_fast(w, x, params))
    one, two = runs
    assert two.delta_w.dtype == dtype
    assert np.array_equal(one.delta_w.data, two.delta_w.data)
    assert one.peak_temp_elements == two.peak_temp_elements


@pytest.mark.parametrize("rule", rules.RULES)
def test_fast_with_split_products_matches_naive(rule, pool_of):
    # at 4096 x 16 x 75 the pull product splits its neuron rows on two workers
    w, x = rand_case(4096, 16, 75, seed=7)
    params = LearningParams(eta=0.1, rule=rule)
    with pool_of(2):
        naive = rules.update_fn(rule, "naive")(w, x, params).delta_w.data
        fast = rules.update_fn(rule, "fast")(w, x, params).delta_w.data
    assert rel_err(naive, fast) <= 1e-10


def _losing_neuron_case():
    """Neuron 2 is neuron 0 mirrored, and every input has x_0 >= 5, so neuron 2
    trails neuron 0 by at least 10 on every sample."""
    rng = np.random.default_rng(17)
    x = rng.standard_normal((16, 1, 4))
    x[:, 0, 0] = 5.0 + np.abs(x[:, 0, 0])
    w = np.array([[[1.0, 0.0, 0.0, 0.0], rng.standard_normal(4), [-1.0, 0.0, 0.0, 0.0]]])
    return Tensor(w), Tensor(x)


class TestHpca:
    def test_zero_weights_fixed_point(self):
        w = Tensor(np.zeros((1, 3, 4)))
        x = Tensor(np.random.default_rng(0).standard_normal((5, 1, 4)))
        res = hpca_update_naive(w, x, LearningParams(eta=1.0, rule="hpca"))
        np.testing.assert_array_equal(res.delta_w.data, 0.0)

    def test_normalized_eigendirection_fixed_point(self):
        w = Tensor([[[1.0, 0.0]]])
        x = Tensor([[[1.0, 0.0]]])
        res = hpca_update_naive(w, x, LearningParams(eta=1.0, rule="hpca"))
        np.testing.assert_allclose(res.delta_w.data, 0.0, atol=1e-15)

    def test_eigenvector_rows_fixed_point(self):
        b, s, n = 64, 8, 4
        rng = np.random.default_rng(21)
        X = rng.standard_normal((b, s))
        moment = X.T @ X / b
        evals, evecs = np.linalg.eigh(moment)
        order = np.argsort(evals)[::-1]
        w = Tensor(evecs[:, order[:n]].T.reshape(1, n, s))
        x = Tensor(X.reshape(b, 1, s))
        for kernel in (hpca_update_naive, hpca_update_fast):
            res = kernel(w, x, LearningParams(eta=1.0, rule="hpca"))
            norm = np.linalg.norm(res.delta_w.data)
            assert norm <= 1e-10 * np.linalg.norm(w.data)

    def test_fast_matches_naive(self):
        w, x = rand_case(11, 4, 6, seed=13)
        params = LearningParams(eta=0.3, rule="hpca")
        naive = hpca_update_naive(w, x, params).delta_w.data
        fast = hpca_update_fast(w, x, params).delta_w.data
        assert rel_err(naive, fast) <= 1e-10

    def test_smallest_case_scalar_formula(self):
        # B=1, N=1: delta_w = eta * y * (x - y*w)
        w = Tensor([[[0.4, -0.2]]])
        x = Tensor([[[1.0, 2.0]]])
        eta = 0.7
        y = 0.4 * 1.0 + (-0.2) * 2.0
        expected = eta * y * (x.data[0, 0] - y * w.data[0, 0])
        res = hpca_update_fast(w, x, LearningParams(eta=eta, rule="hpca"))
        np.testing.assert_allclose(res.delta_w.data[0, 0], expected, rtol=1e-12)

    def test_peak_temp_accounting(self):
        b, n, s = 4096, 64, 75
        w, x = rand_case(b, n, s, seed=0)
        params = LearningParams(eta=0.1, rule="hpca")
        naive = hpca_update_naive(w, x, params)
        fast = hpca_update_fast(w, x, params)
        assert naive.peak_temp_elements >= b * n * s
        assert fast.peak_temp_elements <= n * n + n * s + n * b + 64


@pytest.mark.parametrize("kernel, rule", [(swta_update_naive, "swta"), (hpca_update_naive, "hpca")])
def test_naive_holds_two_b_by_n_by_s_tensors(kernel, rule, peak_bytes):
    # beside them only B x N terms (Y, R, C and the row and column sums),
    # N x S terms (the result and its partial sums) and HPCA's N x N mask
    b, n, s = 256, 64, 288
    w, x = rand_case(b, n, s, seed=7)
    params = LearningParams(eta=0.1, rule=rule)
    kernel(w, x, params)  # warm-up: the pool's threads and numpy's caches are not the kernel's
    assert peak_bytes(kernel, w, x, params) <= 8 * (2 * b * n * s + 4 * b * n + 2 * n * s + n * n)


@pytest.mark.parametrize("rule", ["swta", "hpca"])
def test_delta_linear_in_eta(rule):
    w, x = rand_case(6, 3, 4, seed=5)
    one = rules.update_fn(rule, "fast")(w, x, LearningParams(eta=0.25, rule=rule))
    two = rules.update_fn(rule, "fast")(w, x, LearningParams(eta=0.5, rule=rule))
    np.testing.assert_array_equal(two.delta_w.data, 2.0 * one.delta_w.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rule, impl", sorted(rules._KERNELS))
def test_delta_w_keeps_input_dtype(rule, impl, dtype):
    w, x = rand_case(9, 4, 6, seed=2)
    w, x = Tensor(w.data.astype(dtype)), Tensor(x.data.astype(dtype))
    res = rules.update_fn(rule, impl)(w, x, LearningParams(eta=0.1, rule=rule))
    assert res.delta_w.dtype == dtype


def test_update_fn_unknown():
    with pytest.raises(ValueError):
        rules.update_fn("swta", "turbo")


@pytest.mark.parametrize("rule", rules.RULES)
@pytest.mark.parametrize("impl", ["naive", "fast"])
def test_kernels_return_the_layer_metric_when_asked(rule, impl):
    # SWTA's softmax gives the metric for free, so its kernels return it unasked too
    w, x = rand_case(3000, 32, 4, seed=5)  # two HPCA metric blocks
    params = LearningParams(rule=rule)
    kernel = rules.update_fn(rule, impl)
    want = rules.layer_metric(w, x, forward_linear(w, x), params)
    asked = kernel(w, x, params, metric=True)
    assert asked.metric == want
    unasked = kernel(w, x, params)
    assert np.array_equal(asked.delta_w.data, unasked.delta_w.data)
    assert unasked.metric == (want if rule == rules.RULE_SWTA else None)


@pytest.mark.parametrize("n, s", [(32, 75), (64, 288)])
@pytest.mark.parametrize("b", [255, 256, 1024, 1025, 2047, 2048, 2560, 5000])
def test_hpca_metric_in_row_blocks_equals_one_pass(b, n, s):
    # blocks of about 1024 rows: every row keeps the bits of the whole-batch formula
    w, x = rand_case(b, n, s, seed=b)
    y = forward_linear(w, x)
    assert rules.layer_metric(w, x, y, LearningParams(rule="hpca")) == _one_pass_hpca_metric(w, x, y)


def _one_pass_hpca_metric(w, x, y):
    """The HPCA metric's formula over the whole batch at once."""
    x2, y2 = x.data[:, 0], y.data[:, :, 0]
    yg = np.matmul(y2[None], np.matmul(w.data, np.swapaxes(w.data, 1, 2).copy()))[0]
    sq = np.einsum("ij,ij->i", x2, x2) - 2.0 * np.einsum("ij,ij->i", y2, y2) + np.einsum("ij,ij->i", yg, y2)
    return float(np.mean(np.sqrt(np.maximum(sq, 0.0))))


def _first_row(view):
    """The index of the first row of ``view`` in the buffer it views."""
    root = view
    while isinstance(root.base, np.ndarray):
        root = root.base
    return (view.ctypes.data - root.ctypes.data) // view.strides[-2]


@pytest.mark.parametrize("in_kernel", [False, True], ids=["layer_metric", "kernel"])
def test_hpca_metric_blocks_are_premise_cuts(in_kernel, pool_workers, monkeypatch):
    # at N = 230, blocks that start off the 12-row blocks gave rows of yWWᵀ
    # with other bits in their last 230 % 8 columns than one product
    b, n, s = 20000, 230, 75
    w, x = rand_case(b, n, s, seed=6)
    y, params = forward_linear(w, x), LearningParams(rule="hpca")
    calls, original = [], np.matmul

    def spy(lhs, rhs, **kw):
        out = original(lhs, rhs, **kw)
        if rhs.shape == (1, n, n):  # only the metric's yWWᵀ has an N x N right operand
            calls.append((_first_row(lhs), lhs.shape[-2], rhs, out))
        return out

    monkeypatch.setattr(np, "matmul", spy)
    value = hpca_update_fast(w, x, params, metric=True).metric if in_kernel else rules.layer_metric(w, x, y, params)
    monkeypatch.undo()
    assert value == _one_pass_hpca_metric(w, x, y)
    calls.sort(key=lambda call: call[0])
    assert [start for start, *_ in calls] == [0] + list(np.cumsum([rows for _, rows, *_ in calls])[:-1])
    assert sum(rows for _, rows, *_ in calls) == b and len(calls) == b // 1024
    one = np.matmul(y.data.reshape(1, b, n), calls[0][2])
    for start, rows, _, out in calls:
        assert start % tc.GEMM_ROW_BLOCK == 0 and rows >= 2 and rows * n * n > tc.SPLIT_GEMM_ABOVE
        assert np.array_equal(out, one[:, start : start + rows])
