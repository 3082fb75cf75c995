import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from fasthebb import layers
from fasthebb.config import parse_config
from fasthebb.errors import ConfigError, NonFiniteWeights, ShapeMismatch
from fasthebb.experiment import build_stack
from fasthebb.layers import (
    ConvGeometry,
    Flatten,
    HebbLayer,
    MaxPool,
    ReLU,
    apply_update,
    conv_forward,
    extract_patches,
    hebb_update,
    init_weights,
    max_pool,
    out_extent,
    relu,
)
from fasthebb.data import Dataset
from fasthebb.pipeline import extract_features, forward_stack
from fasthebb.rules import LearningParams, UpdateResult, forward_linear, update_fn
from fasthebb.tensor import AllocationTracker, Tensor


def window_copy(images, geometry):
    """The patch batch as a copy of the 6-d window view: the reference the
    gather in ``extract_patches`` must match bit for bit."""
    g = geometry
    padded = np.pad(images, ((0, 0), (0, 0), (g.padding,) * 2, (g.padding,) * 2))
    windows = sliding_window_view(padded, (g.kernel_h, g.kernel_w), axis=(2, 3))[:, :, :: g.stride, :: g.stride]
    return np.transpose(windows, (0, 2, 3, 1, 4, 5)).reshape(-1, 1, g.patch_size)


def conv_oracle(images, weights, geometry):
    """Nested-loop convolution, independent of the patch-matmul path."""
    b, c, h, w = images.shape
    g = geometry
    out_h = (h + 2 * g.padding - g.kernel_h) // g.stride + 1
    out_w = (w + 2 * g.padding - g.kernel_w) // g.stride + 1
    padded = np.pad(images, ((0, 0), (0, 0), (g.padding,) * 2, (g.padding,) * 2))
    n = weights.shape[1]
    kernels = weights[0].reshape(n, c, g.kernel_h, g.kernel_w)
    out = np.zeros((b, n, out_h, out_w))
    for bi in range(b):
        for ni in range(n):
            for i in range(out_h):
                for j in range(out_w):
                    window = padded[
                        bi, :, i * g.stride : i * g.stride + g.kernel_h,
                        j * g.stride : j * g.stride + g.kernel_w,
                    ]
                    out[bi, ni, i, j] = np.sum(window * kernels[ni])
    return out


class TestExtractPatches:
    def test_3x3_kernel2_enumeration(self):
        img = Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
        batch = extract_patches(img, ConvGeometry(2, 2, 1))
        expected = [[1, 2, 4, 5], [2, 3, 5, 6], [4, 5, 7, 8], [5, 6, 8, 9]]
        np.testing.assert_array_equal(batch.patches.data.reshape(4, 4), expected)

    def test_full_image_kernel(self):
        rng = np.random.default_rng(0)
        img = Tensor(rng.standard_normal((2, 3, 4, 5)))
        batch = extract_patches(img, ConvGeometry(4, 5, 3))
        assert batch.patches.shape == (2, 1, 60)
        np.testing.assert_array_equal(
            batch.patches.data[0, 0], img.data[0].ravel()
        )

    def test_zero_image_with_padding(self):
        img = Tensor(np.zeros((1, 1, 3, 3)))
        batch = extract_patches(img, ConvGeometry(2, 2, 1, padding=1))
        assert np.all(batch.patches.data == 0)
        assert batch.patches.shape[0] == 16

    def test_patch_count(self):
        rng = np.random.default_rng(1)
        for b, h, w, k, stride, pad in [(2, 5, 5, 3, 1, 0), (3, 6, 4, 2, 2, 1)]:
            img = Tensor(rng.standard_normal((b, 2, h, w)))
            batch = extract_patches(img, ConvGeometry(k, k, 2, stride, pad))
            assert batch.patches.shape[0] == b * out_extent(h, k, stride, pad) * out_extent(w, k, stride, pad)

    def test_geometry_underflow(self):
        with pytest.raises(ConfigError, match="kernel 4 exceeds padded extent 2"):
            extract_patches(Tensor(np.zeros((1, 1, 2, 2))), ConvGeometry(4, 4, 1))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatch):
            extract_patches(Tensor(np.zeros((1, 2, 4, 4))), ConvGeometry(2, 2, 3))

    @pytest.mark.parametrize(
        "geometry",
        [ConvGeometry(0, 2, 1), ConvGeometry(2, 2, 1, stride=0), ConvGeometry(2, 2, 1, padding=-1)],
        ids=["kernel-0", "stride-0", "pad-negative"],
    )
    def test_bad_geometry(self, geometry):
        with pytest.raises(ConfigError, match="need kernel >= 1, stride >= 1 and padding >= 0"):
            extract_patches(Tensor(np.zeros((1, 1, 4, 4))), geometry)

    @pytest.mark.parametrize("geometry", [ConvGeometry(5, 5, 3, padding=2), ConvGeometry(3, 2, 3, stride=2)])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_split_over_images_is_the_window_copy(self, b, geometry, pool_workers):
        images = np.random.default_rng(b).standard_normal((b, 3, 9, 8))
        want = window_copy(images, geometry)
        got = extract_patches(Tensor(images), geometry).patches.data
        assert got.shape == want.shape and np.array_equal(got, want)


class TestPatchGather:
    """The cached-index gather gives every bit of the window copy, NaN
    payloads and the sign of zero included, and its index is safe to share."""

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)], ids=["f32", "f64"])
    @pytest.mark.parametrize("kernel", [(3, 2), (2, 4)], ids=["3x2", "2x4"])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("b", [1, 17])
    def test_gather_is_the_window_copy_bit_for_bit(self, b, padding, stride, kernel, dtype, bits, pool_workers):
        rng = np.random.default_rng([b, padding, stride, *kernel])
        info = np.iinfo(bits)
        # every bit pattern: NaNs with payloads, infinities, subnormals, -0.0
        images = rng.integers(0, info.max, size=(b, 2, 7, 6), dtype=bits, endpoint=True).view(dtype)
        g = ConvGeometry(*kernel, 2, stride=stride, padding=padding)
        want = window_copy(images, g)
        got = extract_patches(Tensor(images), g).patches.data
        assert got.dtype == dtype and got.shape == want.shape
        assert np.array_equal(got.view(bits), want.view(bits))

    @pytest.mark.parametrize(
        "shape, geometry",
        [((3, 32, 32), ConvGeometry(5, 5, 3, padding=2)), ((32, 16, 16), ConvGeometry(3, 3, 32, padding=1)),
         ((2, 7, 6), ConvGeometry(3, 2, 2, stride=3, padding=2)), ((1, 4, 5), ConvGeometry(4, 5, 1))],
    )
    def test_index_stays_inside_one_padded_image(self, shape, geometry):
        # mode="clip" would clamp an out-of-range offset silently; none exists
        c, h, w = shape
        g = geometry
        hp, wp = h + 2 * g.padding, w + 2 * g.padding
        extract_patches(Tensor(np.zeros((1, *shape))), g)
        idx = layers._patch_index(c, hp, wp, g.kernel_h, g.kernel_w, g.stride)
        rows = out_extent(h, g.kernel_h, g.stride, g.padding) * out_extent(w, g.kernel_w, g.stride, g.padding)
        assert idx.dtype == np.intp and idx.shape == (rows * g.patch_size,)
        assert idx.min() == 0 and idx.max() < c * hp * wp

    def test_index_is_read_only_and_built_once_per_shape(self):
        layers._patch_index.cache_clear()
        g = ConvGeometry(3, 3, 2, padding=1)
        for b in (1, 4, 9):
            extract_patches(Tensor(np.ones((b, 2, 6, 6))), g)
        extract_patches(Tensor(np.ones((2, 2, 6, 7))), g)
        info = layers._patch_index.cache_info()
        assert (info.misses, info.hits) == (2, 2)
        idx = layers._patch_index(2, 8, 8, 3, 3, 1)
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 1


def channels_last(images):
    """The values of B x C x H x W ``images`` in a B x H x W x C buffer, as a
    conv stage stores its output."""
    return np.ascontiguousarray(np.transpose(images, (0, 2, 3, 1))).transpose(0, 3, 1, 2)


class TestChannelsLast:
    """A conv stage's output is a channels-last view of its forward rows;
    every stage after it reads the same values by their logical indices."""

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)], ids=["f32", "f64"])
    @pytest.mark.parametrize("kernel", [(3, 2), (2, 4)], ids=["3x2", "2x4"])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("b", [1, 17])
    def test_gather_is_the_window_copy_bit_for_bit(self, b, padding, stride, kernel, dtype, bits, pool_workers):
        rng = np.random.default_rng([b, padding, stride, *kernel])
        info = np.iinfo(bits)
        images = rng.integers(0, info.max, size=(b, 2, 7, 6), dtype=bits, endpoint=True).view(dtype)
        g = ConvGeometry(*kernel, 2, stride=stride, padding=padding)
        source = Tensor(channels_last(images))
        assert not source.data.flags.c_contiguous
        want = window_copy(images, g)
        got = extract_patches(source, g).patches.data
        assert got.dtype == dtype and got.shape == want.shape
        assert np.array_equal(got.view(bits), want.view(bits))

    def test_index_stays_inside_one_padded_image(self):
        c, hp, wp = 32, 18, 18
        idx = layers._patch_index(c, hp, wp, 3, 3, 1, True)
        assert idx.min() == 0 and idx.max() == c * hp * wp - 1 and not idx.flags.writeable

    def test_wraps_channels_last_without_a_copy(self):
        a = channels_last(np.random.default_rng(0).standard_normal((2, 3, 4, 5)))
        t = Tensor(a)
        assert np.shares_memory(t.data, a) and t.data.strides == a.strides
        assert not t.data.flags.writeable and a.flags.writeable

    @pytest.mark.parametrize(
        "view",
        [lambda x: x[..., ::2], lambda x: x.transpose(0, 1, 3, 2), lambda x: x.transpose(0, 2, 1, 3), lambda x: x[0].T],
        ids=["strided", "hw-swapped", "other-permutation", "transposed-3d"],
    )
    def test_copies_any_other_view_to_row_major(self, view):
        x = view(np.arange(2.0 * 3 * 4 * 6).reshape(2, 3, 4, 6))
        t = Tensor(x)
        assert t.data.flags.c_contiguous and not np.shares_memory(t.data, x)
        assert np.array_equal(t.data, x)

    @pytest.mark.parametrize("stage", [relu, lambda x: max_pool(x, 2, 2), lambda x: max_pool(x, 3, 2)],
                             ids=["relu", "pool-2-2", "pool-3-2"])
    def test_relu_and_max_pool_keep_the_layout(self, stage, pool_workers):
        images = np.random.default_rng(1).standard_normal((5, 4, 9, 8))
        got = stage(Tensor(channels_last(images))).data
        assert not got.flags.c_contiguous and got.transpose(0, 2, 3, 1).flags.c_contiguous
        want = stage(Tensor(images)).data
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_conv_stage_output_is_a_view_of_its_forward(self):
        g = ConvGeometry(3, 3, 2, stride=2, padding=1)
        layer = HebbLayer(init_weights(4, g.patch_size, seed=0), LearningParams(rule="hpca"), g)
        x = Tensor(np.random.default_rng(2).standard_normal((3, 2, 7, 6)))
        y = forward_linear(layer.weights, layers.layer_rows(layer, x))
        out = layers.layer_output(layer, y, x)
        assert out.shape == (3, 4, 4, 3) and np.shares_memory(out.data, y.data)
        assert out.data.transpose(0, 2, 3, 1).flags.c_contiguous
        np.testing.assert_allclose(out.data, conv_oracle(x.data, layer.weights.data, g), atol=1e-12)

    def test_conv_forward_allocates_patches_and_forward_only(self):
        g = ConvGeometry(3, 3, 2, padding=1)
        layer = HebbLayer(init_weights(4, g.patch_size, seed=0), LearningParams(rule="hpca"), g)
        x = Tensor(np.random.default_rng(3).standard_normal((2, 2, 5, 6)))
        b_eff, n, s = 2 * 5 * 6, layer.num_neurons, g.patch_size
        with AllocationTracker() as tracker:
            conv_forward(layer, x)
        # the patches, the transposed weights of the product, its rows y; no output copy
        assert tracker.total == b_eff * s + n * s + b_eff * n

    def test_flatten_copies_channels_last_in_chw_order(self):
        images = np.random.default_rng(4).standard_normal((3, 4, 5, 6))
        x = Tensor(channels_last(images))
        with AllocationTracker() as tracker:
            flat = Flatten().forward(x)
        assert tracker.total == images.size
        assert flat.data.flags.c_contiguous and np.array_equal(flat.data, images.reshape(3, -1))

    def _conv(self, rule="hpca", n=4):
        g = ConvGeometry(3, 3, 3, padding=1)
        return HebbLayer(init_weights(n, g.patch_size, seed=5), LearningParams(rule=rule), g)

    def _chw_forward(self, layer, images):
        """The conv forward's values as a row-major B x N x H x W copy, from
        the window copy's rows, independent of the stage-output layout."""
        b, _, h, w = images.shape
        rows = window_copy(images, layer.geometry)
        y = forward_linear(layer.weights, Tensor(rows)).data
        return np.ascontiguousarray(y.reshape(b, h, w, -1).transpose(0, 3, 1, 2))

    @pytest.mark.parametrize("rule", ["hpca", "swta"])
    def test_dense_layer_after_conv_sees_chw_order(self, rule):
        conv = self._conv()
        images = np.random.default_rng(6).standard_normal((4, 3, 6, 5))
        out = conv_forward(conv, Tensor(images))
        chw = self._chw_forward(conv, images)
        assert np.array_equal(out.data, chw)
        dense = HebbLayer(init_weights(3, chw[0].size, seed=7), LearningParams(rule=rule))
        assert np.array_equal(conv_forward(dense, out).data, conv_forward(dense, Tensor(chw)).data)
        got, want = hebb_update(dense, out), hebb_update(dense, Tensor(chw))
        assert np.array_equal(got.delta_w.data, want.delta_w.data)

    def test_features_of_a_stack_ending_in_a_conv_stage_are_in_chw_order(self, pool_workers):
        conv = self._conv()
        images = np.random.default_rng(8).standard_normal((20, 3, 6, 5))
        features = extract_features([conv, ReLU()], Dataset(images, np.zeros(20, dtype=np.int64), 1))
        want = np.maximum(self._chw_forward(conv, images), 0.0).reshape(20, -1)
        assert np.array_equal(features, want)


class TestInitWeights:
    @pytest.mark.parametrize("n, s", [(0, 4), (3, 0), (-1, 4), (3, -2)])
    def test_empty_block_is_config_error(self, n, s):
        with pytest.raises(ConfigError, match=f"n={n} and s={s}") as caught:
            init_weights(n, s, seed=0)
        assert caught.value.exit_code == 2

    def test_bad_conv_geometry_keeps_its_message(self):
        model = "[model]\nlayer1 = conv kh=3 kw=-1 n=2\n"
        with pytest.raises(ConfigError, match="^layer1: need kernel >= 1"):
            build_stack(parse_config(model), (3, 8, 8), 0.01)


class TestConvForward:
    def test_1x1_identity_kernel(self):
        rng = np.random.default_rng(2)
        img = Tensor(rng.standard_normal((2, 1, 4, 4)))
        layer = HebbLayer(
            Tensor(np.ones((1, 1, 1))), LearningParams(rule="swta"),
            geometry=ConvGeometry(1, 1, 1),
        )
        np.testing.assert_array_equal(conv_forward(layer, img).data, img.data)

    def test_zero_weights(self):
        img = Tensor(np.random.default_rng(3).standard_normal((1, 2, 5, 5)))
        layer = HebbLayer(
            Tensor(np.zeros((1, 4, 8))), LearningParams(rule="swta"),
            geometry=ConvGeometry(2, 2, 2),
        )
        assert np.all(conv_forward(layer, img).data == 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_nested_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        img = Tensor(rng.standard_normal((2, 3, 6, 6)))
        geometry = ConvGeometry(3, 3, 3, stride=2, padding=1)
        layer = HebbLayer(
            init_weights(4, geometry.patch_size, seed=seed),
            LearningParams(rule="hpca"), geometry=geometry,
        )
        out = conv_forward(layer, img)
        expected = conv_oracle(img.data, layer.weights.data, geometry)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_dense_layer(self):
        # a dense layer takes the same path, with each sample flattened as its row
        x = Tensor(np.random.default_rng(6).standard_normal((5, 2, 3, 3)))
        layer = HebbLayer(init_weights(4, 18, seed=1), LearningParams(rule="hpca"))
        expected = layers.layer_output(layer, forward_linear(layer.weights, layers.layer_rows(layer, x)), x)
        out = conv_forward(layer, x)
        assert out.shape == (5, 4)
        np.testing.assert_array_equal(out.data, expected.data)
        np.testing.assert_array_equal(layer.forward(x).data, expected.data)

    def test_holds_two_of_patches_forward_and_output(self, peak_bytes):
        g = ConvGeometry(5, 5, 3, padding=2)
        layer = HebbLayer(init_weights(32, g.patch_size, seed=0), LearningParams(rule="hpca"), g)
        img = Tensor(np.random.default_rng(1).uniform(size=(16, 3, 32, 32)))
        b_eff = 16 * 32 * 32
        patches, y = 8 * b_eff * g.patch_size, 8 * b_eff * layer.num_neurons
        conv_forward(layer, img)  # warm-up: the pool's threads are not the forward's
        assert peak_bytes(conv_forward, layer, img) <= max(patches + y, 2 * y) + 2**21


class TestHebbUpdate:
    @pytest.mark.parametrize("rule", ["swta", "hpca"])
    def test_conv_equals_dense_on_patches(self, rule):
        rng = np.random.default_rng(4)
        img = Tensor(rng.standard_normal((1, 2, 5, 5)))
        geometry = ConvGeometry(3, 3, 2)
        layer = HebbLayer(
            init_weights(3, geometry.patch_size, seed=0),
            LearningParams(eta=0.1, temperature=0.5, rule=rule),
            geometry=geometry, update_impl="fast",
        )
        conv_res = hebb_update(layer, img)
        patches = extract_patches(img, geometry).patches
        dense_res = update_fn(rule, "fast")(layer.weights, patches, layer.params)
        np.testing.assert_array_equal(conv_res.delta_w.data, dense_res.delta_w.data)

    def test_stride_image_size_equals_dense_on_flat(self):
        rng = np.random.default_rng(5)
        img = Tensor(rng.standard_normal((4, 1, 3, 3)))
        geometry = ConvGeometry(3, 3, 1, stride=3)
        layer = HebbLayer(
            init_weights(2, 9, seed=1), LearningParams(eta=0.1, rule="swta"),
            geometry=geometry, update_impl="fast",
        )
        conv_res = hebb_update(layer, img)
        flat = Tensor(img.data.reshape(4, 1, 9))
        dense_res = update_fn("swta", "fast")(layer.weights, flat, layer.params)
        np.testing.assert_array_equal(conv_res.delta_w.data, dense_res.delta_w.data)

    def test_conv_fast_matches_naive(self):
        rng = np.random.default_rng(6)
        img = Tensor(rng.standard_normal((2, 2, 6, 6)))
        geometry = ConvGeometry(3, 3, 2, stride=1, padding=1)
        for rule in ("swta", "hpca"):
            results = {}
            for impl in ("naive", "fast"):
                layer = HebbLayer(
                    init_weights(3, geometry.patch_size, seed=2),
                    LearningParams(eta=0.05, rule=rule),
                    geometry=geometry, update_impl=impl,
                )
                results[impl] = hebb_update(layer, img).delta_w.data
            err = np.linalg.norm(results["naive"] - results["fast"]) / max(
                np.linalg.norm(results["naive"]), 1e-30
            )
            assert err <= 1e-10

    def test_update_does_not_mutate_weights(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((4, 1, 1, 6)))
        layer = HebbLayer(init_weights(2, 6, seed=3), LearningParams(eta=0.5, rule="swta"))
        before = layer.weights.data.copy()
        hebb_update(layer, x)
        np.testing.assert_array_equal(layer.weights.data, before)


class TestApplyUpdate:
    def _layer(self):
        return HebbLayer(init_weights(2, 3, seed=0), LearningParams(rule="swta"))

    def test_zero_update_is_noop(self):
        layer = self._layer()
        res = UpdateResult(Tensor(np.zeros((1, 2, 3))))
        np.testing.assert_array_equal(
            apply_update(layer, res).weights.data, layer.weights.data
        )

    def test_two_applies_equal_summed(self):
        layer = self._layer()
        rng = np.random.default_rng(9)
        d1 = rng.standard_normal((1, 2, 3))
        d2 = rng.standard_normal((1, 2, 3))
        seq = apply_update(
            apply_update(layer, UpdateResult(Tensor(d1))), UpdateResult(Tensor(d2))
        )
        merged = apply_update(layer, UpdateResult(Tensor(d1 + d2)))
        np.testing.assert_allclose(seq.weights.data, merged.weights.data, rtol=1e-14)

    def test_nan_guard(self):
        layer = self._layer()
        bad = np.zeros((1, 2, 3))
        bad[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteWeights):
            apply_update(layer, UpdateResult(Tensor(bad)))

    def test_shape_guard(self):
        with pytest.raises(ShapeMismatch):
            apply_update(self._layer(), UpdateResult(Tensor(np.zeros((1, 2, 4)))))


class TestFixedFunction:
    def test_relu(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_max_pool_constant(self):
        img = Tensor(np.full((1, 1, 4, 4), 3.5))
        out = max_pool(img, 2, 2)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 3.5))

    def test_max_pool_2x2(self):
        img = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        np.testing.assert_array_equal(max_pool(img, 2, 2).data, [[[[4.0]]]])

    def test_flatten_empty_batch(self):
        assert Flatten().forward(Tensor(np.zeros((0, 3, 4, 5)))).shape == (0, 60)

    def test_out_shape_is_the_shape_of_the_forward(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 9, 7)))
        stack = [
            HebbLayer(init_weights(4, 27, seed=0), LearningParams(), ConvGeometry(3, 3, 3, stride=2, padding=1)),
            ReLU(),
            MaxPool(2, 1),
            Flatten(),
            HebbLayer(init_weights(5, 48, seed=1), LearningParams()),
        ]
        for stage in stack:
            want = (2, *stage.out_shape(x.shape[1:]))
            x = stage.forward(x)
            assert x.shape == want
        assert x.shape == (2, 5)

    def test_max_pool_geometry_error(self):
        with pytest.raises(ConfigError, match="kernel 3 exceeds padded extent 2"):
            max_pool(Tensor(np.zeros((1, 1, 2, 2))), 3, 1)

    def test_relu_keeps_nan_and_the_sign_of_zero(self, pool_workers):
        # np.maximum keeps a NaN and returns its second operand on a tie, so
        # relu(-0.0) is +0.0, in every range of images
        x = np.random.default_rng(2).standard_normal((5, 3, 4, 4))
        x[0, 0, 0, :3] = x[4, 2, 3, :3] = [np.nan, -0.0, 0.0]
        got = relu(Tensor(x)).data
        assert np.array_equal(got, np.where(np.isnan(x) | (x > 0), x, 0.0), equal_nan=True)
        assert np.isnan(got[0, 0, 0, 0]) and np.isnan(got[4, 2, 3, 0])
        assert not np.signbit(got).any()


class TestMaxPoolProperty:
    """max_pool against the window view, on overlapping windows (window >
    stride), gapped ones (window < stride), extents the stride does not
    divide, and inputs seeded with +0.0, -0.0 and NaN; the split over images
    on a 2-worker pool gives the bits of the 1-worker run."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        b=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 13), w=st.integers(1, 13),
        window=st.integers(1, 4), stride=st.integers(1, 4), seed=st.integers(0, 2**16),
    )
    def test_matches_window_view(self, pool_of, b, c, h, w, window, stride, seed):
        # pool_of only hands out a context manager, so sharing it between examples is safe
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, c, h, w))
        x[rng.random(x.shape) < 0.3] = 0.0
        x[rng.random(x.shape) < 0.3] = -0.0
        x[rng.random(x.shape) < 0.05] = np.nan
        if window > min(h, w):
            with pytest.raises(ConfigError, match=f"kernel {window} exceeds padded extent"):
                max_pool(Tensor(x), window, stride)
            return
        runs = []
        for workers in (1, 2):
            with pool_of(workers):
                runs.append(max_pool(Tensor(x), window, stride).data)
        got = runs[1]
        assert np.array_equal(runs[0], got, equal_nan=True)
        assert np.array_equal(np.signbit(runs[0]), np.signbit(got))
        view = sliding_window_view(x, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
        want = view.max(axis=(4, 5))
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        # A window whose maximum is a zero present with both signs may give
        # either sign from .max, depending on how numpy orders the reduction
        # for the view's memory layout; everywhere else the sign bits agree.
        zero = view == 0
        mixed = (want == 0) & (zero & np.signbit(view)).any(axis=(4, 5)) & (
            zero & ~np.signbit(view)
        ).any(axis=(4, 5))
        assert np.array_equal(np.signbit(got)[~mixed], np.signbit(want)[~mixed])
        # There the last of the tied zeros in row-major window order wins,
        # as in a sequential maximum loop.
        seq = view[..., 0, 0]
        for i in range(window):
            for j in range(window):
                seq = np.maximum(seq, view[..., i, j])
        assert np.array_equal(got, seq, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(seq))

    @pytest.mark.parametrize("window, stride", [(0, 1), (2, 0)])
    def test_window_and_stride_must_be_positive(self, window, stride):
        with pytest.raises(ConfigError, match="need kernel >= 1, stride >= 1 and padding >= 0"):
            max_pool(Tensor(np.zeros((1, 1, 4, 4))), window, stride)


class TestBuildStackShapes:
    """build_stack infers each Hebbian layer's input size from the same
    out_shape the stages run; a wrong inference would surface as a
    ShapeMismatch when forward_stack reaches the next Hebbian layer.  Values
    come from [-2, 12] (n from [-2, 4]), half the time from their valid low
    end, so that about one stack in ten builds."""

    @settings(max_examples=300, deadline=None)
    @given(
        opts=st.lists(st.one_of(st.integers(1, 3), st.integers(-2, 12)), min_size=9, max_size=9),
        n=st.lists(st.one_of(st.integers(1, 4), st.integers(-2, 4)), min_size=3, max_size=3),
    )
    def test_builds_a_stack_that_runs_or_raises_config_error(self, opts, n):
        kh, kw, stride, pad, window, pool_stride, k, stride2, pad2 = opts
        model = "\n".join([
            "[model]",
            f"layer1 = conv kh={kh} kw={kw} stride={stride} pad={pad} n={n[0]}",
            "layer2 = relu",
            f"layer3 = maxpool window={window} stride={pool_stride}",
            f"layer4 = conv k={k} stride={stride2} pad={pad2} n={n[1]}",
            "layer5 = flatten",
            f"layer6 = dense n={n[2]}",
        ])
        try:
            stack = build_stack(parse_config(model), (3, 8, 8), 0.01)
        except ConfigError as exc:
            assert str(exc).startswith("layer")
            return
        assert forward_stack(stack, Tensor(np.zeros((2, 3, 8, 8)))).shape == (2, n[2])
