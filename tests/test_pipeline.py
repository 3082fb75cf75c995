import multiprocessing
import os
import re
import struct
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from fasthebb import data as dio, layers, pipeline, rules, tensor as tc
from fasthebb.data import Dataset
from fasthebb.errors import ConfigError, CorruptFile, EmptyLabeledSet, NonFiniteWeights, ShapeMismatch
from fasthebb.layers import (
    ConvGeometry,
    Flatten,
    HebbLayer,
    MaxPool,
    ReLU,
    apply_update,
    hebb_update,
    init_weights,
    layer_rows,
)
from fasthebb.pipeline import (
    LinearProbe,
    TrainConfig,
    evaluate,
    extract_features,
    forward_stack,
    learning_rate,
    load_checkpoint,
    pretrain,
    probe_loss_grad,
    save_checkpoint,
    train_probe,
)
from fasthebb.rules import LearningParams
from fasthebb.tensor import Tensor


class TestLearningRateSchedule:
    def test_against_table(self):
        # 20 epochs: constant for the first 10, then halved every 2
        base = 1e-3
        expected = [base] * 10 + [
            base / 2, base / 2, base / 4, base / 4, base / 8,
            base / 8, base / 16, base / 16, base / 32, base / 32,
        ]
        actual = [learning_rate(base, e, 20) for e in range(20)]
        np.testing.assert_allclose(actual, expected, rtol=1e-15)


class TestPretrain:
    def test_no_hebbian_layers_is_identity(self):
        ds = dio.synth_gaussian(20, 3, 1.0, seed=0)
        stack, metrics = pretrain([ReLU(), Flatten()], ds, TrainConfig(epochs=2))
        assert metrics.epoch_metrics == []

    def test_hpca_aligns_with_top_eigenvector(self):
        theta = 0.6
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        cov = rot @ np.diag([9.0, 1.0]) @ rot.T
        x = np.random.default_rng(3).standard_normal((500, 2)) @ np.linalg.cholesky(cov).T
        ds = Dataset(x.reshape(500, 1, 1, 2), np.zeros(500, dtype=np.int64), 1)
        x = ds.images.reshape(500, 2)
        evals, evecs = np.linalg.eigh(x.T @ x / 500)
        top = evecs[:, np.argmax(evals)]
        layer = HebbLayer(
            init_weights(1, 2, seed=0), LearningParams(eta=1e-2, rule="hpca")
        )
        stack, _ = pretrain([layer], ds, TrainConfig(epochs=20, hebb_lr=1e-2, seed=0))
        w = stack[0].weights.data[0, 0]
        assert abs(w @ top / np.linalg.norm(w)) >= 0.99

    def test_swta_finds_centroids(self):
        sep = 12.0
        ds, centroids = dio.synth_clusters(3, 450, 8, sep, seed=5)
        layer = HebbLayer(
            init_weights(3, 8, seed=1),
            LearningParams(eta=0.1, temperature=0.05, rule="swta"),
        )
        stack, _ = pretrain([layer], ds, TrainConfig(epochs=20, seed=0))
        w = stack[0].weights.data[0]
        remaining = list(range(3))
        worst = 0.0
        for n in range(3):
            dists = [np.linalg.norm(w[n] - centroids[c]) for c in remaining]
            best = int(np.argmin(dists))
            worst = max(worst, dists[best])
            remaining.pop(best)
        assert worst <= 0.1 * sep

    def test_deterministic(self):
        ds = dio.synth_gaussian(60, 4, 1.0, seed=1)

        def run():
            layer = HebbLayer(
                init_weights(2, 4, seed=0), LearningParams(eta=0.01, rule="hpca")
            )
            stack, metrics = pretrain([layer], ds, TrainConfig(epochs=3, seed=4))
            return stack[0].weights.data, metrics.epoch_metrics

        w1, m1 = run()
        w2, m2 = run()
        np.testing.assert_array_equal(w1, w2)
        assert m1 == m2

    def test_layerwise_schedule_runs(self):
        ds = dio.synth_gaussian(40, 4, 1.0, seed=2)
        stack = [
            HebbLayer(init_weights(3, 4, seed=0), LearningParams(eta=0.01, rule="hpca")),
            ReLU(),
            HebbLayer(init_weights(2, 3, seed=1), LearningParams(eta=0.01, rule="swta")),
        ]
        trained, metrics = pretrain(
            stack, ds, TrainConfig(epochs=2, schedule="layerwise", seed=0)
        )
        assert len(metrics.epoch_metrics) == 4  # 2 epochs per trainable layer

    def test_layerwise_converges_within_the_last_phase(self):
        # hpca -> relu -> hpca: layer 2 has not trained before epoch 12
        for seed in range(6):
            ds = dio.synth_gaussian(200, 8, [4.0, 3.0, 2.0, 1.0, 0.5, 0.5, 0.5, 0.5], seed=seed)
            stack = [
                HebbLayer(init_weights(4, 8, seed=0), LearningParams(eta=0.01, rule="hpca")),
                ReLU(),
                HebbLayer(init_weights(2, 4, seed=1), LearningParams(eta=0.01, rule="hpca")),
            ]
            config = TrainConfig(epochs=12, schedule="layerwise", seed=seed)
            _, metrics = pretrain(stack, ds, config)
            assert len(metrics.epoch_metrics) == 24
            assert metrics.converged_epoch is None or metrics.converged_epoch >= 12

    def test_never_reads_labels(self):
        # pretrain consumes only the image array
        images = np.random.default_rng(0).standard_normal((30, 1, 1, 4))
        ds = Dataset(images, np.zeros(30, dtype=np.int64), 1)
        layer = HebbLayer(init_weights(2, 4, seed=0), LearningParams(eta=0.01, rule="swta"))
        stack, _ = pretrain([layer], ds, TrainConfig(epochs=1, seed=0))


def _loop_layer_metric(layer, x):
    """The layer metric with its own patch extraction and forward pass."""
    x = layer_rows(layer, x)
    y = rules.forward_linear(layer.weights, x)
    if layer.params.rule == rules.RULE_SWTA:
        r, _ = tc.softmax(y, layer.params.temperature)
        return float(np.mean(np.max(r.data, axis=1)))
    # the HPCA formula is held to the reconstruction in TestLayerMetric
    return rules.layer_metric(layer.weights, x, y, layer.params)


def _loop_pretrain(stack, images, config):
    """Pretraining as three separate passes per Hebbian layer and batch
    (metric forward from the stage input under the weights before the update,
    update from the stage input, stage forward under the updated weights)
    through every stage of the stack, the trailing ones included."""
    stack = list(stack)
    rng = np.random.default_rng(config.seed)
    hebb = [i for i, s in enumerate(stack) if isinstance(s, HebbLayer)]
    phases = [[i] for i in hebb] if config.schedule == "layerwise" else [hebb]
    per_epoch = []
    for trainable in phases:
        for _ in range(config.epochs):
            layer_metrics = {i: [] for i in hebb}
            order = rng.permutation(len(images))
            for start in range(0, len(images), config.batch_size):
                x = Tensor(images[order[start : start + config.batch_size]])
                for pos, stage in enumerate(stack):
                    if isinstance(stage, HebbLayer):
                        layer_metrics[pos].append(_loop_layer_metric(stage, x))
                    if isinstance(stage, HebbLayer) and pos in trainable:
                        stage = apply_update(stage, hebb_update(stage, x))
                        stack[pos] = stage
                    x = stage.forward(x)
            per_epoch.append([float(np.mean(layer_metrics[i])) for i in hebb])
    # the last phase alone decides convergence: its own columns over its own epochs
    last = [hebb.index(i) for i in phases[-1]]
    tail = [[row[c] for c in last] for row in per_epoch[-config.epochs:]]
    down = [stack[i].params.rule == rules.RULE_HPCA for i in phases[-1]]
    plateau = pipeline._plateau_epoch(tail, down)
    return stack, per_epoch, None if plateau is None else len(per_epoch) - config.epochs + plateau


def _conv_stack(rule):
    def conv(n, c, k, pad, seed):
        g = ConvGeometry(k, k, c, padding=pad)
        return HebbLayer(
            init_weights(n, g.patch_size, seed=seed),
            LearningParams(eta=0.02, temperature=0.5, rule=rule), geometry=g,
        )

    return [conv(4, 2, 3, 1, 0), ReLU(), MaxPool(2, 2), conv(5, 4, 3, 0, 1), ReLU(),
            MaxPool(3, 2), Flatten()]


def _dense_stack(rule):
    return [
        HebbLayer(init_weights(5, 8, seed=2), LearningParams(eta=0.02, rule=rule)),
        ReLU(),
        HebbLayer(init_weights(3, 5, seed=3), LearningParams(eta=0.05, rule=rule)),
        ReLU(),
    ]


class TestPretrainMatchesPerStageLoop:
    """pretrain shares one set of rows and one pre-update forward per Hebbian
    layer between the update and the metric, runs the post-update forward only
    where a later stage reads it, and stops after the last Hebbian layer;
    weights and metrics stay bit for bit those of the loop that recomputes
    each pass and runs every stage."""

    @pytest.mark.parametrize("schedule", ["joint", "layerwise"])
    @pytest.mark.parametrize("rule", ["hpca", "swta"])
    @pytest.mark.parametrize(
        "make_stack, shape",
        [(_conv_stack, (2, 10, 10)), (_dense_stack, (1, 2, 4))],
        ids=["conv", "dense"],
    )
    def test_bitwise(self, make_stack, shape, rule, schedule):
        images = np.random.default_rng(8).standard_normal((37, *shape))
        config = TrainConfig(epochs=4, batch_size=16, seed=3, schedule=schedule)
        want, want_metrics, want_converged = _loop_pretrain(make_stack(rule), images, config)
        got, metrics = pretrain(make_stack(rule), Dataset(images, np.zeros(37, dtype=np.int64), 1), config)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            if isinstance(b, HebbLayer):
                assert np.array_equal(a.weights.data, b.weights.data)
        assert metrics.epoch_metrics == want_metrics
        assert metrics.converged_epoch == want_converged

    def test_hand_worked_metric_is_taken_before_the_update(self):
        # W = (1, 0) and rows x = (3, 4), (1, -2): y = (3, 1), the residuals
        # x - W^T y are (0, 4) and (0, -2), so the metric is (4 + 2) / 2 = 3.
        # The update is eta/B * (Y^T X - (y.y) W) = 0.05 * ((10, 10) - (10, 0)),
        # which moves W to (1, 0.5), where the residuals are no longer (0, 4), (0, -2)
        layer = HebbLayer(Tensor([[[1.0, 0.0]]]), LearningParams(eta=0.1, rule="hpca"))
        images = np.array([3.0, 4.0, 1.0, -2.0]).reshape(2, 1, 1, 2)
        data = Dataset(images, np.zeros(2, dtype=np.int64), 1)
        (trained,), metrics = pretrain([layer], data, TrainConfig(epochs=1, batch_size=2))
        assert metrics.epoch_metrics == [[3.0]]
        rows = layer_rows(layer, Tensor(images))
        assert rules.layer_metric(layer.weights, rows, rules.forward_linear(layer.weights, rows), layer.params) == 3.0
        assert np.array_equal(trained.weights.data, [[[1.0, 0.5]]])
        after = rules.layer_metric(trained.weights, rows, rules.forward_linear(trained.weights, rows), layer.params)
        assert after != 3.0


class TestOneForwardPerLayer:
    """Under the joint schedule each Hebbian layer runs one forward before its
    update, and only the layers a later stage reads run one after it."""

    @pytest.mark.parametrize("rule", ["hpca", "swta"])
    @pytest.mark.parametrize("hebb_layers", [1, 2, 3])
    def test_forward_linear_calls_per_batch(self, hebb_layers, rule, monkeypatch):
        stack = []
        for k in range(hebb_layers):
            stack += [HebbLayer(init_weights(4, 4, seed=k), LearningParams(eta=0.01, rule=rule)), ReLU()]
        calls = []
        forward = rules.forward_linear
        monkeypatch.setattr(rules, "forward_linear", lambda w, x: (calls.append(1), forward(w, x))[1])
        images = np.random.default_rng(0).standard_normal((40, 1, 1, 4))
        pretrain(stack, Dataset(images, np.zeros(40, dtype=np.int64), 1), TrainConfig(epochs=1, batch_size=16))
        assert len(calls) == 3 * (2 * hebb_layers - 1)  # 3 batches


def _hpca_layer(n, conv):
    """An HPCA layer with S = 8 (2x2 conv on 2 channels, or dense on 8 inputs)."""
    geometry = ConvGeometry(2, 2, 2) if conv else None
    return HebbLayer(init_weights(n, 8, seed=1), LearningParams(eta=0.02, rule="hpca"), geometry)


class TestLayerMetric:
    """The HPCA metric from the N x N weight Gram equals the mean norm of the
    full reconstruction residual x - W^T y, and never builds a b_eff x S tensor."""

    @pytest.mark.parametrize("epochs", [0, 3], ids=["random", "pretrained"])
    @pytest.mark.parametrize("n", [4, 8, 12], ids=["N<S", "N=S", "N>S"])
    @pytest.mark.parametrize("conv", [False, True], ids=["dense", "conv"])
    def test_matches_reconstruction(self, conv, n, epochs):
        images = np.random.default_rng(0).standard_normal((40, *((2, 5, 5) if conv else (1, 2, 4))))
        layer = _hpca_layer(n, conv)
        if epochs:
            data = Dataset(images, np.zeros(40, dtype=np.int64), 1)
            layer = pretrain([layer], data, TrainConfig(epochs=epochs, batch_size=16, seed=0))[0][0]
        rows = layer_rows(layer, Tensor(images))
        y = rules.forward_linear(layer.weights, rows)
        x, w = rows.data[:, 0], layer.weights.data[0]
        want = np.mean(np.linalg.norm(x - y.data[:, :, 0] @ w, axis=1))
        assert abs(rules.layer_metric(layer.weights, rows, y, layer.params) - want) <= 1e-10 * want

    @pytest.mark.parametrize("s", [1, 8, 75])
    def test_zero_residual_is_finite_and_tiny(self, s):
        rng = np.random.default_rng(s)
        w, _ = np.linalg.qr(rng.standard_normal((s, s)))
        layer = HebbLayer(Tensor(w[None]), LearningParams(rule="hpca"))
        rows = Tensor(rng.standard_normal((64, 1, s)) * 10.0)
        metric = rules.layer_metric(layer.weights, rows, rules.forward_linear(layer.weights, rows), layer.params)
        assert np.isfinite(metric) and metric >= 0.0
        assert metric <= 1e-6 * np.mean(np.linalg.norm(rows.data[:, 0], axis=1))

    def test_peak_allocation_within_paper_bound(self):
        g = ConvGeometry(3, 3, 3, padding=1)
        layer = HebbLayer(init_weights(4, g.patch_size, seed=0), LearningParams(rule="hpca"), g)
        rows = layer_rows(layer, Tensor(np.random.default_rng(2).standard_normal((2, 3, 8, 8))))
        y = rules.forward_linear(layer.weights, rows)
        b, n, s = rows.shape[0], layer.num_neurons, layer.input_size
        with tc.AllocationTracker() as tracker:
            rules.layer_metric(layer.weights, rows, y, layer.params)
        assert 0 < tracker.largest <= max(b * n, n * s, n * n) < b * s


class TestSwtaLayerMetric:
    """The SWTA metric, read from the shifted exponentials' row sums, is bit for
    bit the mean row maximum of the softmax."""

    @pytest.mark.parametrize("temperature", [1.0, 0.3, 0.05, 0.02])
    @pytest.mark.parametrize("scale", [1.0, 10.0, 300.0])
    def test_equals_mean_max_softmax(self, scale, temperature):
        layer = HebbLayer(init_weights(16, 8, seed=1), LearningParams(temperature=temperature, rule="swta"))
        rows = Tensor(np.random.default_rng(7).standard_normal((500, 1, 8)) * scale)
        y = rules.forward_linear(layer.weights, rows)
        z = y.data / temperature
        z = z - np.max(z, axis=1, keepdims=True)
        e = np.exp(z)
        want = float(np.mean(np.max(e / np.sum(e, axis=1, keepdims=True), axis=1)))
        assert rules.layer_metric(layer.weights, rows, y, layer.params) == want


class TestExtractFeatures:
    def test_identity_stack(self):
        ds = dio.synth_gaussian(10, 6, 1.0, seed=0)
        feats = extract_features([Flatten()], ds)
        np.testing.assert_array_equal(feats, ds.images.reshape(10, 6))

    def test_zero_weights_with_relu(self):
        ds = dio.synth_gaussian(10, 4, 1.0, seed=0)
        layer = HebbLayer(
            init_weights(3, 4, seed=0), LearningParams(rule="swta")
        )
        from dataclasses import replace

        from fasthebb.tensor import Tensor

        layer = replace(layer, weights=Tensor(np.zeros((1, 3, 4))))
        feats = extract_features([layer, ReLU()], ds)
        assert np.all(feats == 0)

    def test_feature_dim(self):
        ds = dio.synth_gaussian(7, 5, 1.0, seed=0)
        layer = HebbLayer(init_weights(3, 5, seed=0), LearningParams(rule="hpca"))
        feats = extract_features([layer], ds)
        assert feats.shape == (7, 3)


def _bench_stack(rule="hpca"):
    """The benchmark's conv stack: 1024 and 256 patch rows per 3x32x32 image."""
    return [
        HebbLayer(init_weights(32, 75, seed=0), LearningParams(rule=rule), ConvGeometry(5, 5, 3, padding=2)),
        ReLU(),
        MaxPool(2, 2),
        HebbLayer(init_weights(64, 288, seed=1), LearningParams(rule=rule), ConvGeometry(3, 3, 32, padding=1)),
        ReLU(),
        MaxPool(2, 2),
        Flatten(),
    ]


def _images(n, shape=(3, 32, 32), seed=0):
    images = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, *shape))
    return Dataset(images, np.zeros(n, dtype=np.int64), 1)


def _flat_forward(stack, images):
    out = forward_stack(stack, Tensor(images))
    return out.data.reshape(len(images), -1)


@pytest.fixture
def forward_sizes(monkeypatch):
    """The image count of every forward_stack call."""
    sizes = []

    def counted(stack, x, _orig=pipeline.forward_stack):
        sizes.append(x.shape[0])
        return _orig(stack, x)

    monkeypatch.setattr(pipeline, "forward_stack", counted)
    return sizes


class TestExtractFeaturesInBlocks:
    """Blocks of images on the thread pool give every bit of one forward."""

    # conv1's 1024 and conv2's 256 rows per image fill whole 12-row blocks in
    # steps of 3 images, and one image is above the bound in both, so blocks
    # of about 16 images hold 15 or 18, and the last one the rest
    @pytest.mark.parametrize(
        "n, sizes",
        [
            (1, [1]),
            (15, [15]),
            (16, [16]),
            (17, [8, 9]),
            (33, [9, 12, 12]),
            (256, [15] * 10 + [16] + [18] * 5),
            (257, [15] * 16 + [17]),
        ],
    )
    def test_conv_stack_equals_one_forward(self, n, sizes, pool_workers, forward_sizes):
        stack, ds = _bench_stack(), _images(n)
        want = _flat_forward(stack, ds.images)
        forward_sizes.clear()
        got = extract_features(stack, ds)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert sorted(forward_sizes) == sizes

    # 40 images of 3 x 16 x 16: 256 rows per image, S = 27 or 75; blocks of
    # 16 images, which start off the 12-row blocks (at 4096 rows) or hold at
    # most 100**3 multiply-adds, give other bits than one forward at
    # N x S = 2 x 75, 10 x 27 and 230 x 27 or 75
    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize("n", [2, 10, 230])
    def test_narrow_and_wide_conv_layers_equal_one_forward(self, n, kernel, pool_workers):
        g = ConvGeometry(kernel, kernel, 3, padding=kernel // 2)
        stack = [HebbLayer(init_weights(n, g.patch_size, seed=n), LearningParams(rule="hpca"), g), ReLU()]
        ds = _images(40, shape=(3, 16, 16))
        assert np.array_equal(extract_features(stack, ds), _flat_forward(stack, ds.images))

    def test_conv_stack_of_narrow_and_wide_layers_equals_one_forward(self, pool_workers, forward_sizes):
        # the narrow layer needs 6 images above the bound, the wide one 1
        g1, g2 = ConvGeometry(5, 5, 3, padding=2), ConvGeometry(3, 3, 10, padding=1)
        stack = [
            HebbLayer(init_weights(10, g1.patch_size, seed=1), LearningParams(), g1),
            ReLU(),
            HebbLayer(init_weights(230, g2.patch_size, seed=2), LearningParams(rule="hpca"), g2),
            ReLU(),
            Flatten(),
        ]
        ds = _images(40, shape=(3, 16, 16))
        want = _flat_forward(stack, ds.images)
        forward_sizes.clear()
        assert np.array_equal(extract_features(stack, ds), want)
        assert sorted(forward_sizes) == [12, 13, 15]

    def test_final_flatten_is_not_run(self, pool_workers, monkeypatch):
        # the copy into the feature matrix flattens the last conv block itself
        stack, ds = _bench_stack(), _images(20)
        want = _flat_forward(stack, ds.images)
        monkeypatch.setattr(Flatten, "forward", lambda self, x: pytest.fail("Flatten.forward ran"))
        assert np.array_equal(extract_features(stack, ds), want)

    def test_dense_stack_takes_blocks_above_the_bound(self, pool_workers, forward_sizes):
        # one row per image: blocks start at multiples of 12 images and hold
        # at least 80, the fewest rows of 16 x 784 above 100**3 multiply-adds
        stack = [HebbLayer(init_weights(16, 784, seed=0), LearningParams(rule="swta")), ReLU()]
        ds = _images(300, shape=(1, 28, 28))
        want = _flat_forward(stack, ds.images)
        forward_sizes.clear()
        assert np.array_equal(extract_features(stack, ds), want)
        assert sorted(forward_sizes) == [96, 96, 108]

    def test_conv_layer_with_few_rows_takes_blocks_above_the_bound(self, pool_workers, forward_sizes):
        # the last conv layer gives 14 x 14 = 196 rows per image, and its
        # 4 x 288 products need 869 rows, 5 images, to be above 100**3
        stack = _bench_stack()[:3] + [HebbLayer(init_weights(4, 288, seed=1), LearningParams(), ConvGeometry(3, 3, 32))]
        ds = _images(20)
        want = _flat_forward(stack, ds.images)
        forward_sizes.clear()
        assert np.array_equal(extract_features(stack, ds), want)
        assert sorted(forward_sizes) == [9, 11]

    def test_workers_keep_the_callers_errstate(self, pool_workers, monkeypatch):
        # two blocks of 84 images; on two workers each waits for the other, so
        # a pool worker runs one of them
        meet, blocks = threading.Barrier(pool_workers, timeout=30), []

        def forward(stack, x, _orig=pipeline.forward_stack):
            meet.wait()
            blocks.append((threading.get_ident(), x.shape[0]))
            return _orig(stack, x)

        monkeypatch.setattr(pipeline, "forward_stack", forward)
        stack = [HebbLayer(Tensor(np.full((1, 16, 784), 1e300)), LearningParams()), ReLU()]
        ds = Dataset(np.full((168, 1, 1, 784), 1e300), np.zeros(168, dtype=np.int64), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a warning in any thread raises
            with np.errstate(all="ignore"):
                feats = extract_features(stack, ds)
        assert np.all(np.isinf(feats))  # the products overflow
        assert [size for _, size in blocks] == [84, 84] and len({thread for thread, _ in blocks}) == pool_workers

    def test_forked_child_extracts_features(self):
        stack, ds = _bench_stack(), _images(20)
        want = extract_features(stack, ds)  # the parent has made its pool

        def child():
            os._exit(0 if np.array_equal(extract_features(stack, ds), want) else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
        assert proc.exitcode == 0

    def test_empty_dataset_gives_no_rows_of_the_feature_width(self, forward_sizes):
        empty = Dataset(np.zeros((0, 3, 32, 32)), np.zeros(0), 1)
        assert extract_features(_bench_stack(), empty).shape == (0, 64 * 8 * 8)
        assert forward_sizes == []

    def test_images_of_another_size_fail_before_any_forward(self, forward_sizes):
        with pytest.raises(ConfigError, match="kernel 2 exceeds padded extent 1"):
            extract_features(_bench_stack(), _images(4, shape=(3, 2, 2)))  # pooled to 1 x 1 before the second pool
        assert forward_sizes == []

    def test_an_error_in_a_block_reaches_the_caller(self, pool_workers):
        stack = _bench_stack()
        with pytest.raises(ShapeMismatch, match="expected 3 channels, got 1"):
            extract_features(stack, _images(40, shape=(1, 32, 32)))


@pytest.fixture
def patch_calls(monkeypatch):
    """The geometry of every ``layers.extract_patches`` call."""
    calls = []

    def counted(images, geometry, _orig=layers.extract_patches):
        calls.append(geometry)
        return _orig(images, geometry)

    monkeypatch.setattr(layers, "extract_patches", counted)
    return calls


class TestPatchExtractionCount:
    """Every conv path extracts its patches through the module attribute
    ``layers.extract_patches``, which the benchmark's tracer counts, and does
    so once per conv layer per batch or block."""

    @pytest.mark.parametrize("rule", rules.RULES)
    def test_one_pretrain_batch_extracts_once_per_conv_layer(self, rule, patch_calls):
        pretrain(_bench_stack(rule), _images(64), TrainConfig(epochs=1, batch_size=64))
        assert [g.kernel_h for g in patch_calls] == [5, 3]

    def test_extract_features_extracts_once_per_conv_layer_per_block(self, pool_workers, patch_calls, forward_sizes):
        extract_features(_bench_stack(), _images(40))
        assert sorted(forward_sizes) == [12, 13, 15]
        assert sorted(g.kernel_h for g in patch_calls) == [3] * 3 + [5] * 3


class TestPretrainOnThePool:
    """Patch rows, forwards and stage outputs split over the pool, and the HPCA
    kernel's products and metric blocks in one task list, keep every bit of
    the inline run."""

    @staticmethod
    def _pretrain(pool_of, workers, stack, images, config):
        with pool_of(workers):
            out, metrics = pretrain(stack, Dataset(images, np.zeros(len(images), dtype=np.int64), 1), config)
        return [s.weights.data for s in out if isinstance(s, HebbLayer)], metrics.epoch_metrics

    @pytest.mark.parametrize("rule", rules.RULES)
    @pytest.mark.parametrize("n", [64, 128])
    def test_bench_stack(self, n, rule, pool_of):
        images, config = _images(n).images, TrainConfig(epochs=1, batch_size=64)
        inline = self._pretrain(pool_of, 1, _bench_stack(rule), images, config)
        split = self._pretrain(pool_of, 2, _bench_stack(rule), images, config)
        assert all(np.array_equal(a, b) for a, b in zip(inline[0], split[0]))
        assert inline[1] == split[1]

    @pytest.mark.parametrize("rule", rules.RULES)
    def test_dense_stack(self, rule, pool_of):
        # 600 rows per batch: the first batch's forwards split into 300-row ranges
        images = np.random.default_rng(4).standard_normal((700, 1, 2, 4))
        config = TrainConfig(epochs=2, batch_size=600)
        inline = self._pretrain(pool_of, 1, _dense_stack(rule), images, config)
        split = self._pretrain(pool_of, 2, _dense_stack(rule), images, config)
        assert all(np.array_equal(a, b) for a, b in zip(inline[0], split[0]))
        assert inline[1] == split[1]

    @pytest.mark.parametrize("rule", rules.RULES)
    def test_layerwise_bench_stack(self, rule, pool_of):
        # in the second phase conv1 is frozen: its metric alone runs its blocks on the pool
        images, config = _images(64).images, TrainConfig(epochs=1, batch_size=64, schedule="layerwise")
        inline = self._pretrain(pool_of, 1, _bench_stack(rule), images, config)
        split = self._pretrain(pool_of, 2, _bench_stack(rule), images, config)
        assert all(np.array_equal(a, b) for a, b in zip(inline[0], split[0]))
        assert inline[1] == split[1]

    @pytest.mark.parametrize("impl", ["fast", "naive"])
    @pytest.mark.parametrize(
        "n, count, side",
        [(33, 3, 32), (1, 3, 32), (13, 1, 16)],
        ids=["odd-n-three-blocks", "one-neuron", "one-metric-block"],
    )
    def test_hpca_task_lists_of_every_shape(self, n, count, side, impl, pool_of):
        # 3072 patch rows make three metric blocks at N = 33; 256 rows, or
        # one neuron, make one
        def stack():
            g = ConvGeometry(5, 5, 3, padding=2)
            return [HebbLayer(init_weights(n, g.patch_size, seed=n), LearningParams(rule="hpca"), g, impl)]

        images, config = _images(count, shape=(3, side, side)).images, TrainConfig(epochs=2, batch_size=count)
        inline = self._pretrain(pool_of, 1, stack(), images, config)
        split = self._pretrain(pool_of, 2, stack(), images, config)
        assert all(np.array_equal(a, b) for a, b in zip(inline[0], split[0]))
        assert inline[1] == split[1]

    def test_fast_hpca_stage_runs_its_list_on_both_threads(self, pool_of, monkeypatch):
        # each product waits for the other, and each thread's first metric
        # block for the other thread's, so a stage that did not hand them to
        # the second thread would time out
        g = ConvGeometry(5, 5, 3, padding=2)
        layer = HebbLayer(init_weights(32, g.patch_size, seed=0), LearningParams(rule="hpca"), g)
        x, b_eff = Tensor(_images(16).images), 16 * 32 * 32
        products, blocks = [], []
        meet_products, meet_blocks = threading.Barrier(2, timeout=30), threading.Barrier(2, timeout=30)

        def matmul(a, b, _orig=tc.matmul):
            if a.shape[-1] == b_eff:  # Y^T X or Y^T Y, the only products over the batch
                meet_products.wait()
                products.append(threading.get_ident())
            return _orig(a, b)

        def einsum(*args, _orig=np.einsum):
            if threading.get_ident() not in blocks:
                meet_blocks.wait()
            blocks.append(threading.get_ident())
            return _orig(*args)

        monkeypatch.setattr(tc, "matmul", matmul)
        monkeypatch.setattr(np, "einsum", einsum)
        with pool_of(2):
            _, value, _ = pipeline._hebb_stage(layer, x, True, False)
        assert len(products) == 2 and len(set(products)) == 2
        assert len(blocks) == 3 * 16 and set(blocks) == set(products)
        monkeypatch.undo()
        rows = layer_rows(layer, x)
        assert value == rules.layer_metric(layer.weights, rows, rules.forward_linear(layer.weights, rows), layer.params)

    def test_hpca_kernel_peak_is_that_of_a_direct_call(self, pool_of, monkeypatch):
        # the metric runs in the kernel's task list; its allocations must not raise the kernel's peak
        calls = []

        def update_fn(rule, impl, _orig=rules.update_fn):
            kernel = _orig(rule, impl)

            def recorded(w, x, params, metric=False):
                result = kernel(w, x, params, metric)
                calls.append((w, x, params, metric, result.peak_temp_elements))
                return result

            return recorded

        monkeypatch.setattr(rules, "update_fn", update_fn)
        with pool_of(2):
            pretrain(_bench_stack(), _images(64), TrainConfig(epochs=1, batch_size=64))
        assert len(calls) == 2
        for w, x, params, metric, peak in calls:
            assert metric
            assert peak == rules.hpca_update_fast(w, x, params).peak_temp_elements

    def test_overflow_keeps_the_callers_errstate(self, pool_of):
        # 2 images of 1024 patch rows: the patches and forward split, the metric runs beside the kernel
        g = ConvGeometry(5, 5, 3, padding=2)
        layer = HebbLayer(Tensor(np.full((1, 4, g.patch_size), 1e300)), LearningParams(rule="hpca"), g)
        data = Dataset(np.full((2, 3, 32, 32), 1e300), np.zeros(2, dtype=np.int64), 1)
        with pool_of(2), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a warning in any thread raises
            with np.errstate(all="ignore"), pytest.raises(NonFiniteWeights) as caught:
                pretrain([layer, ReLU()], data, TrainConfig(epochs=1, batch_size=2))
        assert caught.value.exit_code == 3


class TestStageMemory:
    """A training conv stage holds its patch rows and at most two b_eff x N
    buffers at once: the SWTA kernel runs its own forward, which dies once
    its scores exist, and the rows die before the stage output is copied."""

    @pytest.mark.parametrize("rule", rules.RULES)
    def test_stage_holds_patches_and_two_b_by_n_buffers(self, rule, peak_bytes):
        g = ConvGeometry(5, 5, 3, padding=2)
        layer = HebbLayer(init_weights(32, g.patch_size, seed=0), LearningParams(rule=rule), g)
        x = Tensor(_images(16).images)
        b_eff, n = 16 * 32 * 32, layer.num_neurons
        patches = 8 * b_eff * g.patch_size
        pipeline._hebb_stage(layer, x, True, True)  # warm-up: the pool's threads are not the stage's
        assert peak_bytes(pipeline._hebb_stage, layer, x, True, True) <= patches + 2 * 8 * b_eff * n + 2**21


class TestProbe:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((8, 5))
        labels = rng.integers(0, 3, size=8)
        w = rng.standard_normal((3, 5)) * 0.5
        b = rng.standard_normal(3) * 0.1
        _, gw, gb = probe_loss_grad(w, b, feats, labels, weight_decay=0.01)
        eps = 1e-6

        def loss_at(wv, bv):
            return probe_loss_grad(wv, bv, feats, labels, weight_decay=0.01)[0]

        for idx in np.ndindex(w.shape):
            wp, wm = w.copy(), w.copy()
            wp[idx] += eps
            wm[idx] -= eps
            fd = (loss_at(wp, b) - loss_at(wm, b)) / (2 * eps)
            assert abs(fd - gw[idx]) <= 1e-6
        for i in range(3):
            bp, bm = b.copy(), b.copy()
            bp[i] += eps
            bm[i] -= eps
            fd = (loss_at(w, bp) - loss_at(w, bm)) / (2 * eps)
            assert abs(fd - gb[i]) <= 1e-6

    def test_separable_data(self):
        rng = np.random.default_rng(1)
        feats = np.concatenate(
            [rng.normal(-3.0, 0.3, (50, 2)), rng.normal(3.0, 0.3, (50, 2))]
        )
        labels = np.array([0] * 50 + [1] * 50)
        cfg = TrainConfig(epochs=20, batch_size=16, probe_lr=0.1, seed=0)
        probe = train_probe(feats, labels, cfg, class_count=2)
        acc = evaluate(probe, feats, labels, 1)
        assert acc >= 0.99

    def test_zero_features_majority_class(self):
        labels = np.array([0] * 30 + [1] * 10)
        feats = np.zeros((40, 3))
        cfg = TrainConfig(epochs=10, probe_lr=0.1, seed=0, early_stopping=False)
        probe = train_probe(feats, labels, cfg, class_count=2)
        acc = evaluate(probe, feats, labels, 1)
        assert acc == pytest.approx(0.75, abs=0.05)

    def test_without_early_stopping_reports_the_returned_probe(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((60, 4))
        labels = rng.integers(0, 3, size=60)
        cfg = TrainConfig(epochs=8, probe_lr=0.5, seed=0, early_stopping=False)
        probe = train_probe(feats, labels, cfg, class_count=3)
        assert probe.best_epoch == 7
        assert evaluate(probe, feats, labels) == probe.val_accuracy

    def test_without_nesterov_takes_heavy_ball_steps(self):
        # one epoch of two batches: v1 = g1, w1 = w0 - lr v1; v2 = m v1 + g2, w2 = w1 - lr v2
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((20, 4))
        labels = rng.integers(0, 3, size=20)
        cfg = TrainConfig(epochs=1, batch_size=10, probe_lr=0.5, momentum=0.9, nesterov=False, early_stopping=False, seed=4)
        draws = np.random.default_rng(cfg.seed)  # the draws train_probe makes: split order, init, batch order
        draws.permutation(20)
        w, b = draws.normal(0.0, 0.01, size=(3, 4)), np.zeros(3)
        order = draws.permutation(20)
        vw, vb = np.zeros_like(w), np.zeros_like(b)
        lr = learning_rate(cfg.probe_lr, 0, cfg.epochs)  # half the base rate in a one-epoch schedule
        for batch in (order[:10], order[10:]):
            _, gw, gb = probe_loss_grad(w, b, feats[batch], labels[batch])
            vw, vb = cfg.momentum * vw + gw, cfg.momentum * vb + gb
            w, b = w - lr * vw, b - lr * vb
        probe = train_probe(feats, labels, cfg, class_count=3)
        np.testing.assert_allclose(probe.weights, w, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(probe.bias, b, rtol=1e-12, atol=1e-15)
        nesterov = train_probe(feats, labels, TrainConfig(**{**cfg.__dict__, "nesterov": True}), class_count=3)
        assert not np.allclose(nesterov.weights, w, rtol=1e-6)

    def test_empty_labeled_set(self):
        with pytest.raises(EmptyLabeledSet):
            train_probe(np.zeros((0, 3)), np.zeros(0, dtype=int), TrainConfig(), class_count=2)

    def test_early_stopping_deterministic(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((60, 4))
        labels = rng.integers(0, 3, size=60)
        cfg = TrainConfig(epochs=8, probe_lr=0.05, seed=9)
        a = train_probe(feats, labels, cfg, class_count=3)
        b = train_probe(feats, labels, cfg, class_count=3)
        assert a.best_epoch == b.best_epoch
        np.testing.assert_array_equal(a.weights, b.weights)


class TestEvaluate:
    def _probe(self, scores):
        # identity-feature probe: scores == features
        n_classes = scores.shape[1]
        return LinearProbe(np.eye(n_classes), np.zeros(n_classes))

    def test_k_equals_class_count(self):
        scores = np.random.default_rng(3).standard_normal((6, 4))
        labels = np.array([0, 1, 2, 3, 0, 1])
        assert evaluate(self._probe(scores), scores, labels, k=4) == 1.0

    def test_perfect_scores(self):
        scores = np.eye(3)
        labels = np.array([0, 1, 2])
        assert evaluate(self._probe(scores), scores, labels, k=1) == 1.0

    def test_hand_built_ranks(self):
        scores = np.array(
            [
                [0.9, 0.5, 0.1],  # label 1 is rank 2
                [0.2, 0.8, 0.3],  # label 1 is rank 1
                [0.1, 0.2, 0.9],  # label 0 is rank 3
            ]
        )
        labels = np.array([1, 1, 0])
        probe = self._probe(scores)
        assert evaluate(probe, scores, labels, k=1) == pytest.approx(1 / 3)
        assert evaluate(probe, scores, labels, k=2) == pytest.approx(2 / 3)
        assert evaluate(probe, scores, labels, k=3) == 1.0

    def test_tie_break_lower_class_index(self):
        scores = np.array([[0.5, 0.5, 0.1]])
        probe = self._probe(scores)
        assert evaluate(probe, scores, np.array([0]), k=1) == 1.0
        assert evaluate(probe, scores, np.array([1]), k=1) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            evaluate(LinearProbe(np.eye(2), np.zeros(2)), np.zeros((1, 2)), np.array([0]), k=0)


class TestCheckpoint:
    def _stack(self):
        return [
            HebbLayer(init_weights(3, 5, seed=0), LearningParams(eta=0.01, rule="hpca")),
            ReLU(),
            HebbLayer(init_weights(2, 3, seed=1), LearningParams(eta=0.02, rule="swta")),
        ]

    def test_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "model.fhb"
        stack = self._stack()
        probe = LinearProbe(
            np.random.default_rng(0).standard_normal((4, 2)), np.zeros(4)
        )
        save_checkpoint(path, stack, probe, "[train]\nepochs = 3\n")
        ckpt = load_checkpoint(path)
        assert ckpt.rules == ["hpca", "swta"]
        np.testing.assert_array_equal(ckpt.weights[0], stack[0].weights.data)
        np.testing.assert_array_equal(ckpt.weights[1], stack[2].weights.data)
        np.testing.assert_array_equal(ckpt.probe.weights, probe.weights)
        assert ckpt.config_echo == "[train]\nepochs = 3\n"

    def test_save_load_save_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.fhb", tmp_path / "b.fhb"
        save_checkpoint(p1, self._stack(), None, "echo")
        ckpt = load_checkpoint(p1)
        from fasthebb.experiment import restore_stack  # noqa: F401
        # re-save the same content
        save_checkpoint(p2, self._stack(), None, "echo")
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_leaves_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.fhb"
        save_checkpoint(path, self._stack(), None, "old")
        raw = path.read_bytes()
        written = []

        def pack_then_fail(fh, arr):
            if written:
                raise OSError("disk full")
            written.append(arr)
            pack(fh, arr)

        pack = pipeline._pack_array
        monkeypatch.setattr(pipeline, "_pack_array", pack_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, self._stack(), None, "new")
        assert written  # the write failed mid-way, after one block
        assert path.read_bytes() == raw
        assert sorted(tmp_path.iterdir()) == [path]

    def test_bytes_reach_disk_before_replace(self, tmp_path, monkeypatch):
        path = tmp_path / "model.fhb"
        events = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            stat = os.fstat(fd)
            events.append(("fsync", stat.st_ino, stat.st_size))
            fsync(fd)

        def record_replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, Path(src).name, Path(dst)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        save_checkpoint(path, self._stack(), None, "echo")
        assert [e[0] for e in events] == ["fsync", "replace"]
        (_, synced, size), (_, replaced, tmp_name, dst) = events
        assert synced == replaced and tmp_name != path.name and dst == path
        assert size == path.stat().st_size  # flushed: every byte was written before the fsync

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fhb"
        path.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(CorruptFile, match="expected FHB1 magic, got b'XXXX'"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.fhb"
        save_checkpoint(path, self._stack(), None, "")
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match="unsupported checkpoint version 99"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.fhb"
        save_checkpoint(path, self._stack(), None, "some config")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 8])
        with pytest.raises(CorruptFile, match=re.escape(f"{path}: truncated config echo")):
            load_checkpoint(path)

    def test_appended_bytes(self, tmp_path):
        path = tmp_path / "x.fhb"
        save_checkpoint(path, self._stack(), None, "some config")
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(CorruptFile, match=re.escape(f"{path}: 8 bytes follow the config echo that ends the checkpoint")):
            load_checkpoint(path)

    # the first weight block's rank byte is at 13, its extents (1, 3, 5) at 14-25
    @pytest.mark.parametrize(
        "damage, wording",
        [
            (lambda raw: raw[:40], "checkpoint ended inside an array block of shape (1, 3, 5)"),
            (  # 2^22 x 2^21 x 2^21: the int64 product wraps to 0
                lambda raw: raw[:14] + struct.pack("<3I", 2**22, 2**21, 2**21) + raw[26:],
                f"checkpoint array block has an impossible shape ({2**22}, {2**21}, {2**21})",
            ),
        ],
        ids=["inside-array", "impossible-shape"],
    )
    def test_damaged_array_block_names_the_file(self, tmp_path, damage, wording):
        path = tmp_path / "a.fhb"
        save_checkpoint(path, self._stack(), None, "some config")
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(CorruptFile, match=re.escape(f"{path}: {wording}")):
            load_checkpoint(path)
