import multiprocessing
import os
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from fasthebb import data as dio, pipeline, rules, tensor as tc
from fasthebb.data import Dataset
from fasthebb.errors import (
    BadMagic,
    CorruptFile,
    EmptyLabeledSet,
    ShapeMismatch,
    VersionMismatch,
)
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
        ds = dio.synth_gaussian(500, 2, cov, seed=3)
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
            stack, ds, TrainConfig(epochs=2, layer_schedule="layerwise", seed=0)
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
            config = TrainConfig(epochs=12, layer_schedule="layerwise", seed=seed)
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
        r = tc.softmax(y, layer.params.temperature, dim=1)
        return float(np.mean(np.max(r.data, axis=1)))
    # the HPCA formula is held to the reconstruction in TestLayerMetric
    return rules.layer_metric(layer.weights, x, y, layer.params)


def _loop_pretrain(stack, images, config):
    """Pretraining as three separate passes per Hebbian layer and batch
    (update from the stage input, metric forward, stage forward) through
    every stage of the stack, the trailing ones included."""
    stack = list(stack)
    rng = np.random.default_rng(config.seed)
    hebb = [i for i, s in enumerate(stack) if isinstance(s, HebbLayer)]
    phases = [[i] for i in hebb] if config.layer_schedule == "layerwise" else [hebb]
    per_epoch = []
    for trainable in phases:
        for _ in range(config.epochs):
            layer_metrics = {i: [] for i in hebb}
            order = rng.permutation(len(images))
            for start in range(0, len(images), config.batch_size):
                x = Tensor(images[order[start : start + config.batch_size]])
                for pos, stage in enumerate(stack):
                    if isinstance(stage, HebbLayer) and pos in trainable:
                        stage = apply_update(stage, hebb_update(stage, x))
                        stack[pos] = stage
                    if isinstance(stage, HebbLayer):
                        layer_metrics[pos].append(_loop_layer_metric(stage, x))
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
    """pretrain shares one set of rows and one forward per Hebbian layer and
    stops after the last one; weights and metrics stay bit for bit those of
    the loop that recomputes each pass and runs every stage."""

    @pytest.mark.parametrize("schedule", ["joint", "layerwise"])
    @pytest.mark.parametrize("rule", ["hpca", "swta"])
    @pytest.mark.parametrize(
        "make_stack, shape",
        [(_conv_stack, (2, 10, 10)), (_dense_stack, (1, 2, 4))],
        ids=["conv", "dense"],
    )
    def test_bitwise(self, make_stack, shape, rule, schedule):
        images = np.random.default_rng(8).standard_normal((37, *shape))
        config = TrainConfig(epochs=4, batch_size=16, seed=3, layer_schedule=schedule)
        want, want_metrics, want_converged = _loop_pretrain(make_stack(rule), images, config)
        got, metrics = pretrain(make_stack(rule), Dataset(images, np.zeros(37, dtype=np.int64), 1), config)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            if isinstance(b, HebbLayer):
                assert np.array_equal(a.weights.data, b.weights.data)
        assert metrics.epoch_metrics == want_metrics
        assert metrics.converged_epoch == want_converged


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


def _conv_stack():
    """The benchmark's conv stack: 1024 and 256 patch rows per 3x32x32 image."""
    return [
        HebbLayer(init_weights(32, 75, seed=0), LearningParams(rule="hpca"), ConvGeometry(5, 5, 3, padding=2)),
        ReLU(),
        MaxPool(2, 2),
        HebbLayer(init_weights(64, 288, seed=1), LearningParams(rule="hpca"), ConvGeometry(3, 3, 32, padding=1)),
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


@pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
def pool_workers(request, monkeypatch):
    """A fresh pool of ``request.param`` workers, shut down afterwards."""
    monkeypatch.setattr(tc, "_pool_workers", lambda: request.param)
    monkeypatch.setattr(tc, "_pool", None)  # restored, with its pid, afterwards
    monkeypatch.setattr(tc, "_pool_pid", -1)
    yield request.param
    tc._pool.shutdown()


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

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 33, 256, 257])
    def test_conv_stack_equals_one_forward(self, n, pool_workers, forward_sizes):
        stack, ds = _conv_stack(), _images(n)
        want = _flat_forward(stack, ds.images)
        forward_sizes.clear()
        got = extract_features(stack, ds)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert sorted(forward_sizes) == sorted([16] * (n // 16) + ([n % 16] if n % 16 else []))

    def test_dense_stack_keeps_256_image_batches(self, pool_workers, forward_sizes):
        stack = [HebbLayer(init_weights(16, 784, seed=0), LearningParams(rule="swta")), ReLU()]
        ds = _images(300, shape=(1, 28, 28))
        want = np.concatenate([_flat_forward(stack, ds.images[:256]), _flat_forward(stack, ds.images[256:])])
        forward_sizes.clear()
        assert np.array_equal(extract_features(stack, ds), want)
        assert sorted(forward_sizes) == [44, 256]

    def test_conv_layer_with_few_rows_keeps_256_image_batches(self, forward_sizes):
        stack = _conv_stack()[:3] + [HebbLayer(init_weights(4, 288, seed=1), LearningParams(), ConvGeometry(3, 3, 32))]
        extract_features(stack, _images(20))  # the last conv layer gives 14 x 14 = 196 rows per image
        assert forward_sizes == [20]

    def test_workers_keep_the_callers_errstate(self, pool_workers):
        stack = [HebbLayer(Tensor(np.full((1, 2, 4), 1e300)), LearningParams()), ReLU()]
        ds = Dataset(np.full((40, 1, 1, 4), 1e300), np.zeros(40, dtype=np.int64), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a warning in any thread raises
            with np.errstate(all="ignore"):
                feats = extract_features(stack, ds)
        assert np.all(np.isinf(feats))  # the products overflow

    def test_forked_child_extracts_features(self):
        stack, ds = _conv_stack(), _images(20)
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

    def test_an_error_in_a_block_reaches_the_caller(self, pool_workers):
        stack = _conv_stack()
        with pytest.raises(ShapeMismatch, match="expected 3 channels, got 1"):
            extract_features(stack, _images(40, shape=(1, 32, 32)))


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
        probe = train_probe(feats, labels, cfg)
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
        probe = train_probe(feats, labels, cfg)
        assert probe.best_epoch == 7
        assert evaluate(probe, feats, labels) == probe.val_accuracy

    def test_empty_labeled_set(self):
        with pytest.raises(EmptyLabeledSet):
            train_probe(np.zeros((0, 3)), np.zeros(0, dtype=int), TrainConfig())

    def test_early_stopping_deterministic(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((60, 4))
        labels = rng.integers(0, 3, size=60)
        cfg = TrainConfig(epochs=8, probe_lr=0.05, seed=9)
        a = train_probe(feats, labels, cfg)
        b = train_probe(feats, labels, cfg)
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
        with pytest.raises(BadMagic):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.fhb"
        save_checkpoint(path, self._stack(), None, "")
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.fhb"
        save_checkpoint(path, self._stack(), None, "some config")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 8])
        with pytest.raises(CorruptFile, match=re.escape(f"{path}: truncated config echo")):
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
