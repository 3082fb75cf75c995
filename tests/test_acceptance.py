"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdicts and timings.
"""

import time

import numpy as np
import pytest

from fasthebb import data as dio, pipeline, rules
from fasthebb.bench import bench_kernels
from fasthebb.cli import main
from fasthebb.data import Regime, split_regime
from fasthebb.layers import (
    ConvGeometry,
    HebbLayer,
    ReLU,
    conv_forward,
    extract_patches,
    hebb_update,
    init_weights,
)
from fasthebb.pipeline import (
    TrainConfig,
    evaluate,
    extract_features,
    pretrain,
    probe_loss_grad,
    train_probe,
)
from fasthebb.rules import LearningParams, update_fn
from fasthebb.tensor import Tensor


def verdict(number: int, label: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number} [{label}]: {status} ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {number} ({label}) failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), 1e-30)


def test_01_oracle_equivalence():
    start = time.monotonic()
    ok = True
    for rule in ("swta", "hpca"):
        for b in (1, 2, 7, 16):
            for n in (1, 3, 8):
                for s in (1, 5, 32):
                    for seed in range(10):
                        rng = np.random.default_rng(seed)
                        x = Tensor(rng.standard_normal((b, 1, s)))
                        w = init_weights(n, s, seed=seed + 1)
                        params = LearningParams(eta=0.1, temperature=0.7, rule=rule)
                        naive = update_fn(rule, "naive")(w, x, params).delta_w.data
                        fast = update_fn(rule, "fast")(w, x, params).delta_w.data
                        ok = ok and rel_err(naive, fast) <= 1e-10
    verdict(1, "oracle equivalence", ok, time.monotonic() - start, 30.0)


def test_02_hpca_fixed_point():
    start = time.monotonic()
    b, s, n = 64, 8, 4
    rng = np.random.default_rng(7)
    x_mat = rng.standard_normal((b, s))
    evals, evecs = np.linalg.eigh(x_mat.T @ x_mat / b)
    order = np.argsort(evals)[::-1]
    w = Tensor(evecs[:, order[:n]].T.reshape(1, n, s))
    x = Tensor(x_mat.reshape(b, 1, s))
    ok = True
    for impl in ("naive", "fast"):
        res = update_fn("hpca", impl)(w, x, LearningParams(eta=1.0, rule="hpca"))
        ok = ok and np.linalg.norm(res.delta_w.data) <= 1e-10 * np.linalg.norm(w.data)
    verdict(2, "HPCA eigenvector fixed point", ok, time.monotonic() - start, 5.0)


def test_03_hpca_convergence():
    start = time.monotonic()
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    cov = rot @ np.diag([9.0, 1.0]) @ rot.T
    x = np.random.default_rng(3).standard_normal((500, 2)) @ np.linalg.cholesky(cov).T
    ds = dio.Dataset(x.reshape(500, 1, 1, 2), np.zeros(500, dtype=np.int64), 1)
    x = ds.images.reshape(500, 2)
    evals, evecs = np.linalg.eigh(x.T @ x / 500)
    top = evecs[:, np.argmax(evals)]
    best = 0.0
    for lr in (1e-3, 3e-3, 1e-2):
        layer = HebbLayer(init_weights(1, 2, seed=0), LearningParams(eta=lr, rule="hpca"))
        stack, _ = pretrain([layer], ds, TrainConfig(epochs=20, batch_size=64, seed=0))
        w = stack[0].weights.data[0, 0]
        best = max(best, abs(w @ top / np.linalg.norm(w)))
    verdict(3, "HPCA top-eigenvector convergence", best >= 0.99, time.monotonic() - start, 60.0)


def test_04_swta_clustering():
    start = time.monotonic()
    sep = 12.0  # in units of the unit noise std, >= 10 sigma
    ds, centroids = dio.synth_clusters(3, 450, 8, sep, seed=5)
    layer = HebbLayer(
        init_weights(3, 8, seed=1),
        LearningParams(eta=0.1, temperature=0.05, rule="swta"),
    )
    stack, _ = pretrain([layer], ds, TrainConfig(epochs=20, batch_size=64, seed=0))
    w = stack[0].weights.data[0]
    remaining = list(range(3))
    worst = 0.0
    for n in range(3):
        dists = [np.linalg.norm(w[n] - centroids[c]) for c in remaining]
        pick = int(np.argmin(dists))
        worst = max(worst, dists[pick])
        remaining.pop(pick)
    verdict(4, "SWTA centroid clustering", worst <= 0.1 * sep, time.monotonic() - start, 60.0)


def test_05_speedup_floor():
    start = time.monotonic()
    b, n, s = 8192, 96, 75
    report = bench_kernels([(b, n, s)], reps=5, seed=0)
    by_key = {(r.rule, r.impl): r for r in report.rows}
    ok = report.all_equivalent()
    for rule in ("swta", "hpca"):
        naive = by_key[(rule, "naive")]
        fast = by_key[(rule, "fast")]
        ok = ok and fast.speedup >= 5.0
        ok = ok and naive.peak_elems >= b * n * s
        ok = ok and fast.peak_elems <= n * (b + s) + n * n + 64
    verdict(5, "fast-vs-naive speedup floor", ok, time.monotonic() - start, 120.0)


def test_06_conv_dense_reduction():
    start = time.monotonic()
    ok = True
    geometry = ConvGeometry(3, 3, 2, stride=1, padding=1)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        img = Tensor(rng.standard_normal((2, 2, 5, 5)))
        layer = HebbLayer(
            init_weights(3, geometry.patch_size, seed=seed),
            LearningParams(eta=0.1, temperature=0.5, rule="swta" if seed % 2 else "hpca"),
            geometry=geometry,
        )
        conv_res = hebb_update(layer, img)
        patches = extract_patches(img, geometry).patches
        dense_res = update_fn(layer.params.rule, layer.update_impl)(
            layer.weights, patches, layer.params
        )
        ok = ok and np.array_equal(conv_res.delta_w.data, dense_res.delta_w.data)
        # forward vs explicit nested-loop convolution
        out = conv_forward(layer, img)
        w = layer.weights.data[0].reshape(3, 2, 3, 3)
        padded = np.pad(img.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
        oracle = np.zeros_like(out.data)
        for bi in range(2):
            for ni in range(3):
                for i in range(5):
                    for j in range(5):
                        oracle[bi, ni, i, j] = np.sum(
                            padded[bi, :, i : i + 3, j : j + 3] * w[ni]
                        )
        ok = ok and np.abs(out.data - oracle).max() <= 1e-12
    verdict(6, "conv/dense reduction", ok, time.monotonic() - start, 10.0)


def test_07_probe_gradient():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((8, 5))
    labels = rng.integers(0, 3, size=8)
    w = rng.standard_normal((3, 5)) * 0.5
    b = rng.standard_normal(3) * 0.1
    _, gw, gb = probe_loss_grad(w, b, feats, labels)
    eps = 1e-6
    worst = 0.0
    for idx in np.ndindex(w.shape):
        wp, wm = w.copy(), w.copy()
        wp[idx] += eps
        wm[idx] -= eps
        fd = (
            probe_loss_grad(wp, b, feats, labels)[0]
            - probe_loss_grad(wm, b, feats, labels)[0]
        ) / (2 * eps)
        worst = max(worst, abs(fd - gw[idx]))
    for i in range(3):
        bp, bm = b.copy(), b.copy()
        bp[i] += eps
        bm[i] -= eps
        fd = (
            probe_loss_grad(w, bp, feats, labels)[0]
            - probe_loss_grad(w, bm, feats, labels)[0]
        ) / (2 * eps)
        worst = max(worst, abs(fd - gb[i]))
    verdict(7, "probe gradient vs finite differences", worst <= 1e-6, time.monotonic() - start, 1.0)


def test_08_semi_supervised_trend():
    start = time.monotonic()
    dims, k, n_neurons = 64, 8, 16
    gaps = []
    for seed in range(5):
        ds, _ = dio.synth_clusters(k, 1000, dims, separation=6.0, seed=seed)
        train = ds.subset(np.arange(600))
        test = ds.subset(np.arange(600, 1000))
        cfg = TrainConfig(
            epochs=20, batch_size=64, hebb_lr=5e-3, probe_lr=0.05, seed=seed
        )

        def probe_accuracy(stack):
            labeled, _ = split_regime(train, Regime(5, seed))
            feats = extract_features(stack, labeled)
            probe = train_probe(feats, labeled.labels, cfg, class_count=k)
            return evaluate(probe, extract_features(stack, test), test.labels, 1)

        def fresh_stack():
            return [
                HebbLayer(
                    init_weights(n_neurons, dims, seed=seed + 77),
                    LearningParams(eta=5e-3, rule="hpca"),
                ),
                ReLU(),
            ]

        pretrained, _ = pretrain(fresh_stack(), train, cfg)
        gaps.append(probe_accuracy(pretrained) - probe_accuracy(fresh_stack()))
    mean_gap = float(np.mean(gaps)) * 100
    print(f"    mean accuracy gap over 5 seeds: {mean_gap:.1f} points")
    verdict(8, "pretrained vs random features at 5% regime", mean_gap >= 5.0, time.monotonic() - start, 300.0)


def test_09_cli_determinism(tmp_path):
    start = time.monotonic()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[data]\n"
        "kind = clusters\n"
        "num = 240\n"
        "test_num = 120\n"
        "dims = 16\n"
        "clusters = 4\n"
        "separation = 10.0\n"
        "seed = 3\n"
        "[model]\n"
        "init_seed = 0\n"
        "layer1 = dense n=6 rule=hpca impl=fast lr=0.01\n"
        "layer2 = relu\n"
        "[train]\n"
        "epochs = 5\n"
        "batch_size = 32\n"
        "probe_lr = 0.05\n"
        "seed = 0\n"
    )
    ck_a, ck_b = tmp_path / "a.fhb", tmp_path / "b.fhb"
    ok = main(["pretrain", "--config", str(cfg), "--out", str(ck_a)]) == 0
    ok = ok and main(["pretrain", "--config", str(cfg), "--out", str(ck_b)]) == 0
    ok = ok and ck_a.read_bytes() == ck_b.read_bytes()
    ok = ok and main(["probe", "--ckpt", str(ck_a), "--regime", "25", "--seed", "1"]) == 0
    ok = ok and main(["probe", "--ckpt", str(ck_b), "--regime", "25", "--seed", "1"]) == 0
    ok = ok and ck_a.read_bytes() == ck_b.read_bytes()

    def stable_csv(path):
        rows = []
        for line in path.read_text().splitlines():
            cells = line.split(",")
            rows.append(",".join(cells[:6] + cells[7:8] + cells[9:]))  # drop timing cols
        return "\n".join(rows)

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    ok = ok and main(["bench", "--grid", "B=16,64;N=4;S=8", "--out", str(csv_a)]) == 0
    ok = ok and main(["bench", "--grid", "B=16,64;N=4;S=8", "--out", str(csv_b)]) == 0
    ok = ok and stable_csv(csv_a) == stable_csv(csv_b)
    verdict(9, "CLI determinism", ok, time.monotonic() - start, 120.0)
