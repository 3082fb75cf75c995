"""Seeded workload inputs and the config files that hand them to the program.

Images are CIFAR-shaped (3 x 32 x 32, values in [0, 1]) with class
structure: each of ten classes has a smooth random prototype, and an image is
its class prototype under a random contrast plus pixel noise.  A linear probe
on random conv features therefore scores well above chance without reaching
100%.  Everything is drawn from ``numpy.random.default_rng(seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reference

CLASSES = 10
IMAGE_SHAPE = (3, 32, 32)
BATCH_SIZE = 64

# The conv stack of the ROADMAP Baseline profile: (kernel, neurons, padding)
# per conv layer; every conv layer is followed by relu and a 2x2 max-pool.
CONV_LAYERS = ((5, 32, 2), (3, 64, 1))

# Inputs of the stored epoch reference (see make_reference.py).
REFERENCE_SEED = 0
REFERENCE_IMAGES = 128


@dataclass(frozen=True)
class Sizes:
    """How much work one workload repetition does."""

    epoch_images: int  # images per pretrain call
    probe_train: int  # images split_regime divides into labeled/unlabeled
    probe_test: int
    probe_regime: int  # labeled percent
    probe_epochs: int
    kernel_images: int  # images whose conv patches feed the kernel workload
    naive_images: int  # of those, how many the naive kernels see
    setup_repeats: int  # extra processes that only set up, for setup_s
    min_reps: int


FULL = Sizes(
    epoch_images=64,
    probe_train=512,
    probe_test=256,
    probe_regime=25,
    probe_epochs=20,
    kernel_images=64,  # 65536 x 75 and 16384 x 288 rows, as in the profile
    naive_images=1,  # 1024 x 75 and 256 x 288 rows
    setup_repeats=8,
    min_reps=3,
)

TINY = Sizes(
    epoch_images=8,
    probe_train=40,
    probe_test=16,
    probe_regime=25,
    probe_epochs=2,
    kernel_images=1,
    naive_images=1,
    setup_repeats=1,
    min_reps=1,
)

SIZES = {"full": FULL, "tiny": TINY}


def make_images(seed: int, counts: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (images, labels) pair per count, all from the same class prototypes."""
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(0.0, 1.0, size=(CLASSES, 3, 8, 8))
    protos = coarse.repeat(4, axis=2).repeat(4, axis=3)
    out = []
    for n in counts:
        labels = rng.integers(0, CLASSES, size=n)
        contrast = rng.uniform(0.6, 1.4, size=(n, 1, 1, 1))
        noise = rng.normal(0.0, 0.35, size=(n, *IMAGE_SHAPE))
        images = np.clip(0.5 + contrast * (protos[labels] - 0.5) + noise, 0.0, 1.0)
        out.append((images, labels))
    return out


def stack_config(rule: str, seed: int, train_path, test_path, epochs: int) -> str:
    """Experiment config for the profile conv stack over FHDS files."""
    lines = [
        "[data]",
        "kind = fhds",
        f"path = {train_path}",
        f"test_path = {test_path}",
        "[model]",
        f"init_seed = {seed}",
    ]
    for i, (kernel, n, pad) in enumerate(CONV_LAYERS):
        lines += [
            f"layer{3 * i + 1} = conv k={kernel} n={n} pad={pad} rule={rule} impl=fast",
            f"layer{3 * i + 2} = relu",
            f"layer{3 * i + 3} = maxpool window=2",
        ]
    lines += [
        f"layer{3 * len(CONV_LAYERS) + 1} = flatten",
        "[train]",
        f"epochs = {epochs}",
        f"batch_size = {BATCH_SIZE}",
        "probe_lr = 0.01",
        f"seed = {seed}",
    ]
    return "\n".join(lines) + "\n"


def dense_config(n: int, seed: int, path) -> str:
    """One dense Hebbian layer over FHDS rows: the kernel workload's shapes."""
    return (
        f"[data]\nkind = fhds\npath = {path}\n"
        f"[model]\ninit_seed = {seed}\nlayer1 = dense n={n} rule=swta impl=fast\n"
    )


def kernel_rows(images: np.ndarray, seed: int) -> list[np.ndarray]:
    """The rows each conv layer's update sees: im2col patches of the images,
    then of relu(pool(conv)) under seeded Gaussian weights."""
    rng = np.random.default_rng(seed + 1)
    rows, x = [], images
    for kernel, n, pad in CONV_LAYERS:
        rows.append(reference.patches(x, kernel, pad))
        s = x.shape[1] * kernel * kernel
        w = rng.normal(0.0, 1.0 / np.sqrt(s), size=(n, s))
        x = reference.relu_pool2(reference.conv2d(x, w, kernel, pad))
    return rows


def write_inputs(workload: str, seed: int, sizes: Sizes, workdir: Path) -> list[Path]:
    """Write the FHDS files and configs for one workload; returns the configs."""
    from fasthebb import data as dio

    workdir.mkdir(parents=True, exist_ok=True)

    def save(name: str, images: np.ndarray, labels: np.ndarray, classes: int) -> Path:
        path = workdir / name
        dio.save_dataset(path, dio.Dataset(images, labels, classes))
        return path.resolve()

    configs = []
    if workload in ("epoch-hpca", "epoch-swta"):
        ((images, labels),) = make_images(seed, (sizes.epoch_images,))
        train = save("train.fhds", images, labels, CLASSES)
        configs.append(stack_config(workload[6:], seed, train, train, epochs=1))
    elif workload == "probe":
        (tr, te) = make_images(seed, (sizes.probe_train, sizes.probe_test))
        train = save("train.fhds", *tr, CLASSES)
        test = save("test.fhds", *te, CLASSES)
        configs.append(stack_config("hpca", seed, train, test, epochs=sizes.probe_epochs))
    elif workload == "kernels":
        ((images, _),) = make_images(seed, (sizes.kernel_images,))
        for i, (rows, (_, n, _)) in enumerate(zip(kernel_rows(images, seed), CONV_LAYERS)):
            b, s = rows.shape
            path = save(f"rows{i + 1}.fhds", rows.reshape(b, 1, 1, s), np.zeros(b, dtype=np.int64), 1)
            configs.append(dense_config(n, seed, path))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths = []
    for i, text in enumerate(configs):
        path = workdir / f"config{i + 1}.cfg"
        path.write_text(text)
        paths.append(path)
    return paths
