"""Two-phase semi-supervised protocol: unsupervised Hebbian pretraining over
all samples, then a supervised linear probe on the labeled subset, with the
constant-then-halving learning-rate schedule, Nesterov momentum, and early
stopping on validation accuracy."""

from __future__ import annotations

import errno
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import layers as ly, rules, tensor as tc
from .data import Dataset
from .errors import (
    BadMagic,
    ConfigError,
    CorruptFile,
    EmptyLabeledSet,
    GeometryError,
    VersionMismatch,
)
from .layers import Flatten, HebbLayer, MaxPool, ReLU
from .tensor import Tensor

__all__ = [
    "TrainConfig",
    "PretrainMetrics",
    "LinearProbe",
    "learning_rate",
    "pretrain",
    "extract_features",
    "train_probe",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
]

CKPT_MAGIC = b"FHB1"
CKPT_VERSION = 1

_RULE_IDS = {rules.RULE_SWTA: 0, rules.RULE_HPCA: 1}
_RULE_NAMES = {v: k for k, v in _RULE_IDS.items()}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    hebb_lr: float = 1e-3
    probe_lr: float = 1e-3
    momentum: float = 0.9
    nesterov: bool = True
    weight_decay: float = 0.0
    early_stopping: bool = True
    seed: int = 0
    layer_schedule: str = "joint"  # or "layerwise"

    def __post_init__(self):
        for key, floor in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            if getattr(self, key) < floor:
                raise ConfigError(f"{key} must be >= {floor}, got {getattr(self, key)}")
        for key in ("hebb_lr", "probe_lr"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        if self.layer_schedule not in ("joint", "layerwise"):
            raise ConfigError(f"unknown schedule {self.layer_schedule!r}")


def learning_rate(base: float, epoch: int, epochs: int) -> float:
    """Constant for the first half of training, then halved every 2 epochs."""
    half = epochs // 2
    if epoch < half:
        return base
    return base * 0.5 ** ((epoch - half) // 2 + 1)


@dataclass
class PretrainMetrics:
    """Per-epoch means of each Hebbian layer's :func:`~fasthebb.rules.layer_metric`,
    each taken after the batch's update, plus the plateau epoch: the last
    phase's, judged on the layers that phase trains, as an index into
    ``epoch_metrics`` (None when that phase has none)."""

    epoch_metrics: list[list[float]] = field(default_factory=list)
    converged_epoch: Optional[int] = None


def _batch_iter(n: int, batch_size: int, rng) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _hebb_stage(
    layer: HebbLayer, x: Tensor, train: bool, output: bool
) -> tuple[HebbLayer, float, Optional[Tensor]]:
    """One batch through one Hebbian layer: its rows feed the update and one forward,
    whose y gives the metric and, when ``output`` is set, the stage output (else None);
    both die before the next layer builds its rows."""
    rows = ly.layer_rows(layer, x)
    if train:
        layer = ly.apply_update(layer, ly.hebb_update(layer, rows))
    y = rules.forward_linear(layer.weights, rows)
    metric = rules.layer_metric(layer.weights, rows, y, layer.params)
    return layer, metric, ly.layer_output(layer, y, x) if output else None


_PATIENCE = 3  # epochs without a better metric that make a plateau


def _plateau_epoch(per_layer: list[list[float]], improving_down: list[bool]) -> Optional[int]:
    """First epoch after which no layer metric improves for ``_PATIENCE`` epochs."""
    if not per_layer:
        return None
    epochs = len(per_layer)
    best = list(per_layer[0])
    stale = 0
    for e in range(1, epochs):
        improved = False
        for i, value in enumerate(per_layer[e]):
            better = value < best[i] if improving_down[i] else value > best[i]
            if better:
                best[i] = value
                improved = True
        stale = 0 if improved else stale + 1
        if stale >= _PATIENCE:
            return e - _PATIENCE
    return None


def forward_stack(stack: Sequence, x: Tensor) -> Tensor:
    for stage in stack:
        x = stage.forward(x)
    return x


def pretrain(
    stack: list, data: Dataset, config: TrainConfig
) -> tuple[list, PretrainMetrics]:
    """Unsupervised Hebbian pretraining; never sees labels.

    In the default "joint" schedule every Hebbian layer updates in the same
    forward pass from its own input; "layerwise" trains one Hebbian layer at
    a time, each for the full epoch budget, and only the last phase's plateau
    is reported.  Stages after the last Hebbian layer never run."""
    stack = list(stack)
    rng = np.random.default_rng(config.seed)
    images = data.images
    metrics = PretrainMetrics()
    hebb_positions = [i for i, s in enumerate(stack) if isinstance(s, HebbLayer)]
    if not hebb_positions:
        return stack, metrics
    last = hebb_positions[-1]

    phases: list[list[int]]
    if config.layer_schedule == "layerwise":
        phases = [[pos] for pos in hebb_positions]
    else:
        phases = [hebb_positions]

    for trainable in phases:
        for epoch in range(config.epochs):
            epoch_layer_metrics = {pos: [] for pos in hebb_positions}
            for batch_idx in _batch_iter(len(images), config.batch_size, rng):
                x = Tensor(images[batch_idx])
                for pos, stage in enumerate(stack[: last + 1]):
                    if isinstance(stage, HebbLayer):
                        # nothing reads the last Hebbian layer's output
                        stack[pos], metric, x = _hebb_stage(stage, x, pos in trainable, pos < last)
                        epoch_layer_metrics[pos].append(metric)
                    else:
                        x = stage.forward(x)
            metrics.epoch_metrics.append(
                [float(np.mean(epoch_layer_metrics[pos])) for pos in hebb_positions]
            )
    # the last phase converges on the layers it trains, over its own epochs
    first = len(metrics.epoch_metrics) - config.epochs
    cols = [hebb_positions.index(pos) for pos in trainable]
    plateau = _plateau_epoch(
        [[row[c] for c in cols] for row in metrics.epoch_metrics[first:]],
        [rules.METRIC_FALLS[stack[pos].params.rule] for pos in trainable],
    )
    metrics.converged_epoch = None if plateau is None else first + plateau
    return stack, metrics


_SAME_ROWS_FROM = 256  # GEMM rows from which each output row's bits no longer depend on the row count
_BLOCK_IMAGES = 16  # images per forward when every Hebbian layer has that many rows per image
_BATCH_IMAGES = 256  # images per forward otherwise


def _images_per_forward(stack: Sequence, images: np.ndarray) -> int:
    """``_BLOCK_IMAGES`` when every Hebbian layer is a conv layer with at least
    ``_SAME_ROWS_FROM`` patch rows per image, else ``_BATCH_IMAGES``; the
    extents are walked through the conv, relu and max-pool stages."""
    if images.ndim != 4:
        return _BATCH_IMAGES
    h, w = images.shape[2:]
    try:
        for stage in stack:
            if isinstance(stage, MaxPool):
                h, w = (ly.out_extent(e, stage.window, stage.stride, 0) for e in (h, w))
            elif isinstance(stage, HebbLayer):
                g = stage.geometry
                if g is None:
                    return _BATCH_IMAGES
                h = ly.out_extent(h, g.kernel_h, g.stride, g.padding)
                w = ly.out_extent(w, g.kernel_w, g.stride, g.padding)
                if h * w < _SAME_ROWS_FROM:
                    return _BATCH_IMAGES
            elif not isinstance(stage, (ReLU, Flatten)):
                return _BATCH_IMAGES
    except GeometryError:  # the forward raises this, or an earlier stage's error
        return _BATCH_IMAGES
    return _BLOCK_IMAGES


def extract_features(stack: Sequence, data: Dataset) -> np.ndarray:
    """Forward all samples through the stack, flattening the final stage.

    The images go through in blocks on the thread pool of
    :func:`~fasthebb.tensor.parallel_map`, and each block's rows are copied
    into one feature matrix.  A block of 16 images keeps the stage buffers in
    cache, but it may only be used where it changes no bit.  In a sweep on
    OpenBLAS 0.3.31 (S <= 3072, N <= 100), every output row of a GEMM with at
    least 256 rows was the same at every row count; below 256 rows it was not
    always (16 rows at S=784 already differ).  So 16-image blocks apply when
    every Hebbian layer is a conv layer with at least 256 patch rows
    (out_h * out_w) per image, and any other stack, one with a dense Hebbian
    layer included, goes through in 256-image batches."""
    n = len(data)
    if n == 0:
        return np.zeros((0, 0))
    size = _images_per_forward(stack, data.images)
    starts = range(0, n, size)

    def forward(start: int) -> np.ndarray:
        out = forward_stack(stack, Tensor(data.images[start : start + size]))
        return out.data.reshape(out.shape[0], -1)

    features = None
    for start, rows in zip(starts, tc.parallel_map(forward, starts)):
        if features is None:
            features = np.empty((n, rows.shape[1]), dtype=rows.dtype)
        features[start : start + len(rows)] = rows
    return features


@dataclass
class LinearProbe:
    """Softmax classifier on frozen features: scores = X W^T + b."""

    weights: np.ndarray  # class_count x feature_dim
    bias: np.ndarray  # class_count
    best_epoch: int = 0
    val_accuracy: float = 0.0

    def scores(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights.T + self.bias


def probe_loss_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    weight_decay: float = 0.0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy and its closed-form gradient."""
    b = len(features)
    scores = features @ weights.T + bias
    scores = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    probs = exp / exp.sum(axis=1, keepdims=True)
    nll = -np.mean(np.log(probs[np.arange(b), labels]))
    loss = nll + 0.5 * weight_decay * float(np.sum(weights * weights))
    delta = probs.copy()
    delta[np.arange(b), labels] -= 1.0
    grad_w = delta.T @ features / b + weight_decay * weights
    grad_b = delta.sum(axis=0) / b
    return loss, grad_w, grad_b


def train_probe(
    features: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    class_count: Optional[int] = None,
) -> LinearProbe:
    """Mini-batch SGD with Nesterov momentum on softmax cross-entropy.

    With early stopping on, a seeded 80/20 split is carved from the labeled
    data and the returned probe is the state at the epoch of maximum
    validation accuracy (earliest on ties).  With it off, the probe is the
    last epoch's state, and its accuracy is scored on the training rows.
    """
    if len(features) == 0:
        raise EmptyLabeledSet("train_probe needs at least one labeled sample")
    labels = np.asarray(labels, dtype=np.int64)
    if class_count is None:
        class_count = int(labels.max()) + 1
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(features))
    n_val = int(round(0.2 * len(features)))
    if n_val and config.early_stopping and len(features) > 1:
        val_features = features[order[:n_val]]
        val_labels = labels[order[:n_val]]
        features = features[order[n_val:]]
        labels = labels[order[n_val:]]
    else:
        val_features, val_labels = features, labels

    dim = features.shape[1]
    w = rng.normal(0.0, 0.01, size=(class_count, dim))
    b = np.zeros(class_count)
    vel_w = np.zeros_like(w)
    vel_b = np.zeros_like(b)

    best = (-1.0, 0, w.copy(), b.copy())
    for epoch in range(config.epochs):
        lr = learning_rate(config.probe_lr, epoch, config.epochs)
        for batch_idx in _batch_iter(len(features), config.batch_size, rng):
            _, gw, gb = probe_loss_grad(
                w, b, features[batch_idx], labels[batch_idx], config.weight_decay
            )
            vel_w = config.momentum * vel_w + gw
            vel_b = config.momentum * vel_b + gb
            if config.nesterov:
                w = w - lr * (gw + config.momentum * vel_w)
                b = b - lr * (gb + config.momentum * vel_b)
            else:
                w = w - lr * vel_w
                b = b - lr * vel_b
        val_acc = evaluate(LinearProbe(w, b), val_features, val_labels)
        if val_acc > best[0]:
            best = (val_acc, epoch, w.copy(), b.copy())
    if config.early_stopping:
        val_acc, best_epoch, w, b = best
    else:  # the last epoch's weights, with their own accuracy
        best_epoch = config.epochs - 1
    return LinearProbe(w, b, best_epoch, val_acc)


def evaluate(
    probe: LinearProbe, features: np.ndarray, labels: np.ndarray, k: int = 1
) -> float:
    """Top-k accuracy with deterministic tie-break by lower class index."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(labels) == 0:
        return 0.0
    scores = probe.scores(features)
    ranked = np.argsort(-scores, axis=1, kind="stable")  # stable: lower class wins ties
    hits = (ranked[:, :k] == np.asarray(labels)[:, None]).any(axis=1)
    return float(np.mean(hits))


# --- checkpoint I/O ---------------------------------------------------------


def _pack_array(fh, arr: np.ndarray) -> None:
    fh.write(struct.pack("<B", arr.ndim))
    for extent in arr.shape:
        fh.write(struct.pack("<I", extent))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _unpack_array(raw: bytes, offset: int, path) -> tuple[np.ndarray, int]:
    ndim = struct.unpack_from("<B", raw, offset)[0]
    offset += 1
    shape = struct.unpack_from(f"<{ndim}I", raw, offset)
    offset += 4 * ndim
    count = int(np.prod(shape))
    if offset + 8 * count > len(raw):
        raise CorruptFile(f"{path}: checkpoint ended inside an array block of shape {shape}")
    try:
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
    except ValueError:  # more dims than numpy allows, or extents whose product overflows
        raise CorruptFile(f"{path}: checkpoint array block has an impossible shape {shape}") from None
    offset += 8 * count
    return arr.copy(), offset


def save_checkpoint(
    path, stack: Sequence, probe: Optional[LinearProbe], config_echo: str
) -> None:
    """Binary checkpoint: magic, u32 version, u32 hebbian layer count, per
    layer (u8 rule id, u8 dims, u32 extents, f64 weights), optional probe
    weights, then the experiment config echoed as length-prefixed text.

    The bytes go to a temp file beside ``path``, reach the disk, and only
    then replace it, so a write that fails leaves an existing checkpoint as
    it was."""
    hebb = [s for s in stack if isinstance(s, HebbLayer)]
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<I", CKPT_VERSION))
            fh.write(struct.pack("<I", len(hebb)))
            for layer in hebb:
                fh.write(struct.pack("<B", _RULE_IDS[layer.params.rule]))
                _pack_array(fh, layer.weights.data)
            if probe is None:
                fh.write(struct.pack("<B", 0))
            else:
                fh.write(struct.pack("<B", 1))
                _pack_array(fh, probe.weights)
                _pack_array(fh, probe.bias)
            text = config_echo.encode("utf-8")
            fh.write(struct.pack("<I", len(text)))
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class CheckpointData:
    rules: list[str]
    weights: list[np.ndarray]
    probe: Optional[LinearProbe]
    config_echo: str


def load_checkpoint(path) -> CheckpointData:
    raw = Path(path).read_bytes()
    if raw[:4] != CKPT_MAGIC:
        raise BadMagic(f"{path}: expected FHB1 magic, got {raw[:4]!r}")
    try:
        version = struct.unpack_from("<I", raw, 4)[0]
        if version != CKPT_VERSION:
            raise VersionMismatch(f"{path}: unsupported checkpoint version {version}")
        count = struct.unpack_from("<I", raw, 8)[0]
        offset = 12
        rule_names, weights = [], []
        for _ in range(count):
            rid = struct.unpack_from("<B", raw, offset)[0]
            offset += 1
            if rid not in _RULE_NAMES:
                raise CorruptFile(f"{path}: unknown rule id {rid}")
            arr, offset = _unpack_array(raw, offset, path)
            rule_names.append(_RULE_NAMES[rid])
            weights.append(arr)
        has_probe = struct.unpack_from("<B", raw, offset)[0]
        offset += 1
        probe = None
        if has_probe:
            pw, offset = _unpack_array(raw, offset, path)
            pb, offset = _unpack_array(raw, offset, path)
            probe = LinearProbe(pw, pb.reshape(-1))
        text_len = struct.unpack_from("<I", raw, offset)[0]
        offset += 4
        if offset + text_len > len(raw):
            raise CorruptFile(f"{path}: truncated config echo")
        echo = raw[offset : offset + text_len].decode("utf-8")
    except struct.error as exc:
        raise CorruptFile(f"{path}: truncated checkpoint") from exc
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"{path}: config echo is not UTF-8 text (byte {exc.start})") from None
    return CheckpointData(rule_names, weights, probe, echo)
