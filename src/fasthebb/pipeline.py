"""Two-phase semi-supervised protocol: unsupervised Hebbian pretraining over
all samples, then a supervised linear probe on the labeled subset, with the
constant-then-halving learning-rate schedule, Nesterov momentum, and early
stopping on validation accuracy; and the FHB1 checkpoint format.

Both phases use the :mod:`~fasthebb.tensor` thread pool only where that keeps
every bit: :func:`extract_features` hands it blocks of images, and the
layers and update kernels (:mod:`~fasthebb.rules`) hand it their own work."""

from __future__ import annotations

import errno
import os
import struct
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import layers as ly, rules, tensor as tc
from .data import Dataset
from .errors import ConfigError, CorruptFile, EmptyLabeledSet, NonFiniteWeights, UsageError
from .layers import HebbLayer
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
    "writable_path",
    "save_checkpoint",
    "load_checkpoint",
]

CKPT_MAGIC = b"FHB1"
CKPT_VERSION = 1

_RULE_IDS = {rules.RULE_SWTA: 0, rules.RULE_HPCA: 1}
_RULE_NAMES = {v: k for k, v in _RULE_IDS.items()}


@dataclass(frozen=True)
class TrainConfig:
    """The [train] section: each field is read from the config key of its
    name and typed like its default."""

    epochs: int = 20
    batch_size: int = 64
    hebb_lr: float = 1e-3
    probe_lr: float = 1e-3
    momentum: float = 0.9
    nesterov: bool = True
    weight_decay: float = 0.0
    early_stopping: bool = True
    seed: int = 0
    schedule: str = "joint"  # or "layerwise"

    def __post_init__(self):
        for key, floor in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            if getattr(self, key) < floor:
                raise ConfigError(f"{key} must be >= {floor}, got {getattr(self, key)}")
        for key in ("hebb_lr", "probe_lr"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.schedule not in ("joint", "layerwise"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")


def learning_rate(base: float, epoch: int, epochs: int) -> float:
    """Constant for the first half of training, then halved every 2 epochs."""
    half = epochs // 2
    if epoch < half:
        return base
    return base * 0.5 ** ((epoch - half) // 2 + 1)


@dataclass
class PretrainMetrics:
    """Per-epoch means of each Hebbian layer's batch metrics (see
    :func:`_hebb_stage`), and the plateau epoch of the last phase, judged on
    the layers it trains, as an index into ``epoch_metrics`` (or None)."""

    epoch_metrics: list[list[float]] = field(default_factory=list)
    converged_epoch: Optional[int] = None


def _batch_iter(n: int, batch_size: int, rng) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _hebb_stage(
    layer: HebbLayer, x: Tensor, train: bool, output: bool
) -> tuple[HebbLayer, float, Optional[Tensor]]:
    """One batch through one Hebbian layer: the layer, its metric and, when
    ``output`` is set, the stage output (else None).  The metric comes from
    the forward under the weights the update starts from, as an SGD loop logs
    its loss; the output is a view of the forward under the updated weights.
    A training stage holds its rows and at most two b_eff x N buffers at
    once: its kernel runs the first forward and returns the metric."""
    rows = ly.layer_rows(layer, x)
    if not train:
        y = rules.forward_linear(layer.weights, rows)
        value = rules.layer_metric(layer.weights, rows, y, layer.params)
        return layer, value, ly.layer_output(layer, y, x) if output else None
    update = ly.hebb_update(layer, rows, metric=True)
    layer = ly.apply_update(layer, update)
    if not output:
        return layer, update.metric, None
    return layer, update.metric, ly.layer_output(layer, rules.forward_linear(layer.weights, rows), x)


_PATIENCE = 3  # epochs without a better metric that make a plateau


def _plateau_epoch(per_layer: list[list[float]], improving_down: list[bool]) -> Optional[int]:
    """First epoch after which no layer metric improves for ``_PATIENCE`` epochs."""
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
    if config.schedule == "layerwise":
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


_BLOCK_IMAGES = 16  # images per block to aim for: a block's stage buffers stay in cache


def extract_features(stack: Sequence, data: Dataset) -> np.ndarray:
    """Forward all samples through the stack into one preallocated feature
    matrix, flattening the final stage (a trailing ``Flatten`` is not run).
    The images go to :func:`~fasthebb.tensor.run_tasks` in blocks of about
    ``_BLOCK_IMAGES``, cut where :func:`~fasthebb.tensor.gemm_ranges` allows
    for every Hebbian layer's forward, so every feature has the bits of one
    forward over all images."""
    n, shape, products = len(data), data.images.shape[1:], []
    for stage in stack:
        shape = stage.out_shape(shape)
        if isinstance(stage, HebbLayer):
            products.append((int(np.prod(shape[1:])), stage.num_neurons, stage.input_size))
    features = np.empty((n, int(np.prod(shape))), dtype=data.images.dtype)
    stages = stack[:-1] if stack and isinstance(stack[-1], ly.Flatten) else stack

    def fill(start: int, stop: int) -> None:
        out = forward_stack(stages, Tensor(data.images[start:stop]))
        features[start:stop].reshape(out.shape)[...] = out.data

    tc.run_tasks([partial(fill, *r) for r in tc.gemm_ranges(n, -(-n // _BLOCK_IMAGES), products)])
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
    probs = tc.softmax(Tensor(features @ weights.T + bias), 1.0)[0].data
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
    class_count: int,
) -> LinearProbe:
    """Mini-batch SGD with Nesterov momentum on softmax cross-entropy.

    With early stopping on, a seeded 80/20 split is carved from the labeled
    data and the returned probe is the state at the epoch of maximum
    validation accuracy (earliest on ties).  With it off, the probe is the
    last epoch's state, and its accuracy is scored on the training rows.
    A probe with a NaN or Inf weight or bias raises :class:`NonFiniteWeights`.
    """
    if len(features) == 0:
        raise EmptyLabeledSet("train_probe needs at least one labeled sample")
    labels = np.asarray(labels, dtype=np.int64)
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
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
        raise NonFiniteWeights("probe training produced NaN or Inf weights")
    return LinearProbe(w, b, best_epoch, val_acc)


def evaluate(
    probe: LinearProbe, features: np.ndarray, labels: np.ndarray, k: int = 1
) -> float:
    """Top-k accuracy with deterministic tie-break by lower class index."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
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


def _unpack_array(raw: bytes, offset: int, path, block: str) -> tuple[np.ndarray, int]:
    """The array block at ``offset`` and the offset after it; a block holding
    NaN or Inf is a corrupt file, named by ``block`` in the error."""
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
    bad = count - np.count_nonzero(np.isfinite(arr))
    if bad:
        raise CorruptFile(f"{path}: {block}: {bad} of {count} values are NaN or Inf")
    offset += 8 * count
    return arr.copy(), offset


def writable_path(path) -> Path:
    """``path`` as a :class:`Path` a checkpoint or report can be written to:
    not a directory, in a directory that exists."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path.parent))
    return path


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
    path = writable_path(path)
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
        raise CorruptFile(f"{path}: expected FHB1 magic, got {raw[:4]!r}")
    try:
        version = struct.unpack_from("<I", raw, 4)[0]
        if version != CKPT_VERSION:
            raise CorruptFile(f"{path}: unsupported checkpoint version {version}")
        count = struct.unpack_from("<I", raw, 8)[0]
        offset = 12
        rule_names, weights = [], []
        for index in range(1, count + 1):
            rid = struct.unpack_from("<B", raw, offset)[0]
            offset += 1
            if rid not in _RULE_NAMES:
                raise CorruptFile(f"{path}: unknown rule id {rid}")
            arr, offset = _unpack_array(raw, offset, path, f"Hebbian weight block {index}")
            rule_names.append(_RULE_NAMES[rid])
            weights.append(arr)
        has_probe = struct.unpack_from("<B", raw, offset)[0]
        offset += 1
        probe = None
        if has_probe:
            pw, offset = _unpack_array(raw, offset, path, "probe weights")
            pb, offset = _unpack_array(raw, offset, path, "probe bias")
            probe = LinearProbe(pw, pb.reshape(-1))
        text_len = struct.unpack_from("<I", raw, offset)[0]
        offset += 4
        if offset + text_len > len(raw):
            raise CorruptFile(f"{path}: truncated config echo")
        if offset + text_len < len(raw):
            extra = len(raw) - offset - text_len
            raise CorruptFile(f"{path}: {extra} bytes follow the config echo that ends the checkpoint")
        echo = raw[offset : offset + text_len].decode("utf-8")
    except struct.error as exc:
        raise CorruptFile(f"{path}: truncated checkpoint") from exc
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"{path}: config echo is not UTF-8 text (byte {exc.start})") from None
    return CheckpointData(rule_names, weights, probe, echo)
