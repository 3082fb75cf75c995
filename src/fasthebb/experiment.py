"""Build datasets, layer stacks, and training configs from parsed config
files; shared by the CLI subcommands."""

from __future__ import annotations

import numpy as np

from . import data as dio
from .data import Dataset
from .errors import ConfigError
from .layers import ConvGeometry, Flatten, HebbLayer, MaxPool, ReLU, init_weights
from .pipeline import TrainConfig
from .rules import LearningParams, update_fn
from .tensor import Tensor

__all__ = ["build_dataset", "build_stack", "build_train_config", "restore_stack"]


def _get(section: dict, key: str, cast, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        if cast is bool:
            return section[key].lower() in ("1", "true", "yes", "on")
        return cast(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {section[key]!r}") from exc


def build_dataset(cfg: dict, split: str = "train") -> Dataset:
    """Instantiate the dataset described by the [data] section.

    For synthetic kinds the test split reuses the generator with a shifted
    seed so train and test are disjoint draws from the same distribution.
    """
    section = cfg.get("data", {})
    kind = _get(section, "kind", str)
    base_seed = _get(section, "seed", int, 0)
    seed = base_seed + 9999 if split == "test" else base_seed
    if kind == "clusters":
        num = _get(section, "num" if split == "train" else "test_num", int,
                   _get(section, "num", int) if split == "test" else None)
        ds, _ = dio.synth_clusters(
            k=_get(section, "clusters", int),
            num=num,
            dims=_get(section, "dims", int),
            separation=_get(section, "separation", float),
            seed=seed,
            noise_std=_get(section, "noise_std", float, 1.0),
            centroid_seed=base_seed,
        )
        return Dataset(ds.images, ds.labels, ds.class_count, split)
    if kind == "gaussian":
        num = _get(section, "num" if split == "train" else "test_num", int,
                   _get(section, "num", int) if split == "test" else None)
        dims = _get(section, "dims", int)
        diag = section.get("cov_diag")
        cov = [float(v) for v in diag.split(",")] if diag else 1.0
        ds = dio.synth_gaussian(num, dims, cov, seed)
        return Dataset(ds.images, ds.labels, ds.class_count, split)
    if kind == "cifar10":
        key = "path" if split == "train" else "test_path"
        return dio.load_cifar10(_get(section, key, str), split)
    if kind == "fhds":
        key = "path" if split == "train" else "test_path"
        return dio.load_dataset(_get(section, key, str), split)
    raise ConfigError(f"unknown data kind {kind!r}")


def _parse_layer_spec(spec: str) -> tuple[str, dict[str, str]]:
    parts = spec.split()
    if not parts:
        raise ConfigError("empty layer spec")
    kind, opts = parts[0], {}
    for part in parts[1:]:
        if "=" not in part:
            raise ConfigError(f"bad layer option {part!r} in {spec!r}")
        key, value = part.split("=", 1)
        opts[key] = value
    return kind, opts


def _opt(opts: dict, key: str, cast, default=None):
    if key not in opts:
        if default is None:
            raise ConfigError(f"layer spec missing option {key!r}")
        return default
    try:
        return cast(opts[key])
    except ValueError as exc:
        raise ConfigError(f"bad layer option {key}={opts[key]!r}") from exc


_HEBB_OPTIONS = {"n", "lr", "t", "rule", "impl"}
_LAYER_OPTIONS = {  # the options each layer kind reads
    "relu": set(), "flatten": set(), "maxpool": {"window", "stride"},
    "dense": _HEBB_OPTIONS, "conv": {"k", "kh", "kw", "stride", "pad"} | _HEBB_OPTIONS,
}


def build_stack(cfg: dict, input_shape: tuple[int, int, int], hebb_lr: float) -> list:
    """Build the stage list from the [model] section, inferring each
    Hebbian layer's input size from the shapes that precede it."""
    section = cfg.get("model", {})
    init_seed = _get(section, "init_seed", int, 0)
    layer_keys = sorted(
        (k for k in section if k.startswith("layer")),
        key=lambda k: int(k[5:]),
    )
    stack: list = []
    shape: tuple = input_shape  # (C, H, W) or (F,)
    for i, key in enumerate(layer_keys):
        kind, opts = _parse_layer_spec(section[key])
        unknown = sorted(set(opts) - _LAYER_OPTIONS.get(kind, set(opts)))  # unknown kinds fail below
        if unknown:
            raise ConfigError(f"{key}: {kind} layer has no option {unknown[0]!r}")
        if kind == "relu":
            stack.append(ReLU())
        elif kind == "flatten":
            stack.append(Flatten())
            shape = (int(np.prod(shape)),)
        elif kind == "maxpool":
            window = _opt(opts, "window", int, 2)
            stride = _opt(opts, "stride", int, window)
            if len(shape) != 3:
                raise ConfigError(f"{key}: maxpool needs image-shaped input")
            c, h, w = shape
            stack.append(MaxPool(window, stride))
            shape = (c, (h - window) // stride + 1, (w - window) // stride + 1)
        elif kind in ("dense", "conv"):
            geometry, size, out_hw = None, int(np.prod(shape)), ()
            if kind == "conv":
                if len(shape) != 3:
                    raise ConfigError(f"{key}: conv needs image-shaped input")
                c, h, w = shape
                geometry = ConvGeometry(
                    kernel_h=_opt(opts, "kh", int, _opt(opts, "k", int, 3)),
                    kernel_w=_opt(opts, "kw", int, _opt(opts, "k", int, 3)),
                    in_channels=c,
                    stride=_opt(opts, "stride", int, 1),
                    padding=_opt(opts, "pad", int, 0),
                )
                size = geometry.patch_size
                out_hw = (
                    (h + 2 * geometry.padding - geometry.kernel_h) // geometry.stride + 1,
                    (w + 2 * geometry.padding - geometry.kernel_w) // geometry.stride + 1,
                )
            n = _opt(opts, "n", int)
            impl = _opt(opts, "impl", str, "fast")
            try:
                params = LearningParams(
                    eta=_opt(opts, "lr", float, hebb_lr),
                    temperature=_opt(opts, "t", float, 1.0),
                    rule=_opt(opts, "rule", str, "swta"),
                )
                update_fn(params.rule, impl)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
            stack.append(
                HebbLayer(
                    weights=init_weights(n, size, seed=init_seed + i),
                    params=params,
                    geometry=geometry,
                    update_impl=impl,
                )
            )
            shape = (n, *out_hw)
        else:
            raise ConfigError(f"{key}: unknown layer kind {kind!r}")
    return stack


def build_train_config(cfg: dict, seed_override: int | None = None) -> TrainConfig:
    section = cfg.get("train", {})
    seed = _get(section, "seed", int, 0)
    if seed_override is not None:
        seed = seed_override
    return TrainConfig(
        epochs=_get(section, "epochs", int, 20),
        batch_size=_get(section, "batch_size", int, 64),
        hebb_lr=_get(section, "hebb_lr", float, 1e-3),
        probe_lr=_get(section, "probe_lr", float, 1e-3),
        momentum=_get(section, "momentum", float, 0.9),
        nesterov=_get(section, "nesterov", bool, True),
        weight_decay=_get(section, "weight_decay", float, 0.0),
        early_stopping=_get(section, "early_stopping", bool, True),
        seed=seed,
        layer_schedule=_get(section, "schedule", str, "joint"),
    )


def restore_stack(cfg: dict, input_shape, hebb_lr: float, weights: list[np.ndarray]) -> list:
    """Rebuild a stack from config and overwrite Hebbian weights in order."""
    from dataclasses import replace

    stack = build_stack(cfg, input_shape, hebb_lr)
    it = iter(weights)
    restored = []
    for stage in stack:
        if isinstance(stage, HebbLayer):
            stage = replace(stage, weights=Tensor(next(it)))
        restored.append(stage)
    return restored
