"""Build datasets, layer stacks, and training configs from parsed config
files; shared by the CLI subcommands."""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np

from . import data as dio
from .data import Dataset
from .errors import ConfigError, CorruptFile
from .layers import ConvGeometry, Flatten, HebbLayer, MaxPool, ReLU, init_weights
from .pipeline import CheckpointData, TrainConfig
from .rules import LearningParams, update_fn
from .tensor import Tensor

__all__ = ["build_dataset", "input_shape", "build_stack", "build_train_config", "restore_stack"]


_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)

# largest synthetic sample scale, as separation * noise_std or a variance:
# above it the squares of the samples alone come near the float64 limit, so
# training could only end in the numeric error (below it, it still may)
_SAMPLE_SCALE_MAX = 1e150


def _read(section: dict, key: str, cast, default=None, floor=None):
    """``section[key]`` as ``cast`` (``default`` when absent; required when
    that is None).  A bool must be a boolean word; a float, or each float of
    a list, must be finite; a number must be >= ``floor``."""
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = section[key]
    try:
        value = _BOOLS[raw.lower()] if cast is bool else cast(raw)
    except (KeyError, ValueError):
        value = None
    if value is None or cast in (float, _floats) and not np.isfinite(value).all():
        raise ConfigError(f"bad value for {key!r}: {raw!r}")
    if floor is not None and value < floor:
        raise ConfigError(f"{key!r} must be >= {floor}, got {raw}")
    return value


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def build_dataset(cfg: dict, split: str = "train") -> Dataset:
    """Instantiate the dataset described by the [data] section.

    For synthetic kinds the test split reuses the generator with a shifted
    seed so train and test are disjoint draws from the same distribution.
    """
    section = cfg.get("data", {})
    kind = _data_kind(section)
    base_seed = _read(section, "seed", int, 0, floor=0)
    test = split == "test"
    if kind in ("cifar10", "fhds"):
        path = _data_path(section, test)
        if test and kind == "fhds":  # every stack is built for the train shape: compare headers first
            shape, train_shape = dio.fhds_shape(path), dio.fhds_shape(_data_path(section, False))
            if shape != train_shape:
                raise CorruptFile(f"{path}: test images are {shape}, train images {train_shape}")
        return (dio.load_cifar10 if kind == "cifar10" else dio.load_dataset)(path)
    seed = base_seed + 9999 if test else base_seed
    num = _read(section, "num", int, floor=1)
    test_num = _read(section, "test_num", int, num, floor=1)  # checked for either split
    num = test_num if test else num
    dims = _read(section, "dims", int, floor=1)
    if kind == "clusters":
        separation, noise_std = _read(section, "separation", float), _read(section, "noise_std", float, 1.0)
        scale = separation * noise_std
        if not abs(scale) <= _SAMPLE_SCALE_MAX:
            raise ConfigError(f"'separation' * 'noise_std' must be <= {_SAMPLE_SCALE_MAX:g}, got {scale:g}")
        ds, _ = dio.synth_clusters(
            k=_read(section, "clusters", int, floor=1),
            num=num,
            dims=dims,
            separation=separation,
            seed=seed,
            noise_std=noise_std,
            centroid_seed=base_seed,
        )
        return ds
    cov_diag = _read(section, "cov_diag", _floats, 1.0)
    if np.max(cov_diag) > _SAMPLE_SCALE_MAX:
        raise ConfigError(f"'cov_diag' entries must be <= {_SAMPLE_SCALE_MAX:g}, got {np.max(cov_diag):g}")
    return dio.synth_gaussian(num, dims, cov_diag, seed)


def _data_kind(section: dict) -> str:
    kind = _read(section, "kind", str)
    if kind not in ("cifar10", "fhds", "clusters", "gaussian"):
        raise ConfigError(f"unknown data kind {kind!r}")
    return kind


def _data_path(section: dict, test: bool) -> str:
    path = _read(section, "test_path" if test else "path", str)
    if "\0" in path:  # open() raises ValueError on it
        raise ConfigError(f"data path {path!r} contains a NUL byte")
    return path


def input_shape(cfg: dict) -> tuple[int, int, int]:
    """The C x H x W shape of one train sample of the [data] section, from the
    FHDS header, the CIFAR-10 layout or the synthetic ``dims``.  Every [model]
    layer spec is parsed first, so a bad layer is named before a data file
    that cannot be read."""
    _layer_specs(cfg)
    section = cfg.get("data", {})
    kind = _data_kind(section)
    if kind == "fhds":
        return dio.fhds_shape(_data_path(section, False))
    if kind == "cifar10":
        return dio.CIFAR_SHAPE
    return (1, 1, _read(section, "dims", int, floor=1))


_HEBB_OPTIONS = {"n", "lr", "t", "rule", "impl"}
_LAYER_OPTIONS = {  # the options each layer kind reads
    "relu": set(), "flatten": set(), "maxpool": {"window", "stride"},
    "dense": _HEBB_OPTIONS, "conv": {"k", "kh", "kw", "stride", "pad"} | _HEBB_OPTIONS,
}


def _parse_layer_spec(spec: str) -> tuple[str, dict[str, str]]:
    """A layer spec's kind and options; a kind or option no layer reads fails here."""
    parts = spec.split()
    if not parts:
        raise ConfigError("empty layer spec")
    kind, opts = parts[0], {}
    for part in parts[1:]:
        if "=" not in part:
            raise ConfigError(f"bad layer option {part!r} in {spec!r}")
        key, value = part.split("=", 1)
        opts[key] = value
    if kind not in _LAYER_OPTIONS:
        raise ConfigError(f"unknown layer kind {kind!r}")
    unknown = sorted(set(opts) - _LAYER_OPTIONS[kind])
    if unknown:
        raise ConfigError(f"{kind} layer has no option {unknown[0]!r}")
    return kind, opts


def _layer_specs(cfg: dict) -> list[tuple[str, str, dict[str, str]]]:
    """The [model] section's ``layerN`` keys in stage order, each with its
    parsed spec; an error names its key."""
    section = cfg.get("model", {})
    specs = []
    for key in sorted((k for k in section if k.startswith("layer")), key=lambda k: int(k[5:])):
        try:
            specs.append((key, *_parse_layer_spec(section[key])))
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return specs


def build_stack(cfg: dict, input_shape: tuple[int, int, int], hebb_lr: float) -> list:
    """Build the stage list from the [model] section, sizing each Hebbian
    layer's input by the ``out_shape`` of the stages that precede it."""
    init_seed = _read(cfg.get("model", {}), "init_seed", int, 0, floor=0)
    stack: list = []
    shape: tuple = input_shape  # (C, H, W) or (F,)
    for i, (key, kind, opts) in enumerate(_layer_specs(cfg)):
        try:
            stack.append(_build_stage(kind, opts, shape, hebb_lr, init_seed + i))
            shape = stack[-1].out_shape(shape)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return stack


def _build_stage(kind: str, opts: dict, shape: tuple, hebb_lr: float, seed: int):
    """One stage from its layer kind, options and input shape."""
    if kind == "relu":
        return ReLU()
    if kind == "flatten":
        return Flatten()
    if kind != "dense" and len(shape) != 3:
        raise ConfigError(f"{kind} needs image-shaped input")
    if kind == "maxpool":
        window = _read(opts, "window", int, 2)
        return MaxPool(window, _read(opts, "stride", int, window))
    geometry, size = None, int(np.prod(shape))
    if kind == "conv":
        k = _read(opts, "k", int, 3)
        kh, kw = _read(opts, "kh", int, k), _read(opts, "kw", int, k)
        geometry = ConvGeometry(kh, kw, shape[0], _read(opts, "stride", int, 1), _read(opts, "pad", int, 0))
        geometry.out_hw(*shape[1:])  # a bad geometry fails before any weight is drawn
        size = geometry.patch_size
    n = _read(opts, "n", int, floor=1)
    impl = _read(opts, "impl", str, "fast")
    params = LearningParams(
        eta=_read(opts, "lr", float, hebb_lr),
        temperature=_read(opts, "t", float, LearningParams.temperature),
        rule=_read(opts, "rule", str, LearningParams.rule),
    )
    update_fn(params.rule, impl)
    return HebbLayer(init_weights(n, size, seed=seed), params, geometry, update_impl=impl)


def build_train_config(cfg: dict, seed_override: int | None = None) -> TrainConfig:
    """The [train] section as a :class:`TrainConfig`: a key that is present
    is read with the type of its field's default; an absent key keeps it."""
    section = cfg.get("train", {})
    values = {}
    for f in fields(TrainConfig):
        if f.name in section:
            values[f.name] = _read(section, f.name, type(f.default))
    if seed_override is not None:
        values["seed"] = seed_override
    return TrainConfig(**values)


def restore_stack(cfg: dict, ckpt: CheckpointData) -> list:
    """Rebuild from config the stack ``pretrain`` builds, for the train
    split's :func:`input_shape`, and put the checkpoint's Hebbian weights in
    it, in order; their count, shapes and rules, and a probe's shape, must
    match the config.  At most an FHDS header is read, never an image."""
    shape = input_shape(cfg)
    stack = build_stack(cfg, shape, build_train_config(cfg).hebb_lr)
    hebb = [(key, i) for i, (key, _, _) in enumerate(_layer_specs(cfg)) if isinstance(stack[i], HebbLayer)]
    if len(ckpt.weights) != len(hebb):
        names = ", ".join(key for key, _ in hebb) or "model"
        raise CorruptFile(f"{names}: expected {len(hebb)} Hebbian weight blocks, got {len(ckpt.weights)}")
    for (key, i), weights, rule in zip(hebb, ckpt.weights, ckpt.rules):
        layer = stack[i]
        if weights.shape != layer.weights.shape:
            raise CorruptFile(f"{key}: expected weights of shape {layer.weights.shape}, got {weights.shape}")
        if rule != layer.params.rule:
            raise CorruptFile(f"{key}: expected rule {layer.params.rule!r}, got {rule!r}")
        stack[i] = replace(layer, weights=Tensor(weights))
    for stage in stack:
        shape = stage.out_shape(shape)
    probe, features = ckpt.probe, int(np.prod(shape))  # extract_features flattens the last stage
    if probe is not None and probe.weights.shape != (len(probe.bias), features):
        raise CorruptFile(f"probe: expected weights of shape {(len(probe.bias), features)}, got {probe.weights.shape}")
    return stack
