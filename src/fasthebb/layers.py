"""Hebbian dense/conv layers, patch extraction, and fixed-function stages.

A convolutional Hebbian update is the dense update applied to the flattened
patch batch: every window of every image is one row of one larger
mini-batch.  A conv stage's output is a channels-last view of its forward
rows (:func:`layer_output`), a layout every later stage accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

from . import rules, tensor as tc
from .errors import ConfigError, NonFiniteWeights, ShapeMismatch
from .rules import LearningParams, UpdateResult
from .tensor import Tensor

__all__ = [
    "ConvGeometry",
    "HebbLayer",
    "PatchBatch",
    "ReLU",
    "MaxPool",
    "Flatten",
    "out_extent",
    "extract_patches",
    "conv_forward",
    "layer_rows",
    "layer_output",
    "hebb_update",
    "apply_update",
    "relu",
    "max_pool",
    "init_weights",
]


@dataclass(frozen=True)
class ConvGeometry:
    kernel_h: int
    kernel_w: int
    in_channels: int
    stride: int = 1
    padding: int = 0

    @property
    def patch_size(self) -> int:
        return self.kernel_h * self.kernel_w * self.in_channels

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        """The out_h x out_w kernel positions on an h x w image."""
        return (out_extent(h, self.kernel_h, self.stride, self.padding),
                out_extent(w, self.kernel_w, self.stride, self.padding))


@dataclass(frozen=True)
class PatchBatch:
    """All windows of all images as one b_eff x 1 x S batch ``patches``,
    b_eff = B * out_h * out_w: rows image-major, then row-major over offsets;
    each row channel-major, then row-major."""

    patches: Tensor


@dataclass(frozen=True)
class HebbLayer:
    """A Hebbian layer: weights + rule parameters + kernel flavor."""

    weights: Tensor  # 1 x N x S
    params: LearningParams
    geometry: Optional[ConvGeometry] = None  # None for dense layers
    update_impl: str = "fast"

    @property
    def num_neurons(self) -> int:
        return self.weights.shape[1]

    @property
    def input_size(self) -> int:
        return self.weights.shape[2]

    def forward(self, x: Tensor) -> Tensor:
        return conv_forward(self, x)

    def out_shape(self, in_shape: tuple) -> tuple:
        """(N,) for a dense layer, (N, out_h, out_w) for a conv layer on C x H x W input."""
        if self.geometry is None:
            return (self.num_neurons,)
        return (self.num_neurons, *self.geometry.out_hw(*in_shape[1:]))


class ReLU:
    """Fixed-function rectifier stage."""

    def forward(self, x: Tensor) -> Tensor:
        return relu(x)

    def out_shape(self, in_shape: tuple) -> tuple:
        return in_shape


@dataclass(frozen=True)
class MaxPool:
    """Fixed-function max pooling over the trailing two dims."""

    window: int
    stride: int

    def forward(self, x: Tensor) -> Tensor:
        return max_pool(x, self.window, self.stride)

    def out_shape(self, in_shape: tuple) -> tuple:
        c, h, w = in_shape
        return (c, *(out_extent(e, self.window, self.stride, 0) for e in (h, w)))


class Flatten:
    """Collapse everything but the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return tc.reshape(x, (x.shape[0], *self.out_shape(x.shape[1:])))

    def out_shape(self, in_shape: tuple) -> tuple:
        return (int(np.prod(in_shape)),)


def init_weights(n: int, s: int, seed: int, dtype=np.float64) -> Tensor:
    """Zero-mean Gaussian init with std 1/sqrt(S), seeded; a 1 x N x S block
    with N and S at least 1."""
    if n < 1 or s < 1:
        raise ConfigError(f"weights need n >= 1 and s >= 1, got n={n} and s={s}")
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0.0, 1.0 / np.sqrt(s), size=(1, n, s)).astype(dtype))


def out_extent(extent: int, kernel: int, stride: int, padding: int) -> int:
    """Number of kernel positions along one axis: the only place an output
    extent is computed, and where its kernel, stride and padding are checked."""
    if kernel < 1 or stride < 1 or padding < 0:
        raise ConfigError(
            f"need kernel >= 1, stride >= 1 and padding >= 0, got {kernel}, {stride} and {padding}"
        )
    span = extent + 2 * padding - kernel
    if span < 0:
        raise ConfigError(
            f"kernel {kernel} exceeds padded extent {extent + 2 * padding}"
        )
    return span // stride + 1


@lru_cache(maxsize=8)
def _patch_index(c: int, hp: int, wp: int, kh: int, kw: int, stride: int, channels_last: bool = False) -> np.ndarray:
    """The flat offsets, into one padded C x Hp x Wp image (Hp x Wp x C when
    ``channels_last``), of every value of every patch in :class:`PatchBatch`
    row order, read-only."""
    out_h, out_w = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    step_c, step_h, step_w = (1, wp * c, c) if channels_last else (hp * wp, wp, 1)
    corner = (np.arange(out_h) * (stride * step_h))[:, None] + np.arange(out_w) * (stride * step_w)
    window = (
        (np.arange(c) * step_c)[:, None, None]
        + (np.arange(kh) * step_h)[:, None]
        + np.arange(kw) * step_w
    )
    idx = (corner[:, :, None, None, None] + window).astype(np.intp).ravel()
    idx.flags.writeable = False
    return idx


def extract_patches(images: Tensor, geometry: ConvGeometry) -> PatchBatch:
    """Flatten every window of every image into one batch, gathered by
    :func:`~fasthebb.tensor.split_rows` in ranges of images through a cached
    index of one padded image's patch offsets.  A row-major and a
    channels-last source give the same rows.  The cache keeps the last 8
    indices, out_h * out_w * S intp values each."""
    if images.ndim != 4:
        raise ShapeMismatch(f"expected BxCxHxW images, got {images.shape}")
    b, c, h, w = images.shape
    g = geometry
    if c != g.in_channels:
        raise ShapeMismatch(f"expected {g.in_channels} channels, got {c}")
    out_h, out_w = g.out_hw(h, w)
    p = g.padding
    hp, wp = h + 2 * p, w + 2 * p
    data = images.data
    channels_last = not data.flags.c_contiguous
    if channels_last:
        data = data.transpose(0, 2, 3, 1)  # B x H x W x C, row-major
    pad = ((0, 0), (p, p), (p, p), (0, 0)) if channels_last else ((0, 0), (0, 0), (p, p), (p, p))
    idx = _patch_index(c, hp, wp, g.kernel_h, g.kernel_w, g.stride, channels_last)
    flat = np.empty((b, idx.size), dtype=images.dtype)

    def fill(start: int, stop: int) -> None:
        src = data[start:stop]
        if p:
            src = np.pad(src, pad)
        # "clip" lets numpy write straight into ``flat``; under "raise" it
        # gathers into a temporary first.  Every offset is in range.
        np.take(src.reshape(stop - start, c * hp * wp), idx, axis=1, out=flat[start:stop], mode="clip")

    tc.split_rows(fill, b)
    return PatchBatch(Tensor(flat.reshape(b * out_h * out_w, 1, g.patch_size)))


def conv_forward(layer: HebbLayer, x: Tensor) -> Tensor:
    """The forward of a dense or conv layer: the dense forward pass of its
    :func:`layer_rows` (a conv layer's patches), viewed as the stage output,
    so only the rows and the forward are ever alive at once."""
    return layer_output(layer, rules.forward_linear(layer.weights, layer_rows(layer, x)), x)


def layer_rows(layer: HebbLayer, x: Tensor) -> Tensor:
    """The layer's input as the b_eff x 1 x S rows its kernels see: each
    sample flattened in C x H x W order (dense) or each of its patches
    (conv).  Input that is already b_eff x 1 x S rows passes through
    unchanged."""
    if layer.geometry is None or x.ndim == 3:
        return tc.reshape(x, (x.shape[0], 1, layer.input_size))
    return extract_patches(x, layer.geometry).patches


def layer_output(layer: HebbLayer, y: Tensor, x: Tensor) -> Tensor:
    """The b_eff x N x 1 forward ``y`` of ``layer_rows(layer, x)`` as the
    stage output, a view of ``y``'s buffer that copies nothing: B x N
    (dense) or B x N x out_h x out_w (conv), the latter channels-last, since
    ``y``'s rows are B x out_h x out_w x N."""
    shape = (x.shape[0], *layer.out_shape(x.shape[1:]))
    if layer.geometry is None:
        return tc.reshape(y, shape)
    b, n, out_h, out_w = shape
    return tc._wrap_shared(y.data.reshape(b, out_h, out_w, n).transpose(0, 3, 1, 2))


def hebb_update(layer: HebbLayer, x: Tensor, metric: bool = False) -> UpdateResult:
    """Compute (but do not apply) the layer's weight update from its input,
    with the layer metric of the batch when ``metric`` is set (see
    :func:`~fasthebb.rules.layer_metric`)."""
    kernel = rules.update_fn(layer.params.rule, layer.update_impl)
    return kernel(layer.weights, layer_rows(layer, x), layer.params, metric)


def apply_update(layer: HebbLayer, result: UpdateResult) -> HebbLayer:
    """W <- W + delta_w (learning rate already folded in); returns a new layer."""
    if result.delta_w.shape != layer.weights.shape:
        raise ShapeMismatch(
            f"update shape {result.delta_w.shape} != weights {layer.weights.shape}"
        )
    new_w = tc.elementwise(np.add, layer.weights, result.delta_w)
    if not np.all(np.isfinite(new_w.data)):
        raise NonFiniteWeights("weight update produced NaN or Inf entries")
    return replace(layer, weights=new_w)


def relu(x: Tensor) -> Tensor:
    """``max(x, 0)`` into one buffer of ``x``'s layout, filled in ranges of
    images by :func:`~fasthebb.tensor.split_rows`."""
    out = np.empty_like(x.data)

    def fill(start: int, stop: int) -> None:
        np.maximum(x.data[start:stop], 0.0, out=out[start:stop])

    tc.split_rows(fill, x.shape[0])
    return Tensor(out)


def max_pool(x: Tensor, window: int, stride: int) -> Tensor:
    """Max pooling over the last two dims of a BxCxHxW tensor, as an
    ``np.maximum`` fold over the ``window`` strided column slices, then over
    the ``window`` strided row slices, into one buffer of ``x``'s layout
    (row-major or channels-last) filled in ranges of images by
    :func:`~fasthebb.tensor.split_rows`.  NaN propagates; of tied maxima
    (``+0.0``, ``-0.0``) the last in row-major window order wins."""
    if x.ndim != 4:
        raise ShapeMismatch(f"expected BxCxHxW input, got {x.shape}")
    b = x.shape[0]
    c, out_h, out_w = MaxPool(window, stride).out_shape(x.shape[1:])
    span_w, span_h = (out_w - 1) * stride + 1, (out_h - 1) * stride + 1
    out = np.empty_like(x.data, shape=(b, c, out_h, out_w))

    def fill(start: int, stop: int) -> None:
        cols = reduce(np.maximum, [x.data[start:stop, ..., k : k + span_w : stride] for k in range(window)])
        pooled = out[start:stop]
        pooled[...] = cols[:, :, :span_h:stride]
        for k in range(1, window):
            np.maximum(pooled, cols[:, :, k : k + span_h : stride], out=pooled)

    tc.split_rows(fill, b)
    return Tensor(out)
