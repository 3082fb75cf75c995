"""Plain-numpy transcriptions that the benchmark checks the program against.

Nothing here imports ``fasthebb``.  The kernel transcriptions write the fast
SWTA/HPCA algebra directly in numpy; they are both a correctness reference
and the base of ``rules.overhead_vs_numpy``.  The conv forward accumulates
one shifted product per kernel offset instead of building a patch matrix, so
it is an independent oracle for the program's im2col forward.
"""

from __future__ import annotations

import numpy as np

# Relative Frobenius tolerance the repository holds naive and fast kernels to.
TOL = 1e-10


def rel_err(ref, got) -> float:
    """||ref - got|| / ||ref|| (Frobenius), guarded against a zero reference."""
    ref = np.asarray(ref, dtype=np.float64)
    got = np.asarray(got, dtype=np.float64)
    if ref.shape != got.shape:
        return float("inf")
    return float(np.linalg.norm(ref - got) / max(np.linalg.norm(ref), 1e-30))


def swta_delta(w: np.ndarray, x: np.ndarray, eta: float, temperature: float) -> np.ndarray:
    """SWTA update for weights ``w`` (N x S) and rows ``x`` (B x S)."""
    z = (x @ w.T) / temperature
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    r = e / e.sum(axis=1, keepdims=True)
    col = r.sum(axis=0)
    cr = r * (r / np.where(col > 0, col, 1.0))
    return eta * (cr.T @ x - cr.sum(axis=0)[:, None] * w)


def hpca_delta(w: np.ndarray, x: np.ndarray, eta: float) -> np.ndarray:
    """HPCA update for weights ``w`` (N x S) and rows ``x`` (B x S)."""
    y = x @ w.T
    return (eta / len(x)) * (y.T @ x - np.tril(y.T @ y) @ w)


def patches(images: np.ndarray, kernel: int, pad: int) -> np.ndarray:
    """im2col rows (B*H'*W' x C*k*k), image-major, channel-major within a row."""
    b, c = images.shape[:2]
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), axis=(2, 3))
    oh, ow = win.shape[2:4]
    return np.transpose(win, (0, 2, 3, 1, 4, 5)).reshape(b * oh * ow, c * kernel * kernel)


def conv2d(images: np.ndarray, w: np.ndarray, kernel: int, pad: int) -> np.ndarray:
    """Stride-1 convolution of B x C x H x W images with N x (C*k*k) weights."""
    b, c, h, wd = images.shape
    wk = w.reshape(w.shape[0], c, kernel, kernel)
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = h + 2 * pad - kernel + 1, wd + 2 * pad - kernel + 1
    out = np.zeros((w.shape[0], b, oh, ow))
    for i in range(kernel):
        for j in range(kernel):
            out += np.tensordot(wk[:, :, i, j], padded[:, :, i : i + oh, j : j + ow], axes=([1], [1]))
    return out.transpose(1, 0, 2, 3)


def relu_pool2(x: np.ndarray) -> np.ndarray:
    """ReLU followed by 2x2, stride-2 max pooling (extents must be even)."""
    b, c, h, w = x.shape
    return np.maximum(x, 0.0).reshape(b, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def stack_features(images: np.ndarray, weights, conv_layers, batch: int = 256) -> np.ndarray:
    """Flattened output of conv -> relu -> pool2 per layer in ``conv_layers``."""
    out = []
    for start in range(0, len(images), batch):
        x = images[start : start + batch]
        for w, (kernel, _, pad) in zip(weights, conv_layers):
            x = relu_pool2(conv2d(x, w, kernel, pad))
        out.append(x.reshape(len(x), -1))
    return np.concatenate(out)


def top1(features: np.ndarray, probe_w: np.ndarray, probe_b: np.ndarray, labels) -> float:
    """Top-1 accuracy; ties go to the lower class index."""
    pred = np.argmax(features @ probe_w.T + probe_b, axis=1)
    return float(np.mean(pred == np.asarray(labels)))
