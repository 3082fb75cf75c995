"""Dataset ingestion: CIFAR-10 binary reader, seeded synthetic generators,
sample-efficiency regime splitting, and the FHDS dump format."""

from __future__ import annotations

import math
import os
import shutil
import struct
import weakref
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, CorruptFile, UsageError

__all__ = [
    "Dataset",
    "Regime",
    "REGIME_FRACTIONS",
    "load_cifar10",
    "synth_gaussian",
    "synth_clusters",
    "split_regime",
    "save_dataset",
    "load_dataset",
    "fhds_shape",
    "FhdsImages",
]

CIFAR_SHAPE = (3, 32, 32)  # channels, height, width of one image
CIFAR_RECORD = 3073  # 1 label byte + 3*32*32 pixel bytes
CIFAR_CLASSES = 10
REGIME_FRACTIONS = (1, 2, 3, 4, 5, 10, 25, 100)

FHDS_MAGIC = b"FHDS"
FHDS_VERSION = 1
FHDS_MAX_CLASSES = 65_536  # above ImageNet-21k's 21,841; a larger count is a damaged header


@dataclass(frozen=True)
class Dataset:
    """Immutable image/feature dataset.

    ``images`` is B x C x H x W float64; pixel data is scaled to [0,1],
    synthetic feature data lives in C=H=1 with W = dims and is unbounded.
    It is held as a C-contiguous float64 array, except that the
    :class:`FhdsImages` of a loaded FHDS file is kept as it is, on disk;
    indexing either returns a float64 array.
    """

    images: np.ndarray | FhdsImages
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        if not isinstance(self.images, FhdsImages):
            object.__setattr__(self, "images", np.ascontiguousarray(self.images, dtype=np.float64))
        object.__setattr__(self, "labels", np.ascontiguousarray(self.labels, dtype=np.int64))
        if self.images.ndim != 4:
            raise CorruptFile(f"images must be BxCxHxW, got {self.images.shape}")
        if len(self.labels) != len(self.images):
            raise CorruptFile("label count does not match image count")
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= self.class_count
        ):
            raise CorruptFile("labels outside [0, class_count)")

    def __len__(self) -> int:
        return len(self.images)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.images[indices], self.labels[indices], self.class_count)


@dataclass(frozen=True)
class Regime:
    """s% sample-efficiency regime: only s% of the train set keeps labels."""

    labeled_fraction: int
    seed: int = 0

    def __post_init__(self):
        if self.labeled_fraction not in REGIME_FRACTIONS:
            raise UsageError(
                f"labeled_fraction must be one of {REGIME_FRACTIONS}, "
                f"got {self.labeled_fraction}"
            )


def load_cifar10(path) -> Dataset:
    """Read one CIFAR-10 binary file (whole 3073-byte records).

    Record layout: 1 label byte, then 3072 pixel bytes plane-major R,G,B,
    row-major within each plane.  Pixels are scaled to [0,1].
    """
    raw = Path(path).read_bytes()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD != 0:
        raise CorruptFile(
            f"{path}: size {len(raw)} is not a positive multiple of {CIFAR_RECORD}"
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) >= CIFAR_CLASSES:
        raise CorruptFile(f"{path}: label byte {labels.max()} exceeds 9")
    images = records[:, 1:].reshape(-1, *CIFAR_SHAPE).astype(np.float64)
    images /= 255.0  # in place: one float64 copy of the pixels, not two
    return Dataset(images, labels, CIFAR_CLASSES)


def synth_gaussian(num: int, dims: int, variances, seed: int) -> Dataset:
    """``default_rng(seed).standard_normal((num, dims)) * sqrt(variances)``,
    scaled in place, with all-zero labels.  ``variances`` (the config's
    ``cov_diag``) is one variance per dimension, or one for all; each must be
    > 0, checked before any draw."""
    var = np.asarray(variances, dtype=np.float64).ravel()
    if var.size not in (1, dims):
        raise ConfigError(f"diagonal has {var.size} entries, expected {dims} or 1")
    bad = var[~(var > 0)]
    if bad.size:
        raise ConfigError(f"covariance is not positive definite: variance {bad[0]:g} is not > 0")
    samples = np.random.default_rng(seed).standard_normal((num, dims))
    samples *= np.sqrt(var)
    return Dataset(samples.reshape(num, 1, 1, dims), np.zeros(num, dtype=np.int64), 1)


def synth_clusters(
    k: int,
    num: int,
    dims: int,
    separation: float,
    seed: int,
    noise_std: float = 1.0,
    centroid_seed: Optional[int] = None,
) -> tuple[Dataset, np.ndarray]:
    """``num`` samples around ``k`` centroids with pairwise distance
    ``separation`` (in units of ``noise_std``); returns the ground-truth
    centroids alongside.  Requires k <= dims.

    ``centroid_seed`` (default: ``seed``) fixes centroid placement
    independently of the sampling seed, so disjoint train/test draws can
    share the same ground truth.
    """
    if k > dims:
        raise ConfigError(f"clusters ({k}) must be <= dims ({dims}) to place equidistant centroids")
    rng_c = np.random.default_rng(seed if centroid_seed is None else centroid_seed)
    rng = np.random.default_rng(seed)
    # orthonormal directions scaled so pairwise centroid distance == separation
    basis, _ = np.linalg.qr(rng_c.standard_normal((dims, dims)))
    centroids = basis[:, :k].T * (separation * noise_std / np.sqrt(2.0))
    labels = rng.integers(0, k, size=num)
    samples = centroids[labels] + rng.standard_normal((num, dims)) * noise_std
    ds = Dataset(samples.reshape(num, 1, 1, dims), labels, k)
    return ds, centroids


def _stratified_counts(labels: np.ndarray, class_count: int, total: int, rng) -> np.ndarray:
    """Per-class labeled counts summing to ``total``, deterministic given rng:
    equal within +-1, except that a class never gives more than it has, and
    its shortfall goes to the classes that still have samples, one each in
    class-index order, without drawing from ``rng``."""
    base = total // class_count
    counts = np.full(class_count, base, dtype=np.int64)
    extra = total - base * class_count
    if extra:
        order = rng.permutation(class_count)
        counts[order[:extra]] += 1
    sizes = np.bincount(labels, minlength=class_count)
    counts = np.minimum(counts, sizes)
    while counts.sum() < total:  # total <= len(labels), so this ends
        counts[np.flatnonzero(counts < sizes)[: total - counts.sum()]] += 1
    return counts


def split_regime(dataset: Dataset, regime: Regime) -> tuple[Dataset, np.ndarray]:
    """Split into the labeled subset, stratified by class and seeded, and the
    sorted indices of the unlabeled rest, whose images are not copied."""
    rng = np.random.default_rng(regime.seed)
    total = round(regime.labeled_fraction / 100.0 * len(dataset))
    counts = _stratified_counts(dataset.labels, dataset.class_count, total, rng)
    labeled_idx = []
    for cls in range(dataset.class_count):
        members = np.flatnonzero(dataset.labels == cls)
        picked = rng.permutation(members)[: counts[cls]]
        labeled_idx.append(picked)
    labeled_idx = np.sort(np.concatenate(labeled_idx)) if labeled_idx else np.array([], dtype=np.int64)
    mask = np.zeros(len(dataset), dtype=bool)
    mask[labeled_idx] = True
    return dataset.subset(labeled_idx), np.flatnonzero(~mask)


def save_dataset(path, dataset: Dataset) -> None:
    """Dump to the FHDS format: magic, u32 version, u32 ndim, u32 extents,
    little-endian f64 image data, then u32 class count and u32 labels.  The
    images are written in blocks of about 1 MiB to a temp file beside the
    file ``path`` resolves to, which then takes that file's mode and
    replaces it: a symlink keeps pointing at it, a dataset loaded from it
    keeps reading the file it loaded, and a :class:`FhdsImages` can be saved
    over its own file.  An existing file's owner is not kept."""
    images, path = dataset.images, Path(path).resolve()
    step = max(1, _FINITE_BLOCK // max(1, math.prod(images.shape[1:])))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(FHDS_MAGIC)
            fh.write(struct.pack("<I", FHDS_VERSION))
            fh.write(struct.pack("<I", images.ndim))
            for extent in images.shape:
                fh.write(struct.pack("<I", extent))
            for start in range(0, len(images), step):
                fh.write(np.ascontiguousarray(images[start : start + step], dtype="<f8"))
            fh.write(struct.pack("<I", dataset.class_count))
            fh.write(dataset.labels.astype("<u4").tobytes())
        with suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_FHDS_HEADER = 28  # magic, version, ndim = 4 and four u32 extents


def _fhds_header(raw: bytes, path, size: int) -> tuple[int, ...]:
    """The B x C x H x W image shape from the header at the start of ``raw``,
    checked against the ``size`` in bytes of the whole file, which must be
    that of the header, the images, the class count and the labels."""
    if raw[:4] != FHDS_MAGIC:
        raise CorruptFile(f"{path}: expected FHDS magic, got {raw[:4]!r}")
    try:
        version = struct.unpack_from("<I", raw, 4)[0]
        if version != FHDS_VERSION:
            raise CorruptFile(f"{path}: unsupported FHDS version {version}")
        ndim = struct.unpack_from("<I", raw, 8)[0]
        if ndim != 4:
            raise CorruptFile(f"{path}: images must be 4-d (B x C x H x W), got {ndim}-d")
        shape = struct.unpack_from(f"<{ndim}I", raw, 12)
    except struct.error as exc:
        raise CorruptFile(f"{path}: truncated FHDS file") from exc
    if 0 in shape:
        raise CorruptFile(f"{path}: image array of shape {shape} is empty")
    count = math.prod(shape)  # a Python int: no wrap-around on damaged extents
    if _FHDS_HEADER + 8 * count > size:
        raise CorruptFile(
            f"{path}: impossible image shape {shape}: needs {8 * count} bytes, "
            f"{size - _FHDS_HEADER} follow the header"
        )
    end = _FHDS_HEADER + 8 * count + 4 + 4 * shape[0]
    if end > size:
        raise CorruptFile(f"{path}: truncated FHDS file")
    if end < size:
        raise CorruptFile(f"{path}: {size - end} bytes follow the labels that end the FHDS file")
    return shape


def fhds_shape(path) -> tuple[int, ...]:
    """The C x H x W shape of one image of an FHDS file, read from its header
    alone, with the checks :func:`load_dataset` makes of that header and of
    the file's size."""
    with open(path, "rb") as fh:
        return _fhds_header(fh.read(_FHDS_HEADER), path, os.fstat(fh.fileno()).st_size)[1:]


_FINITE_BLOCK = 1 << 17  # values per block of a pass over all pixels: a 1 MiB float64 buffer


def _read_exactly(fd: int, buf: np.ndarray, offset: int, path) -> None:
    """Fill ``buf`` from ``fd`` at byte ``offset``, without moving the file
    position, so threads can share ``fd``; the end of the file first is a
    truncated file."""
    view = memoryview(buf).cast("B")
    while view.nbytes:
        got = os.preadv(fd, [view], offset)
        if not got:
            raise CorruptFile(f"{path}: truncated FHDS file")
        view, offset = view[got:], offset + got


class FhdsImages:
    """The read-only B x C x H x W float64 images of an FHDS file, left on
    disk.  ``images[key]``, for a slice, an integer or an integer index
    array, returns a fresh float64 array that numpy owns.  Each run of
    consecutive rows comes in one positioned read of ``fd``, the open file
    this array owns and closes, so threads may read at once and a file
    replaced at ``path`` is not read.  A short read is :class:`CorruptFile`:
    the open file must not be written while its images are in use.
    ``np.asarray`` and :meth:`reshape` read every image."""

    dtype = np.dtype(np.float64)

    def __init__(self, fd: int, path, shape: tuple[int, ...]):
        self.path, self.shape, self._fd = path, tuple(shape), fd
        self._row_bytes = 8 * math.prod(self.shape[1:])
        weakref.finalize(self, os.close, fd)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key) -> np.ndarray:
        n = self.shape[0]
        if isinstance(key, slice):
            idx = np.arange(*key.indices(n))
        else:
            idx = np.asarray(key)
            if isinstance(key, tuple) or idx.size and idx.dtype.kind not in "iu":
                raise UsageError("FHDS images take one index: a slice, an integer or an integer array")
            if idx.size and (idx.min() < -n or idx.max() >= n):  # in its own dtype: a cast could wrap
                raise UsageError(f"image index out of range for {n} images")
            idx = idx.astype(np.int64)
            idx = np.where(idx < 0, idx + n, idx)
        out = np.empty((*idx.shape, *self.shape[1:]), dtype="<f8")
        flat, rows = idx.ravel(), out.reshape(idx.size, *self.shape[1:])
        if flat.size:
            cuts = (np.flatnonzero(np.diff(flat) != 1) + 1).tolist()  # where a run of consecutive rows ends
            for start, end in zip([0, *cuts], [*cuts, flat.size]):
                offset = _FHDS_HEADER + self._row_bytes * int(flat[start])
                _read_exactly(self._fd, rows[start:end], offset, self.path)
        return out.astype(np.float64, copy=False)  # the file's little-endian bytes as native float64

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise UsageError("FHDS images are read from the file: an array of them is a copy")
        return self[:] if dtype is None else self[:].astype(dtype, copy=False)

    def reshape(self, *shape) -> np.ndarray:
        return self[:].reshape(*shape)


def load_dataset(path) -> Dataset:
    """Open an FHDS file written by :func:`save_dataset`.  Its labels are
    read; its images stay in the file, as a :class:`FhdsImages` that reads
    them at each index through the file opened here, so the memory held does
    not grow with the pixels.  The checks run in this order: the header, the
    file size against it (before any buffer exists), the class count, a
    count of NaN and Inf over every pixel, read in 1 MiB blocks through one
    buffer, and the labels.  Replacing the file at ``path`` afterwards does
    not change the dataset; writing into the open file is not allowed."""
    with open(path, "rb") as fh:
        fd = fh.fileno()
        shape = _fhds_header(fh.read(_FHDS_HEADER), path, os.fstat(fd).st_size)
        count = math.prod(shape)
        tail = np.empty(1 + shape[0], dtype="<u4")  # class count, then the labels
        _read_exactly(fd, tail, _FHDS_HEADER + 8 * count, path)
        if tail[0] > FHDS_MAX_CLASSES:  # split_regime allocates and loops per class
            raise CorruptFile(f"{path}: class count {tail[0]} exceeds {FHDS_MAX_CLASSES}")
        # one buffer for every block: a fresh array per block raises the peak RSS
        buf = np.empty(min(count, _FINITE_BLOCK), dtype="<f8")
        finite = np.empty(len(buf), dtype=bool)
        bad = 0
        for start in range(0, count, len(buf)):
            block = buf[: count - start]
            _read_exactly(fd, block, _FHDS_HEADER + 8 * start, path)
            bad += len(block) - np.count_nonzero(np.isfinite(block, out=finite[: len(block)]))
        if bad:
            raise CorruptFile(f"{path}: {bad} of {count} image values are NaN or Inf")
        images = FhdsImages(os.dup(fd), path, shape)  # the file checked here, whatever later sits at path
    return Dataset(images, tail[1:].astype(np.int64), int(tail[0]))
