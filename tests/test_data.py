import gc
import os
import re
import struct

import numpy as np
import pytest

from fasthebb import data as dio
from fasthebb.cli import main
from fasthebb.data import Dataset, Regime, load_cifar10, split_regime
from fasthebb.errors import ConfigError, CorruptFile, UsageError
from fasthebb.experiment import build_dataset
from fasthebb.layers import HebbLayer, init_weights
from fasthebb.pipeline import TrainConfig, pretrain
from fasthebb.rules import LearningParams


def make_cifar_file(tmp_path, records):
    """records: list of (label, 3072 pixel bytes)."""
    path = tmp_path / "batch.bin"
    blob = b"".join(bytes([label]) + bytes(pixels) for label, pixels in records)
    path.write_bytes(blob)
    return path


@pytest.mark.parametrize(
    "images, labels, message",
    [(np.zeros((2, 4)), np.zeros(2), "images must be BxCxHxW"), (np.zeros((2, 1, 1, 4)), np.zeros(3), "label count"),
     (np.zeros((2, 1, 1, 4)), [0, 2], "labels outside")],
    ids=["2d-images", "label-count", "label-range"],
)
def test_inconsistent_dataset_is_corrupt(images, labels, message):
    with pytest.raises(CorruptFile, match=message):
        Dataset(images, labels, 2)


class TestCifarReader:
    def test_two_records(self, tmp_path):
        pixels_a = list(range(256)) * 12
        pixels_b = [255] * 3072
        path = make_cifar_file(tmp_path, [(3, pixels_a), (7, pixels_b)])
        ds = load_cifar10(path)
        assert len(ds) == 2
        assert ds.images.shape == (2, 3, 32, 32)
        np.testing.assert_array_equal(ds.labels, [3, 7])
        np.testing.assert_allclose(ds.images[1], 1.0)
        # plane-major layout: first pixel byte is R[0,0]
        assert ds.images[0, 0, 0, 0] == 0.0
        assert ds.images[0, 0, 0, 1] == 1.0 / 255.0

    def test_all_zero_record(self, tmp_path):
        path = make_cifar_file(tmp_path, [(0, [0] * 3072)])
        ds = load_cifar10(path)
        assert np.all(ds.images == 0)
        assert ds.labels[0] == 0

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3072))
        with pytest.raises(CorruptFile, match="size 3072 is not a positive multiple of 3073"):
            load_cifar10(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(CorruptFile, match="size 0 is not a positive multiple of 3073"):
            load_cifar10(path)

    def test_bad_label(self, tmp_path):
        path = make_cifar_file(tmp_path, [(11, [0] * 3072)])
        with pytest.raises(CorruptFile, match="label byte 11 exceeds 9"):
            load_cifar10(path)

    def test_load_holds_the_raw_bytes_and_one_float_copy(self, tmp_path, peak_bytes):
        rng = np.random.default_rng(3)
        records = rng.integers(0, 256, (1000, 3073), dtype=np.uint8)
        records[:, 0] %= 10
        path = tmp_path / "big.bin"
        path.write_bytes(records.tobytes())
        load_cifar10(path)  # warm-up: first-call allocations are not the reader's
        assert peak_bytes(load_cifar10, path) <= records.nbytes + 1000 * 3072 * 8 + 2**20


class TestSynthetic:
    def test_gaussian_deterministic(self):
        a = dio.synth_gaussian(50, 4, 1.0, seed=9)
        b = dio.synth_gaussian(50, 4, 1.0, seed=9)
        np.testing.assert_array_equal(a.images, b.images)

    def test_gaussian_bad_covariance(self):
        with pytest.raises(ConfigError, match="covariance is not positive definite"):
            dio.synth_gaussian(10, 2, [1.0, 0.0], seed=0)
        with pytest.raises(ConfigError, match="diagonal has 2 entries, expected 3"):
            dio.synth_gaussian(10, 3, [1.0, 2.0], seed=0)

    @pytest.mark.parametrize(
        "num, dims, variances, seed",
        [(50, 4, 2.5, 9), (7, 1, 3.0, 1), (1, 1, [0.5], 2), (40, 16, [4, 3, 2] + [1] * 12 + [0.5], 10000)],
        ids=["one-for-all", "dims-1", "dims-1-list", "cov-diag-16"],
    )
    def test_gaussian_is_a_per_dimension_scale(self, num, dims, variances, seed):
        expected = np.random.default_rng(seed).standard_normal((num, dims)) * np.sqrt(variances)
        ds = dio.synth_gaussian(num, dims, variances, seed)
        assert ds.images.shape == (num, 1, 1, dims)
        assert ds.images.tobytes() == expected.tobytes()

    def test_one_cov_diag_value_serves_all_dims(self):
        ds = build_dataset({"data": {"kind": "gaussian", "num": "5", "dims": "3", "cov_diag": "2"}})
        assert ds.images.tobytes() == dio.synth_gaussian(5, 3, 2.0, 0).images.tobytes()

    def test_gaussian_holds_no_dims_by_dims_buffer(self, peak_bytes):
        # at most four num x dims buffers and 1 MiB; a dims x dims matrix is 75 MB
        dio.synth_gaussian(16, 3072, 1.0, 0)  # warm-up: first-call allocations are not the generator's
        assert peak_bytes(dio.synth_gaussian, 16, 3072, 1.0, 0) <= 4 * 16 * 3072 * 8 + 2**20

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0])
    def test_gaussian_variance_must_be_positive(self, bad):
        with pytest.raises(ConfigError, match=r"covariance is not positive definite: variance (nan|0|-1) is not > 0"):
            dio.synth_gaussian(10, 3, [1.0, bad, 2.0], seed=0)
        with pytest.raises(ConfigError, match="covariance is not positive definite"):
            dio.synth_gaussian(10, 3, bad, seed=0)

    def test_gaussian_top_eigenvector(self):
        # diag(9,1): top eigenvector of the empirical second moment within
        # 5 degrees of axis 0
        ds = dio.synth_gaussian(800, 2, [9.0, 1.0], seed=4)
        x = ds.images.reshape(len(ds), 2)
        moment = x.T @ x / len(ds)
        evals, evecs = np.linalg.eigh(moment)
        top = evecs[:, np.argmax(evals)]
        angle = np.degrees(np.arccos(min(abs(top[0]), 1.0)))
        assert angle <= 5.0

    def test_single_cluster_mean(self):
        num = 400
        ds, centroids = dio.synth_clusters(1, num, 5, separation=10.0, seed=2)
        x = ds.images.reshape(num, 5)
        # law of large numbers: sample mean within 3*sigma/sqrt(num) per coord
        assert np.all(np.abs(x.mean(axis=0) - centroids[0]) <= 3.0 / np.sqrt(num))

    def test_cluster_separation(self):
        _, centroids = dio.synth_clusters(4, 10, 8, separation=7.0, seed=3)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(centroids[i] - centroids[j]) == pytest.approx(7.0)

    def test_cluster_centroid_seed_shared(self):
        _, c1 = dio.synth_clusters(3, 10, 6, 5.0, seed=1, centroid_seed=42)
        _, c2 = dio.synth_clusters(3, 10, 6, 5.0, seed=2, centroid_seed=42)
        np.testing.assert_array_equal(c1, c2)

    def test_too_many_clusters(self):
        with pytest.raises(ValueError):
            dio.synth_clusters(5, 10, 3, 5.0, seed=0)


def make_labeled_dataset(num=500, classes=10, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.random((num, 1, 1, 4))
    labels = np.repeat(np.arange(classes), num // classes)
    return Dataset(images, labels, classes)


class TestSplitRegime:
    def test_full_regime_empty_unlabeled(self):
        ds = make_labeled_dataset()
        labeled, unlabeled = split_regime(ds, Regime(100, seed=1))
        assert len(labeled) == 500
        assert len(unlabeled) == 0 and unlabeled.dtype.kind == "i"

    def test_ten_percent_stratified(self):
        ds = make_labeled_dataset(500, 10)
        labeled, unlabeled = split_regime(ds, Regime(10, seed=1))
        assert len(labeled) == 50
        assert len(unlabeled) == 450
        counts = np.bincount(labeled.labels, minlength=10)
        np.testing.assert_array_equal(counts, 5)
        np.testing.assert_array_equal(np.bincount(ds.labels[unlabeled], minlength=10), 45)

    def test_deterministic(self):
        ds = make_labeled_dataset()
        a, _ = split_regime(ds, Regime(5, seed=7))
        b, _ = split_regime(ds, Regime(5, seed=7))
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.images, b.images)

    def test_disjoint_union(self):
        # the unlabeled part is the sorted indices of the rows the labeled subset leaves out
        ds = make_labeled_dataset(200, 10)
        labeled, unlabeled = split_regime(ds, Regime(25, seed=3))
        assert len(labeled) + len(unlabeled) == 200
        assert np.all(np.diff(unlabeled) > 0) and 0 <= unlabeled[0] and unlabeled[-1] < 200
        rest = np.setdiff1d(np.arange(200), unlabeled)
        np.testing.assert_array_equal(labeled.images, ds.images[rest])
        np.testing.assert_array_equal(labeled.labels, ds.labels[rest])

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            Regime(7)

    def test_stratification_within_one(self):
        ds = make_labeled_dataset(500, 10)
        labeled, _ = split_regime(ds, Regime(3, seed=0))
        counts = np.bincount(labeled.labels, minlength=10)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == round(0.03 * 500)

    @pytest.mark.parametrize(
        "sizes, fraction, expected",
        [((27, 23), 100, (27, 23)), ((45, 5), 25, (7, 5)), ((1, 19, 4), 25, (1, 3, 2))],
        ids=["all-of-27-and-23", "quarter-of-45-and-5", "quarter-of-1-19-4"],
    )
    def test_short_class_gives_its_shortfall_to_the_others(self, sizes, fraction, expected):
        # round(s% * n) is met: a short class's share goes to the classes
        # that still have samples, one each in class-index order
        labels = np.repeat(np.arange(len(sizes)), sizes)
        ds = Dataset(np.zeros((len(labels), 1, 1, 2)), labels, len(sizes))
        labeled, unlabeled = split_regime(ds, Regime(fraction, seed=0))
        assert len(labeled) == round(fraction / 100 * len(labels))
        np.testing.assert_array_equal(np.bincount(labeled.labels, minlength=len(sizes)), expected)
        assert len(labeled) + len(unlabeled) == len(labels)


@pytest.fixture(scope="module")
def big_fhds(tmp_path_factory):
    """An FHDS file of 1024 4x32x32 images (32 MiB of pixels) and its dataset."""
    images = np.arange(1024 * 4 * 32 * 32, dtype=np.float64).reshape(1024, 4, 32, 32) / 7
    ds = Dataset(images, np.arange(1024) % 3, 3)
    path = tmp_path_factory.mktemp("fhds") / "big.fhds"
    dio.save_dataset(path, ds)
    return path, ds


class TestFhdsFormat:
    def test_round_trip(self, tmp_path):
        ds = make_labeled_dataset(20, 10, seed=6)
        path = tmp_path / "dump.fhds"
        dio.save_dataset(path, ds)
        loaded = dio.load_dataset(path)
        np.testing.assert_array_equal(loaded.images, ds.images)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.class_count == ds.class_count

    def test_cifar_record_round_trip(self, tmp_path):
        # synthetic pixels written as CIFAR records re-read within 1/255
        rng = np.random.default_rng(8)
        images = rng.random((3, 3, 32, 32))
        quantized = np.round(images * 255).astype(np.uint8)
        path = tmp_path / "cifar.bin"
        blob = b"".join(
            bytes([i]) + quantized[i].tobytes() for i in range(3)
        )
        path.write_bytes(blob)
        loaded = load_cifar10(path)
        assert np.abs(loaded.images - images).max() <= 1.0 / 255.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fhds"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CorruptFile, match="expected FHDS magic, got b'NOPE'"):
            dio.load_dataset(path)

    def test_version_mismatch(self, tmp_path):
        ds = make_labeled_dataset(2, 2)
        path = tmp_path / "v.fhds"
        dio.save_dataset(path, ds)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match="unsupported FHDS version 9"):
            dio.load_dataset(path)

    def test_truncated(self, tmp_path):
        ds = make_labeled_dataset(4, 2)
        path = tmp_path / "t.fhds"
        dio.save_dataset(path, ds)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptFile, match=re.escape(
            f"{path}: impossible image shape (4, 1, 1, 4): needs 128 bytes, 60 follow the header"
        )):
            dio.load_dataset(path)

    @pytest.mark.parametrize("read", [dio.load_dataset, dio.fhds_shape])
    def test_appended_bytes(self, tmp_path, read):
        path = tmp_path / "x.fhds"
        dio.save_dataset(path, make_labeled_dataset(4, 2))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(CorruptFile, match=re.escape(f"{path}: 8 bytes follow the labels that end the FHDS file")):
            read(path)

    @pytest.mark.parametrize("read", [dio.load_dataset, dio.fhds_shape])
    def test_cut_label_block(self, tmp_path, read):
        path = tmp_path / "x.fhds"
        dio.save_dataset(path, make_labeled_dataset(4, 2))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CorruptFile, match=re.escape(f"{path}: truncated FHDS file")):
            read(path)

    def test_extents_whose_product_overflows(self, tmp_path):
        path = tmp_path / "o.fhds"
        dio.save_dataset(path, make_labeled_dataset(4, 2))
        raw = bytearray(path.read_bytes())
        struct.pack_into("<4I", raw, 12, 2**31, 2**31, 2**31, 2**31)  # 2^124 values
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match=re.escape(f"{path}: impossible image shape ({2**31}, ")):
            dio.load_dataset(path)

    @pytest.mark.parametrize("classes", [65_537, 2**31, 2**32 - 1])
    def test_class_count_above_the_cap(self, tmp_path, classes):
        path = tmp_path / "c.fhds"
        dio.save_dataset(path, make_labeled_dataset(4, 2))
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 28 + 8 * 16, classes)
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match=re.escape(f"{path}: class count {classes} exceeds 65536")):
            dio.load_dataset(path)

    def test_class_count_at_the_cap_loads(self, tmp_path):
        path = tmp_path / "c.fhds"
        dio.save_dataset(path, Dataset(np.zeros((2, 1, 1, 3)), [0, 65_535], 65_536))
        assert dio.load_dataset(path).class_count == 65_536

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_value(self, tmp_path, value):
        ds = make_labeled_dataset(4, 2)
        images = ds.images.copy()
        images[2, 0, 0, 3] = value
        path = tmp_path / "n.fhds"
        dio.save_dataset(path, Dataset(images, ds.labels, ds.class_count))
        with pytest.raises(CorruptFile, match=re.escape(f"{path}: 1 of 16 image values are NaN or Inf")):
            dio.load_dataset(path)

    def test_load_holds_one_copy_of_the_images(self, big_fhds, peak_bytes):
        path, ds = big_fhds
        loaded = dio.load_dataset(path)
        np.testing.assert_array_equal(loaded.images, ds.images)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.class_count == 3
        assert peak_bytes(dio.load_dataset, path) <= ds.images.nbytes + 2**21

    def test_non_finite_values_counted_across_blocks(self, tmp_path):
        count = dio._FINITE_BLOCK + 5
        images = np.zeros((1, 1, 1, count))
        for i, value in zip((0, dio._FINITE_BLOCK - 1, dio._FINITE_BLOCK, count - 1), (np.nan, np.inf, -np.inf, np.nan)):
            images[0, 0, 0, i] = value
        path = tmp_path / "n.fhds"
        dio.save_dataset(path, Dataset(images, [0], 1))
        with pytest.raises(CorruptFile, match=re.escape(f"{path}: 4 of {count} image values are NaN or Inf")):
            dio.load_dataset(path)

    @pytest.mark.parametrize(
        "cut, message",
        [(-4200, "impossible image shape"), (-4098, "truncated FHDS file"), (-10, "truncated FHDS file")],
        ids=["images", "class-count", "labels"],
    )
    def test_cut_file_fails_before_the_image_buffer(self, big_fhds, tmp_path, peak_bytes, cut, message):
        path = tmp_path / "cut.fhds"
        path.write_bytes(big_fhds[0].read_bytes()[:cut])

        def load():
            with pytest.raises(CorruptFile, match=message):
                dio.load_dataset(path)

        assert peak_bytes(load) < 2**20


def write_fhds(path, images, labels, classes):
    dio.save_dataset(path, Dataset(images, labels, classes))
    return dio.load_dataset(path)


class TestFhdsImagesStayOnDisk:
    """``load_dataset`` keeps the labels; its images are read at each index."""

    @pytest.fixture
    def loaded(self, tmp_path):
        images = np.random.default_rng(5).random((30, 2, 3, 4))
        return write_fhds(tmp_path / "d.fhds", images, np.arange(30) % 3, 3), images

    def test_loaded_images_are_a_file_backed_array(self, loaded):
        ds, images = loaded
        assert isinstance(ds.images, dio.FhdsImages)
        assert ds.images.shape == (30, 2, 3, 4) and ds.images.ndim == 4 and len(ds.images) == len(ds) == 30
        assert ds.images.dtype == np.float64

    @pytest.mark.parametrize(
        "key",
        [slice(None), slice(4, 9), slice(None, None, 3), slice(-5, None), slice(9, 4), 7, -1,
         [3, 4, 5, 9, 10, 2, 29, 0, 1], np.array([[1, 2], [2, 1]]), np.array([], dtype=np.int64), []],
        ids=["all", "range", "step", "negative-start", "empty-slice", "int", "negative-int",
             "runs-and-jumps", "2d-array", "empty-array", "empty-list"],
    )
    def test_indexing_returns_a_fresh_float64_array(self, loaded, key):
        ds, images = loaded
        got = ds.images[key]
        want = images[key]
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.flags.owndata and got.flags.writeable
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_consecutive_rows_come_in_one_read(self, loaded, monkeypatch):
        ds, images = loaded
        reads = []

        def read(fd, buf, offset, path, _orig=dio._read_exactly):
            reads.append(len(buf))
            return _orig(fd, buf, offset, path)

        monkeypatch.setattr(dio, "_read_exactly", read)
        assert np.array_equal(ds.images[[3, 4, 5, 9, 10, 2]], images[[3, 4, 5, 9, 10, 2]])
        assert np.array_equal(ds.images[2:20], images[2:20])
        assert reads == [3, 2, 1, 18]

    @pytest.mark.parametrize("key", [30, -31, [0, 30], np.array([2**64 - 1], dtype=np.uint64),
                                     np.array([0.0, 1.0]), np.zeros(30, dtype=bool), (0, 1)],
                             ids=["past-end", "before-start", "one-past-end", "uint64-max", "floats",
                                  "bool-mask", "tuple"])
    def test_bad_index_is_a_usage_error(self, loaded, key):
        with pytest.raises(UsageError):
            loaded[0].images[key]

    def test_asarray_and_reshape_read_every_image(self, loaded):
        ds, images = loaded
        assert np.array_equal(np.asarray(ds.images), images)
        assert np.asarray(ds.images, dtype=np.float32).dtype == np.float32
        assert np.array_equal(ds.images.reshape(30, 1, 24), images.reshape(30, 1, 24))
        assert np.array_equal(ds.images.reshape((30, -1)), images.reshape(30, -1))
        with pytest.raises(ValueError):
            np.asarray(ds.images, copy=False)

    def test_subset_is_in_memory(self, loaded):
        ds, images = loaded
        sub = ds.subset(np.array([1, 2, 3, 17]))
        assert type(sub.images) is np.ndarray and np.array_equal(sub.images, images[[1, 2, 3, 17]])
        labeled, _ = split_regime(ds, Regime(25, seed=2))
        assert type(labeled.images) is np.ndarray

    def test_save_of_a_loaded_dataset_writes_the_original_bytes(self, tmp_path):
        # 5 images of 40000 values: blocks of 3 images (1 MiB / 320 KB), then 2
        images = np.random.default_rng(9).standard_normal((5, 1, 2, 20_000))
        path = tmp_path / "a.fhds"
        ds = write_fhds(path, images, [0, 1, 0, 1, 1], 2)
        dio.save_dataset(tmp_path / "b.fhds", ds)
        assert (tmp_path / "b.fhds").read_bytes() == path.read_bytes()
        dio.save_dataset(path, ds)  # over the file its images are read from
        assert path.read_bytes() == (tmp_path / "b.fhds").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.fhds", "b.fhds"]

    def test_save_follows_a_symlink_and_keeps_the_mode(self, tmp_path):
        target, link = tmp_path / "t.fhds", tmp_path / "l.fhds"
        write_fhds(target, np.zeros((2, 1, 1, 3)), [0, 1], 2)
        target.chmod(0o640)
        link.symlink_to(target)
        ds = Dataset(np.ones((4, 1, 1, 3)), [1, 0, 1, 0], 2)
        dio.save_dataset(link, ds)
        assert link.is_symlink() and (target.stat().st_mode & 0o777) == 0o640
        assert np.array_equal(dio.load_dataset(target).images[:], ds.images)

    @pytest.mark.parametrize("images", [2 * np.ones((8, 1, 4, 4)), np.ones((9, 1, 4, 4))], ids=["same-shape", "larger"])
    def test_a_file_saved_over_the_path_after_load_is_not_read(self, tmp_path, images):
        path = tmp_path / "d.fhds"
        ds = write_fhds(path, np.arange(128.0).reshape(8, 1, 4, 4), np.zeros(8), 1)
        dio.save_dataset(path, Dataset(images, np.zeros(len(images)), 1))
        assert np.array_equal(ds.images[[7, 0, 1]], np.arange(128.0).reshape(8, 1, 4, 4)[[7, 0, 1]])
        assert np.array_equal(dio.load_dataset(path).images[:], images)

    def test_the_file_closes_with_its_images(self, tmp_path):
        ds = write_fhds(tmp_path / "d.fhds", np.ones((2, 1, 1, 1)), [0, 1], 2)
        fd = ds.images._fd
        os.fstat(fd)
        del ds
        gc.collect()
        with pytest.raises(OSError):
            os.fstat(fd)

    def test_file_truncated_after_load_is_corrupt_on_indexing(self, tmp_path):
        path = tmp_path / "d.fhds"
        ds = write_fhds(path, np.ones((8, 1, 4, 4)), np.zeros(8), 1)
        path.write_bytes(path.read_bytes()[: 28 + 8 * 16 * 5 + 8])
        assert np.array_equal(ds.images[:5], np.ones((5, 1, 4, 4)))
        for key in (slice(None), [0, 5], 5, slice(4, 6)):
            with pytest.raises(CorruptFile, match=re.escape(f"{path}: truncated FHDS file")):
                ds.images[key]

    def test_eval_on_a_file_truncated_after_load_exits_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "d.fhds"
        dio.save_dataset(path, Dataset(np.ones((8, 1, 4, 4)), np.arange(8) % 2, 2))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[data]\nkind = fhds\npath = {path}\ntest_path = {path}\n"
                       "[model]\nlayer1 = dense n=2\n[train]\nepochs = 1\n")
        ckpt = str(tmp_path / "m.fhb")
        assert main(["pretrain", "--config", str(cfg), "--out", ckpt]) == 0
        assert main(["probe", "--ckpt", ckpt, "--regime", "100"]) == 0
        capsys.readouterr()

        def load_then_truncate(p, _orig=dio.load_dataset):
            ds = _orig(p)
            path.write_bytes(path.read_bytes()[:100])
            return ds

        monkeypatch.setattr(dio, "load_dataset", load_then_truncate)
        assert main(["eval", "--ckpt", ckpt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {path}: truncated FHDS file\n"

    def test_load_and_one_epoch_hold_no_image_array(self, tmp_path, peak_bytes):
        # 25,600 images of 1 x 1 x 1024 values: 209.7 MB of pixels.  The bound
        # counts the labels (int64, with the u4 block read beside them) and
        # the int64 shuffled order, 20 B an image; a batch of 64 images and
        # one temporary of its size; the 1 MiB load buffer and its bool mask;
        # and 1 MiB for weights, kernel temporaries and Python objects.
        b, row, batch = 25_600, 1024, 64
        bound = 20 * b + 2 * batch * row * 8 + 2**20 + 2**17 + 2**20
        path = tmp_path / "big.fhds"
        block = np.random.default_rng(4).random((256, row))
        with open(path, "wb") as fh:
            fh.write(b"FHDS" + struct.pack("<6I", 1, 4, b, 1, 1, row))
            for _ in range(b // len(block)):
                fh.write(block)
            fh.write(struct.pack("<I", 10) + (np.arange(b) % 10).astype("<u4").tobytes())
        stack = [HebbLayer(init_weights(4, row, seed=0), LearningParams(rule="hpca"))]
        config = TrainConfig(epochs=1, batch_size=batch)
        try:
            held = peak_bytes(lambda: pretrain(stack, dio.load_dataset(path), config))
        finally:
            path.unlink()
        assert held <= bound
