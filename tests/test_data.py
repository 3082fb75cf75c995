import re
import struct

import numpy as np
import pytest

from fasthebb import data as dio
from fasthebb.data import Dataset, Regime, load_cifar10, split_regime
from fasthebb.errors import ConfigError, CorruptFile
from fasthebb.experiment import build_dataset


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
