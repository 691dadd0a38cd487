"""Synthetic generators, transforms, task streams, and IDX parsing."""

import struct

import numpy as np
import pytest

from degm import rng
from degm.data import (
    Dataset,
    DataFormatError,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTrailingBytesError,
    IdxTruncatedError,
    SYNTH_FAMILIES,
    binarize,
    inverse_domain,
    load_idx,
    make_cross_domain_stream,
    make_split_stream,
    synth_generate,
)


class TestSynthGenerate:
    def test_bars_structure(self):
        ds = synth_generate("bars", 200, seed=3)
        imgs = ds.images.reshape(200, 12, 12)
        for img in imgs:
            assert set(np.unique(img)) <= {0.0, 1.0}
            full_rows = int((img.sum(axis=1) == 12).sum())
            full_cols = int((img.sum(axis=0) == 12).sum())
            # 1..3 full lines along one orientation, nothing else lit
            assert (full_rows and not full_cols) or (full_cols and not full_rows) or (
                full_rows and full_cols and img.sum() == 144
            )
            k = max(full_rows, full_cols)
            assert 1 <= k <= 3
            assert img.sum() in {k * 12, 144}

    @pytest.mark.parametrize("width, height", [(2, 2), (1, 5), (5, 2)])
    def test_bars_on_short_axes(self, width, height):
        imgs = synth_generate("bars", 100, width=width, height=height, seed=4).images.reshape(100, height, width)
        for img in imgs:
            full_rows = int((img.sum(axis=1) == width).sum())
            full_cols = int((img.sum(axis=0) == height).sum())
            assert img.sum() in {full_rows * width, full_cols * height}
            assert 1 <= max(full_rows, full_cols)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_blobs_on_short_axes(self, size):
        imgs = synth_generate("blobs", 50, width=size, height=size, seed=4).images
        assert imgs.shape == (50, size * size)
        assert np.all(np.isfinite(imgs)) and imgs.min() >= 0.0 and imgs.max() <= 1.0

    def test_bars_draws_unchanged_on_long_axes(self):
        # up to three distinct lines, drawn without replacement: the rule the
        # cap on short axes must leave bit for bit where both axes hold three
        g = rng.stream(6, "synth/bars")
        want = np.zeros((40, 3, 7))
        for img in want:
            k = int(g.integers(1, 4))
            if g.integers(2) == 0:
                img[g.choice(3, size=k, replace=False), :] = 1.0
            else:
                img[:, g.choice(7, size=k, replace=False)] = 1.0
        got = synth_generate("bars", 40, width=7, height=3, seed=6).images
        np.testing.assert_array_equal(got, want.reshape(40, 21))

    def test_deterministic(self):
        a = synth_generate("blobs", 50, seed=9)
        b = synth_generate("blobs", 50, seed=9)
        np.testing.assert_array_equal(a.images, b.images)

    def test_families_statistically_distinct(self):
        # pairwise mean-image distance > 0.1 * sqrt(d)
        means = {}
        for family in SYNTH_FAMILIES:
            ds = synth_generate(family, 2000, seed=17)
            means[family] = ds.images.mean(axis=0)
        names = list(means)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                dist = np.linalg.norm(means[names[i]] - means[names[j]])
                assert dist > 0.1 * np.sqrt(144), (names[i], names[j], dist)

    def test_values_in_unit_interval(self):
        for family in SYNTH_FAMILIES:
            ds = synth_generate(family, 100, seed=2)
            assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_unknown_family(self):
        with pytest.raises(DataFormatError):
            synth_generate("stripesy", 10)

    def test_bad_n(self):
        with pytest.raises(DataFormatError):
            synth_generate("bars", 0)


class TestTransforms:
    def test_inverse_is_involution(self):
        ds = synth_generate("rings", 20, seed=5)
        back = inverse_domain(inverse_domain(ds))
        np.testing.assert_allclose(back.images, ds.images, atol=1e-15)

    def test_inverse_of_zeros(self):
        ds = Dataset(np.zeros((3, 4)), None, {"name": "z"})
        np.testing.assert_array_equal(inverse_domain(ds).images, np.ones((3, 4)))
        assert inverse_domain(ds).name == "z-inv"

    def test_inverse_mean_intensity(self):
        ds = synth_generate("blobs", 200, seed=5)
        assert inverse_domain(ds).images.mean() == pytest.approx(1.0 - ds.images.mean())

    def test_threshold_binarize(self):
        ds = Dataset(np.array([[0.7, 0.3, 0.5]]), None, {})
        out = binarize(ds, "threshold_0.5")
        np.testing.assert_array_equal(out.images, [[1.0, 0.0, 1.0]])

    def test_threshold_fixed_point(self):
        ds = binarize(synth_generate("blobs", 30, seed=1), "threshold_0.5")
        again = binarize(ds, "threshold_0.5")
        np.testing.assert_array_equal(ds.images, again.images)

    def test_stochastic_binarize_mean(self):
        # binomial CI for the per-pixel Bernoulli rate
        ds = Dataset(np.full((10_000, 1), 0.7), None, {})
        out = binarize(ds, "stochastic", seed=11)
        assert set(np.unique(out.images)) <= {0.0, 1.0}
        assert abs(out.images.mean() - 0.7) < 0.015

    def test_unknown_mode(self):
        with pytest.raises(DataFormatError):
            binarize(synth_generate("bars", 5), "otsu")


class TestStreams:
    def test_split_stream_partitions(self):
        g = np.random.default_rng(0)
        train = Dataset(g.random((40, 9)), np.repeat([0, 1, 2, 3], 10), {"name": "t"})
        test = Dataset(g.random((20, 9)), np.repeat([0, 1, 2, 3], 5), {"name": "t"})
        stream = make_split_stream(train, test, [{0, 1}, {2, 3}])
        assert len(stream) == 2
        assert stream.kind == "split"
        assert sorted(np.unique(stream.tasks[0].train.labels)) == [0, 1]
        assert sorted(np.unique(stream.tasks[1].test.labels)) == [2, 3]
        total = sum(len(t.train) for t in stream.tasks)
        assert total == len(train)

    def test_split_requires_cover(self):
        g = np.random.default_rng(0)
        train = Dataset(g.random((20, 4)), np.repeat([0, 1], 10), {})
        test = Dataset(g.random((10, 4)), np.repeat([0, 1], 5), {})
        with pytest.raises(DataFormatError):
            make_split_stream(train, test, [{0}])
        with pytest.raises(DataFormatError):
            make_split_stream(train, test, [{0, 1}, {1}])

    def test_cross_domain_stream(self):
        stream = make_cross_domain_stream(
            ["bars", "blobs", "bars-inv"], n_train=50, n_test=20, seed=4
        )
        assert len(stream) == 3
        assert [t.train.name for t in stream.tasks] == ["bars", "blobs", "bars-inv"]
        assert stream.dim == 144
        # order preserved, ids consecutive
        assert [t.task_id for t in stream.tasks] == [1, 2, 3]

    def test_cross_domain_train_test_disjoint(self):
        # continuous families: distinct draw indices mean distinct values
        stream = make_cross_domain_stream(["blobs", "rings"], n_train=30, n_test=30, seed=4)
        for task in stream.tasks:
            tr = {row.tobytes() for row in task.train.images}
            assert not any(row.tobytes() in tr for row in task.test.images)

    def test_cross_domain_reproducible(self):
        a = make_cross_domain_stream(["bars", "rings"], n_train=25, n_test=10, seed=8)
        b = make_cross_domain_stream(["bars", "rings"], n_train=25, n_test=10, seed=8)
        for ta, tb in zip(a.tasks, b.tasks):
            np.testing.assert_array_equal(ta.train.images, tb.train.images)
            np.testing.assert_array_equal(ta.test.images, tb.test.images)

    def test_binarized_stream_support(self):
        stream = make_cross_domain_stream(
            ["blobs", "rings"], n_train=20, n_test=10, seed=4, binarize_mode="stochastic"
        )
        for task in stream.tasks:
            assert set(np.unique(task.train.images)) <= {0.0, 1.0}

    def test_needs_two_specs(self):
        with pytest.raises(DataFormatError):
            make_cross_domain_stream(["bars"], n_train=10, n_test=5)


def write_idx_images(path, images):
    """images: uint8 array (n, rows, cols) written in IDX format."""
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


class TestLoadIdx:
    def test_roundtrip_exact_pixels(self, tmp_path):
        imgs = np.array(
            [[[0, 51], [102, 255]], [[255, 0], [5, 10]]], dtype=np.uint8
        )
        path = tmp_path / "imgs.idx"
        write_idx_images(path, imgs)
        ds = load_idx(path)
        assert len(ds) == 2 and ds.dim == 4
        np.testing.assert_allclose(
            ds.images, imgs.reshape(2, 4).astype(np.float64) / 255.0, atol=0
        )
        assert ds.meta["width"] == 2 and ds.meta["height"] == 2

    def test_labels_attached(self, tmp_path):
        imgs = np.zeros((3, 2, 2), dtype=np.uint8)
        write_idx_images(tmp_path / "i.idx", imgs)
        write_idx_labels(tmp_path / "l.idx", [4, 2, 7])
        ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        np.testing.assert_array_equal(ds.labels, [4, 2, 7])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        with open(path, "wb") as f:
            f.write(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2))
            f.write(bytes(4))
        with pytest.raises(IdxMagicError):
            load_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        with open(path, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            f.write(bytes(7))  # one byte short of 8
        with pytest.raises(IdxTruncatedError):
            load_idx(path)

    def test_label_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "i.idx", np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "l.idx", [1, 2])
        with pytest.raises(IdxCountMismatchError):
            load_idx(tmp_path / "i.idx", tmp_path / "l.idx")

    def test_label_magic_checked(self, tmp_path):
        write_idx_images(tmp_path / "i.idx", np.zeros((2, 2, 2), dtype=np.uint8))
        path = tmp_path / "l.idx"
        with open(path, "wb") as f:
            f.write(struct.pack(">II", 0x00000803, 2))
            f.write(bytes(2))
        with pytest.raises(IdxMagicError):
            load_idx(tmp_path / "i.idx", path)


class TestCorruptIdx:
    """Exhaustive over a tiny image/label pair: every truncation and every
    single-byte flip either raises DataFormatError or loads the same shapes."""

    SHAPES = ((3, 4), (3,), 2, 2)

    @staticmethod
    def shapes(ds):
        return ds.images.shape, ds.labels.shape, ds.meta["width"], ds.meta["height"]

    @pytest.fixture
    def pair(self, tmp_path):
        images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(images, np.arange(12, dtype=np.uint8).reshape(3, 2, 2) * 20)
        write_idx_labels(labels, [4, 2, 7])
        assert self.shapes(load_idx(images, labels)) == self.SHAPES
        return images, labels

    @pytest.mark.parametrize("victim", [0, 1])
    def test_every_truncation_raises(self, pair, victim):
        path = pair[victim]
        buf = path.read_bytes()
        for n in range(len(buf)):
            path.write_bytes(buf[:n])
            with pytest.raises(DataFormatError):
                load_idx(*pair)

    @pytest.mark.parametrize("victim", [0, 1])
    def test_trailing_bytes_rejected(self, pair, victim):
        path = pair[victim]
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(IdxTrailingBytesError, match="1 bytes after the"):
            load_idx(*pair)

    @pytest.mark.parametrize("victim", [0, 1])
    def test_every_byte_flip_raises_or_keeps_shapes(self, pair, victim):
        path = pair[victim]
        buf = path.read_bytes()
        rejected = 0
        for i in range(len(buf)):
            flipped = bytearray(buf)
            flipped[i] ^= 0xFF
            path.write_bytes(bytes(flipped))
            try:
                loaded = load_idx(*pair)
            except DataFormatError:
                rejected += 1
                continue
            assert self.shapes(loaded) == self.SHAPES, f"flip at byte {i}"
        assert 0 < rejected < len(buf)
