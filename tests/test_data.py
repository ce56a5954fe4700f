import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import data
from fedsim.data import Dataset, IdxFormatError


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801,
                   label_count=None, truncate_pixels=0):
    n, rows, cols = pixels.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    body = pixels.astype(np.uint8).tobytes()
    if truncate_pixels:
        body = body[:-truncate_pixels]
    img_path.write_bytes(struct.pack(">IIII", image_magic, n, rows, cols) + body)
    lbl_path.write_bytes(
        struct.pack(">II", label_magic,
                    label_count if label_count is not None else len(labels))
        + labels.astype(np.uint8).tobytes())
    return str(img_path), str(lbl_path)


class TestIdxLoading:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        ds = data.load_mnist_idx(*write_idx_pair(tmp_path, pixels, labels))
        assert ds.features.shape == (7, 12)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        np.testing.assert_array_equal(ds.labels, labels)
        np.testing.assert_allclose(ds.features, pixels.reshape(7, 12) / 255.0)

    def test_bad_image_magic(self, tmp_path):
        p = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8),
                           np.zeros(1, np.uint8), image_magic=0x9999)
        with pytest.raises(IdxFormatError, match="image magic"):
            data.load_mnist_idx(*p)

    def test_bad_label_magic(self, tmp_path):
        p = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8),
                           np.zeros(1, np.uint8), label_magic=0x803)
        with pytest.raises(IdxFormatError, match="label magic"):
            data.load_mnist_idx(*p)

    def test_truncated_pixels(self, tmp_path):
        p = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8),
                           np.zeros(2, np.uint8), truncate_pixels=3)
        with pytest.raises(IdxFormatError, match="truncated pixel"):
            data.load_mnist_idx(*p)

    def test_count_mismatch(self, tmp_path):
        pixels = np.zeros((3, 2, 2), np.uint8)
        labels = np.zeros(4, np.uint8)
        p = write_idx_pair(tmp_path, pixels, labels)
        with pytest.raises(IdxFormatError, match="does not match"):
            data.load_mnist_idx(*p)

    def test_empty_file(self, tmp_path):
        img = tmp_path / "empty.idx"
        img.write_bytes(b"")
        with pytest.raises(IdxFormatError, match="truncated"):
            data.load_mnist_idx(str(img), str(img))


class TestDataset:
    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((3, 2)), labels=np.zeros(4, dtype=int))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(features=np.array([[np.inf]]), labels=np.zeros(1, dtype=int))


class TestSynth:
    def test_deterministic_and_balanced(self):
        a, _ = data.make_synth_task(3, 5, 10, 1, 2.0, seed=1)
        b, _ = data.make_synth_task(3, 5, 10, 1, 2.0, seed=1)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.n == 30
        assert np.all(np.bincount(a.labels) == 10)

    def test_rejects_bad_args(self):
        for sizes in [(0, 5, 10, 5), (3, 0, 10, 5), (3, 5, 0, 5), (3, 5, 10, 0)]:
            with pytest.raises(ValueError, match="must be positive"):
                data.make_synth_task(*sizes, 2.0, seed=0)

    def test_task_train_test_share_structure(self):
        train, test = data.make_synth_task(4, 8, 50, 25, 4.0, seed=3)
        assert train.n == 200 and test.n == 100
        # with wide separation a nearest-class-mean rule trained on train
        # should classify test well: confirms both splits share the clusters
        means = np.stack([train.features[train.labels == c].mean(axis=0)
                          for c in range(4)])
        pred = np.argmin(
            ((test.features[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
        assert (pred == test.labels).mean() > 0.9

    def test_task_deterministic_in_seed(self):
        a_train, _ = data.make_synth_task(3, 4, 10, 5, 2.0, seed=7)
        b_train, _ = data.make_synth_task(3, 4, 10, 5, 2.0, seed=7)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        c_train, _ = data.make_synth_task(3, 4, 10, 5, 2.0, seed=8)
        assert not np.array_equal(a_train.features, c_train.features)


class TestShardPartition:
    def test_basic_invariants(self):
        ds = data.make_synth_task(5, 3, 40, 1, 2.0, seed=2)[0]
        part = data.shard_partition(ds, 10, 2, np.random.default_rng(3))
        all_idx = np.concatenate(part.assignments + [part.dropped_indices])
        assert np.array_equal(np.sort(all_idx), np.arange(ds.n))
        assert part.weights.sum() == pytest.approx(1.0)
        for a in part.assignments:
            assert len(np.unique(ds.labels[a])) <= 2

    def test_equal_shards_no_drop_when_divisible(self):
        ds = data.make_synth_task(5, 3, 40, 1, 2.0, seed=4)[0]
        part = data.shard_partition(ds, 10, 2, np.random.default_rng(5))
        assert part.dropped_indices.size == 0
        assert all(a.size == 20 for a in part.assignments)

    def test_remainder_dropped(self):
        ds = Dataset(features=np.zeros((103, 2)),
                     labels=np.arange(103) % 4)
        part = data.shard_partition(ds, 10, 1, np.random.default_rng(6))
        assert part.dropped_indices.size == 3
        assert all(a.size == 10 for a in part.assignments)

    def test_single_label_per_client(self):
        ds = data.make_synth_task(5, 3, 40, 1, 2.0, seed=7)[0]
        part = data.shard_partition(ds, 5, 1, np.random.default_rng(8))
        for a in part.assignments:
            assert len(np.unique(ds.labels[a])) == 1

    def test_too_many_shards_rejected(self):
        ds = data.make_synth_task(2, 2, 3, 1, 1.0, seed=9)[0]
        with pytest.raises(ValueError):
            data.shard_partition(ds, 10, 2, np.random.default_rng(10))

    def test_deterministic_in_rng(self):
        ds = data.make_synth_task(5, 3, 40, 1, 2.0, seed=11)[0]
        a = data.shard_partition(ds, 10, 2, np.random.default_rng(12))
        b = data.shard_partition(ds, 10, 2, np.random.default_rng(12))
        for x, y in zip(a.assignments, b.assignments):
            np.testing.assert_array_equal(x, y)


    def test_weights_helpers(self):
        w = data.client_weights_from_sizes([10, 30])
        np.testing.assert_allclose(w, [0.25, 0.75])
        with pytest.raises(ValueError):
            data.client_weights_from_sizes([10, 0])


@settings(max_examples=25, deadline=None)
@given(
    num_clients=st.integers(1, 8),
    k=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_partition_is_disjoint_and_weights_normalized(num_clients, k, seed):
    ds = data.make_synth_task(4, 2, 30, 1, 1.0, seed=99)[0]
    part = data.shard_partition(ds, num_clients, k, np.random.default_rng(seed))
    combined = np.concatenate(part.assignments)
    assert combined.size == np.unique(combined).size
    assert part.weights.sum() == pytest.approx(1.0)
    assert combined.size + part.dropped_indices.size == ds.n
