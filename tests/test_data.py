import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import data, harness
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

    def test_pixels_are_scaled_in_one_float_array(self, tmp_path):
        """The features equal ``pixels.astype(float64) / 255`` bit for bit,
        and loading holds about one float64 copy of them at its peak, not the
        cast and the quotient both."""
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(2000, 28, 28), dtype=np.uint8)
        paths = write_idx_pair(tmp_path, pixels, rng.integers(0, 10, size=2000, dtype=np.uint8))
        tracemalloc.start()
        try:
            ds = data.load_mnist_idx(*paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = pixels.reshape(2000, 784).astype(np.float64) / 255.0
        np.testing.assert_array_equal(ds.features.view(np.uint64), expected.view(np.uint64))
        assert peak < 1.5 * expected.nbytes

    @pytest.mark.parametrize("kind", ["mnist", "synthetic"])
    def test_client_ordered_rows_are_built_in_one_copy(self, tmp_path, kind):
        """Building the task and putting the training rows in client order
        peaks below 1.5 float64 copies of the training features: the
        synthetic rows are drawn and shuffled in place, and the client
        order moves the rows of the one array there is."""
        rng = np.random.default_rng(2)
        if kind == "mnist":
            train = write_idx_pair(tmp_path, rng.integers(0, 256, size=(2000, 28, 28)),
                                   rng.integers(0, 10, size=2000))
            test_dir = tmp_path / "test"
            test_dir.mkdir()
            test = write_idx_pair(test_dir, rng.integers(0, 256, size=(10, 28, 28)),
                                  rng.integers(0, 10, size=10))
            dataset = dict(zip(("images_path", "labels_path", "test_images_path",
                                "test_labels_path"), train + test))
        else:
            dataset = {"num_classes": 10, "dim": 784, "samples_per_class": 200,
                       "test_samples_per_class": 1, "separation": 3.0}
        cfg = harness.ExperimentConfig(dataset={"kind": kind, **dataset},
                                       num_clients=30, labels_per_client=2)
        one_copy = 2000 * 784 * 8
        tracemalloc.start()
        try:
            train_set, _, shards = harness._build_task(cfg)
            train_X, _ = harness._client_order(train_set, shards)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert train_X.shape == (sum(a.size for a in shards), 784)
        assert peak < 1.5 * one_copy

    def test_finiteness_check_makes_no_n_by_d_temporary(self):
        """A dataset checks its features are finite in less memory than a
        bool mask over them, one byte per feature; a NaN or an infinity
        anywhere is still rejected, and an empty set passes."""
        X = np.random.default_rng(5).random((2000, 784))
        labels = np.zeros(2000, dtype=np.int64)
        tracemalloc.start()
        try:
            Dataset(features=X, labels=labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.size // 10
        for bad in (np.nan, np.inf, -np.inf):
            Y = X.copy()
            Y[1234, 567] = bad
            with pytest.raises(ValueError, match="non-finite feature values"):
                Dataset(features=Y, labels=labels)
        Dataset(features=np.empty((0, 784)), labels=np.empty(0, dtype=np.int64))

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

    @pytest.mark.parametrize("dims", [(2**32 - 1,) * 3, (2**21,) * 3])
    def test_claim_beyond_the_file_is_rejected_before_reading(self, tmp_path, dims):
        img = tmp_path / "images.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, *dims))
        with pytest.raises(IdxFormatError, match=f"claims {math.prod(dims)} bytes, 0 follow"):
            data.load_mnist_idx(str(img), str(img))

    def test_truncated_labels(self, tmp_path):
        p = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8),
                           np.zeros(2, np.uint8), label_count=3)
        with pytest.raises(IdxFormatError, match="truncated label data"):
            data.load_mnist_idx(*p)

    @pytest.mark.parametrize("which,what,size", [(0, "pixel", 8), (1, "label", 2)])
    def test_bytes_after_the_data_are_rejected(self, tmp_path, which, what, size):
        p = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), np.zeros(2, np.uint8))
        with open(p[which], "ab") as f:
            f.write(b"\0\0\0")
        with pytest.raises(IdxFormatError, match=f"trailing bytes after {what} data: "
                                                 f"the header claims {size} bytes, {size + 3} follow"):
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
        a, _ = data.make_synth_task(3, 5, 10, 1, 2.0, rng=np.random.default_rng(1))
        b, _ = data.make_synth_task(3, 5, 10, 1, 2.0, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.n == 30
        assert np.all(np.bincount(a.labels) == 10)

    def test_rejects_bad_args(self):
        for sizes in [(0, 5, 10, 5), (3, 0, 10, 5), (3, 5, 0, 5), (3, 5, 10, 0)]:
            with pytest.raises(ValueError, match="must be positive"):
                data.make_synth_task(*sizes, 2.0, rng=np.random.default_rng(0))

    def test_task_train_test_share_structure(self):
        train, test = data.make_synth_task(4, 8, 50, 25, 4.0, rng=np.random.default_rng(3))
        assert train.n == 200 and test.n == 100
        # with wide separation a nearest-class-mean rule trained on train
        # should classify test well: confirms both splits share the clusters
        means = np.stack([train.features[train.labels == c].mean(axis=0)
                          for c in range(4)])
        pred = np.argmin(
            ((test.features[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
        assert (pred == test.labels).mean() > 0.9

    def test_task_deterministic_in_seed(self):
        a_train, _ = data.make_synth_task(3, 4, 10, 5, 2.0, rng=np.random.default_rng(7))
        b_train, _ = data.make_synth_task(3, 4, 10, 5, 2.0, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a_train.features, b_train.features)
        c_train, _ = data.make_synth_task(3, 4, 10, 5, 2.0, rng=np.random.default_rng(8))
        assert not np.array_equal(a_train.features, c_train.features)

    def test_rows_are_the_draws_of_a_copying_build(self):
        """Drawn and shuffled in place, the rows equal bit for bit those of
        concatenating each class's ``means[c] + rng.normal(...)`` and
        indexing by the permutation."""
        num_classes, dim, per_class, sep = 4, 6, 9, 2.5
        train, test = data.make_synth_task(num_classes, dim, per_class, 3, sep,
                                           rng=np.random.default_rng(5))
        rng = np.random.default_rng(5)
        means = rng.normal(size=(num_classes, dim))
        means = sep * means / np.linalg.norm(means, axis=1, keepdims=True)
        for ds, n in ((train, per_class), (test, 3)):
            X = np.concatenate([means[c] + rng.normal(size=(n, dim))
                                for c in range(num_classes)])
            perm = rng.permutation(X.shape[0])
            np.testing.assert_array_equal(ds.features.view(np.uint64),
                                          X[perm].view(np.uint64))
            np.testing.assert_array_equal(ds.labels, np.repeat(np.arange(num_classes), n)[perm])


@st.composite
def rows_and_indices(draw):
    """An (n, width) array and distinct row numbers of one of five kinds."""
    n = draw(st.integers(0, 24))
    width = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["permutation", "subset", "identity", "n-cycle", "empty"]))
    if kind == "permutation":
        idx = draw(st.permutations(range(n)))
    elif kind == "subset" and n > 0:
        chosen = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1))
        idx = draw(st.permutations(chosen))
    elif kind == "identity":
        idx = list(range(n))
    elif kind == "n-cycle":
        shift = draw(st.integers(0, max(n - 1, 0)))
        idx = [(i + shift) % n for i in range(n)]
    else:
        idx = []
    X = np.random.default_rng(draw(st.integers(0, 2**32))).normal(size=(n, width))
    return X, np.array(idx, dtype=np.intp)


@settings(max_examples=200, deadline=None)
@given(case=rows_and_indices())
def test_take_rows_in_place_equals_fancy_indexing(case):
    X, idx = case
    before = X.copy()
    head = data.take_rows_in_place(X, idx)
    assert np.shares_memory(head, X) or head.size == 0
    k = idx.size
    np.testing.assert_array_equal(head.view(np.uint64), before[idx].view(np.uint64))
    np.testing.assert_array_equal(X[:k].view(np.uint64), before[idx].view(np.uint64))
    rest = np.setdiff1d(np.arange(X.shape[0]), idx)
    np.testing.assert_array_equal(X[k:].view(np.uint64), before[rest].view(np.uint64))


def test_take_rows_in_place_rejects_a_repeated_row():
    with pytest.raises(ValueError, match="distinct"):
        data.take_rows_in_place(np.zeros((3, 2)), np.array([0, 0]))


def assert_partition(ds, shards, num_clients, k):
    """Disjoint sorted index arrays, one per client, each of k whole label
    shards; the n - sum(n_i) samples no client holds are the last of the
    label order."""
    assert len(shards) == num_clients
    held = np.concatenate(shards)
    assert np.unique(held).size == held.size
    shard_size = ds.n // (num_clients * k)
    order = np.argsort(ds.labels, kind="stable")
    rank = np.empty(ds.n, dtype=np.int64)
    rank[order] = np.arange(ds.n)
    for a in shards:
        assert np.all(np.diff(a) > 0)
        # k runs of shard_size consecutive samples in the label order
        ids, counts = np.unique(rank[a] // shard_size, return_counts=True)
        assert ids.size == k and np.all(counts == shard_size)
    remainder = ds.n - sum(a.size for a in shards)
    assert remainder == ds.n % (num_clients * k)
    np.testing.assert_array_equal(np.setdiff1d(np.arange(ds.n), held),
                                  np.sort(order[ds.n - remainder:]))


class TestShardPartition:
    def test_basic_invariants(self):
        ds = data.make_synth_task(5, 3, 40, 1, 2.0, rng=np.random.default_rng(2))[0]
        shards = data.shard_partition(ds, 10, 2, np.random.default_rng(3))
        assert_partition(ds, shards, 10, 2)
        for a in shards:
            assert len(np.unique(ds.labels[a])) <= 2

    def test_equal_shards_no_drop_when_divisible(self):
        ds = data.make_synth_task(5, 3, 40, 1, 2.0, rng=np.random.default_rng(4))[0]
        shards = data.shard_partition(ds, 10, 2, np.random.default_rng(5))
        assert sum(a.size for a in shards) == ds.n
        assert all(a.size == 20 for a in shards)

    def test_remainder_dropped(self):
        ds = Dataset(features=np.zeros((103, 2)),
                     labels=np.arange(103) % 4)
        shards = data.shard_partition(ds, 10, 1, np.random.default_rng(6))
        assert ds.n - sum(a.size for a in shards) == 3
        assert all(a.size == 10 for a in shards)
        assert_partition(ds, shards, 10, 1)

    def test_single_label_per_client(self):
        ds = data.make_synth_task(5, 3, 40, 1, 2.0, rng=np.random.default_rng(7))[0]
        shards = data.shard_partition(ds, 5, 1, np.random.default_rng(8))
        for a in shards:
            assert len(np.unique(ds.labels[a])) == 1

    def test_too_many_shards_rejected(self):
        ds = data.make_synth_task(2, 2, 3, 1, 1.0, rng=np.random.default_rng(9))[0]
        with pytest.raises(ValueError):
            data.shard_partition(ds, 10, 2, np.random.default_rng(10))

    def test_deterministic_in_rng(self):
        ds = data.make_synth_task(5, 3, 40, 1, 2.0, rng=np.random.default_rng(11))[0]
        a = data.shard_partition(ds, 10, 2, np.random.default_rng(12))
        b = data.shard_partition(ds, 10, 2, np.random.default_rng(12))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


@settings(max_examples=25, deadline=None)
@given(
    num_clients=st.integers(1, 8),
    k=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_partition_is_disjoint_and_leaves_the_remainder(num_clients, k, seed):
    ds = data.make_synth_task(4, 2, 30, 1, 1.0, rng=np.random.default_rng(99))[0]
    assert_partition(ds, data.shard_partition(ds, num_clients, k, np.random.default_rng(seed)),
                     num_clients, k)
