"""Dataset ingestion, synthetic generation, and non-i.i.d. label-shard partitioning."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    pass


@dataclass
class Dataset:
    features: np.ndarray  # (n, input_dim), float64 in [0, 1]
    labels: np.ndarray    # (n,), int class ids

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels row counts differ")
        X = self.features  # min and max carry NaN and inf, with no n-by-d mask
        if X.size and not (np.isfinite(X.min()) and np.isfinite(X.max())):
            raise ValueError("non-finite feature values")

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


def _read_be_u32(f, what: str, path: str) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise IdxFormatError(f"{path}: truncated while reading {what}")
    return struct.unpack(">I", raw)[0]


def _read_body(f, size: int, what: str, path: str) -> bytes:
    """The ``size`` bytes the header claims, after checking that exactly
    that many are left in the file, so a bad header never sizes a read."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if size != left:
        raise IdxFormatError(f"{path}: {'truncated' if size > left else 'trailing bytes after'} "
                             f"{what} data: the header claims {size} bytes, {left} follow")
    return f.read(size)


def load_mnist_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label file pair; pixels scaled to [0, 1]."""
    with open(images_path, "rb") as f:
        magic = _read_be_u32(f, "magic", images_path)
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
        n = _read_be_u32(f, "count", images_path)
        rows = _read_be_u32(f, "rows", images_path)
        cols = _read_be_u32(f, "cols", images_path)
        pixels = np.frombuffer(_read_body(f, n * rows * cols, "pixel", images_path),
                               dtype=np.uint8).reshape(n, rows * cols)
    with open(labels_path, "rb") as f:
        magic = _read_be_u32(f, "magic", labels_path)
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
        n_labels = _read_be_u32(f, "count", labels_path)
        labels = np.frombuffer(_read_body(f, n_labels, "label", labels_path),
                               dtype=np.uint8).astype(np.int64)
    if n != n_labels:
        raise IdxFormatError(
            f"image count {n} does not match label count {n_labels}")
    # one float64 array: the division casts each pixel as it goes
    return Dataset(features=np.divide(pixels, 255.0), labels=labels)


def make_synth_task(
    num_classes: int,
    dim: int,
    samples_per_class: int,
    test_samples_per_class: int,
    separation: float,
    rng: np.random.Generator,
) -> tuple[Dataset, Dataset]:
    """Train/test datasets drawn from ``rng`` around the same class clusters:
    Gaussian with unit covariance around class means of norm ``separation``."""
    if min(num_classes, dim, samples_per_class, test_samples_per_class) < 1:
        raise ValueError("num_classes, dim, samples_per_class and "
                         "test_samples_per_class must be positive")
    means = rng.normal(size=(num_classes, dim))
    with np.errstate(over="ignore"):  # a huge separation is rejected below, not warned of
        means = separation * means / np.linalg.norm(means, axis=1, keepdims=True)
    if not np.all(np.isfinite(means)):
        raise ValueError(f"separation {separation!r} makes non-finite class means")

    def draw(per_class: int) -> Dataset:
        # each class's rows drawn in place: the same draws and sums as
        # means[c] + rng.normal(size=(per_class, dim)), with no second copy
        X = np.empty((num_classes * per_class, dim))
        for c, rows in enumerate(X.reshape(num_classes, per_class, dim)):
            rng.standard_normal(out=rows)
            rows += means[c]
        y = np.repeat(np.arange(num_classes), per_class)
        perm = rng.permutation(X.shape[0])
        return Dataset(features=take_rows_in_place(X, perm), labels=y[perm])

    return draw(samples_per_class), draw(test_samples_per_class)


def take_rows_in_place(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Make ``X[:len(idx)]`` equal the old ``X[idx]`` without a second copy of
    ``X``, and return that view. ``idx`` holds distinct row numbers; the rows
    it leaves out follow in ascending order. The rows move along the cycles
    of that permutation, one row of scratch per cycle (Fich, Munro and
    Poblete, "Permuting in place", SIAM J. Comput. 1995)."""
    n = X.shape[0]
    left_out = np.ones(n, dtype=bool)
    left_out[idx] = False
    rest = np.flatnonzero(left_out)
    if len(idx) + rest.size != n:
        raise ValueError("row numbers must be distinct")
    src = np.concatenate([idx, rest]).tolist()  # row i takes the old row src[i]
    moved = bytearray(n)
    for start in range(n):
        if moved[start] or src[start] == start:
            continue
        held = X[start].copy()
        i = start
        while src[i] != start:
            X[i] = X[src[i]]
            moved[i] = 1
            i = src[i]
        X[i] = held
        moved[i] = 1
    return X[:len(idx)]


def shard_partition(
    ds: Dataset,
    num_clients: int,
    labels_per_client: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Sort by label, split into num_clients * k equal shards, deal k per client.

    Returns each client's sorted sample indices; the clients' arrays are
    disjoint. Shards are assigned by a seeded random permutation; the
    remainder samples (when n is not divisible by the shard count) belong to
    no client.
    """
    n = ds.n
    num_shards = num_clients * labels_per_client
    shard_size = n // num_shards
    if shard_size == 0:
        raise ValueError(
            f"cannot build {num_shards} shards from {n} samples")
    order = np.argsort(ds.labels, kind="stable")
    shards = order[: num_shards * shard_size].reshape(num_shards, shard_size)
    shard_ids = rng.permutation(num_shards)
    assignments = []
    for c in range(num_clients):
        ids = shard_ids[c * labels_per_client:(c + 1) * labels_per_client]
        assignments.append(np.sort(np.concatenate([shards[s] for s in ids])))
    return assignments
