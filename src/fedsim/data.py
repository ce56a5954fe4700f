"""Dataset ingestion, synthetic generation, and non-i.i.d. label-shard partitioning."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

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
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite feature values")

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass
class Partition:
    assignments: list[np.ndarray]      # per-client index lists, disjoint
    weights: np.ndarray                # p_i = n_i / n
    dropped_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def num_clients(self) -> int:
        return len(self.assignments)


def _read_be_u32(f, what: str, path: str) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise IdxFormatError(f"{path}: truncated while reading {what}")
    return struct.unpack(">I", raw)[0]


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
        raw = f.read(n * rows * cols)
        if len(raw) != n * rows * cols:
            raise IdxFormatError(f"{images_path}: truncated pixel data")
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    with open(labels_path, "rb") as f:
        magic = _read_be_u32(f, "magic", labels_path)
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
        n_labels = _read_be_u32(f, "count", labels_path)
        raw = f.read(n_labels)
        if len(raw) != n_labels:
            raise IdxFormatError(f"{labels_path}: truncated label data")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if n != n_labels:
        raise IdxFormatError(
            f"image count {n} does not match label count {n_labels}")
    return Dataset(features=pixels.astype(np.float64) / 255.0, labels=labels)


def make_synth_task(
    num_classes: int,
    dim: int,
    samples_per_class: int,
    test_samples_per_class: int,
    separation: float,
    seed: int,
) -> tuple[Dataset, Dataset]:
    """Train/test datasets drawn from the same class clusters: Gaussian with
    unit covariance around class means of norm ``separation``."""
    if min(num_classes, dim, samples_per_class, test_samples_per_class) < 1:
        raise ValueError("num_classes, dim, samples_per_class and "
                         "test_samples_per_class must be positive")
    rng = np.random.default_rng([seed, 0x5D])
    means = rng.normal(size=(num_classes, dim))
    means = separation * means / np.linalg.norm(means, axis=1, keepdims=True)

    def draw(per_class: int) -> Dataset:
        X = np.concatenate([
            means[c] + rng.normal(size=(per_class, dim)) for c in range(num_classes)
        ])
        y = np.repeat(np.arange(num_classes), per_class)
        perm = rng.permutation(X.shape[0])
        return Dataset(features=X[perm], labels=y[perm])

    return draw(samples_per_class), draw(test_samples_per_class)


def shard_partition(
    ds: Dataset,
    num_clients: int,
    labels_per_client: int,
    rng: np.random.Generator,
) -> Partition:
    """Sort by label, split into num_clients * k equal shards, deal k per client.

    Shards are assigned by a seeded random permutation; remainder samples
    (when n is not divisible by the shard count) are dropped and recorded.
    """
    n = ds.n
    num_shards = num_clients * labels_per_client
    shard_size = n // num_shards
    if shard_size == 0:
        raise ValueError(
            f"cannot build {num_shards} shards from {n} samples")
    order = np.argsort(ds.labels, kind="stable")
    used = order[: num_shards * shard_size]
    dropped = order[num_shards * shard_size:]
    shards = used.reshape(num_shards, shard_size)
    shard_ids = rng.permutation(num_shards)
    assignments = []
    for c in range(num_clients):
        ids = shard_ids[c * labels_per_client:(c + 1) * labels_per_client]
        assignments.append(np.sort(np.concatenate([shards[s] for s in ids])))
    weights = client_weights_from_sizes([a.size for a in assignments])
    return Partition(assignments=assignments, weights=weights,
                     dropped_indices=np.sort(dropped))


def client_weights_from_sizes(sizes) -> np.ndarray:
    sizes = np.asarray(sizes, dtype=np.float64)
    if np.any(sizes <= 0):
        raise ValueError("every client must hold at least one sample")
    return sizes / sizes.sum()
