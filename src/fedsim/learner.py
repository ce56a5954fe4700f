"""Differentiable classifiers over a flat parameter vector.

A model is a stack of affine layers given by its widths, input first:
``[input_dim, num_classes]`` is multinomial logistic regression and
``[input_dim, hidden_dim, num_classes]`` a one-hidden-layer MLP. Every layer
but the last is followed by tanh (smooth, so finite-difference gradient
checks hold everywhere). Parameters live in a single float64 vector: per
layer, weights row-major then biases. The gradient also takes a stack of
such vectors, one per client, with one minibatch each.

``loss`` and ``predict`` walk their set in blocks of at most ``BLOCK_ROWS``
sample rows, and the round engine steps its cohort in blocks of clients whose
stacked gradient holds at most ``STEP_ROWS`` sample rows; both cut with
``_row_blocks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise

import numpy as np

LOGISTIC = "multinomial-logistic"
MLP = "one-hidden-layer-mlp"

BLOCK_ROWS = 1024  # the most sample rows one stacked evaluation holds
# The most sample rows one local step's stacked gradient holds (one minibatch
# if larger). A block of clients holds two rows of d float64 parameters per
# client besides its features, so the bound sets a round's peak: against
# 1,024 rows, 512 (10 clients at batch 50) lowered a wide MLP's (d = 159,010)
# peak RSS from 193 to 166 MiB (README, Memory). Each client's products are
# BLAS calls of their own, so, unlike BLOCK_ROWS, this bound moves no bit.
STEP_ROWS = 512


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0  # read only by the MLP

    def __post_init__(self):
        if self.kind not in (LOGISTIC, MLP):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim <= 0 or self.num_classes <= 0:
            raise ValueError("input_dim and num_classes must be positive")
        if self.kind == MLP and self.hidden_dim <= 0:
            raise ValueError("MLP requires hidden_dim > 0")

    @cached_property
    def widths(self) -> tuple[int, ...]:
        """Layer widths, input first: the one map from ``kind`` to layers."""
        hidden = (self.hidden_dim,) if self.kind == MLP else ()
        return (self.input_dim, *hidden, self.num_classes)

    @cached_property
    def _layers(self) -> tuple[tuple[int, int, int, tuple[int, int]], ...]:
        """Per layer: weight start, bias start, bias stop, weight shape."""
        layers, start = [], 0
        for fan_in, fan_out in pairwise(self.widths):
            bias = start + fan_out * fan_in
            layers.append((start, bias, bias + fan_out, (fan_out, fan_in)))
            start = bias + fan_out
        return tuple(layers)

    @property
    def dim(self) -> int:
        return self._layers[-1][2]

    def layer_groups(self) -> list[tuple[int, int]]:
        """Contiguous (start, stop) ranges: one group per weight/bias block."""
        return [group for w, b, stop, _ in self._layers for group in ((w, b), (b, stop))]

    def unpack(self, theta: np.ndarray) -> list[np.ndarray]:
        """Views of the blocks of ``theta``: per layer, weights (..., out, in)
        then biases (..., out).

        ``theta`` is one flat vector or a stack ``(..., dim)`` of them; every
        block keeps the leading axes.
        """
        if theta.shape[-1:] != (self.dim,):
            raise ValueError(f"parameters of shape {theta.shape}, expected length {self.dim}")
        lead = theta.shape[:-1]
        blocks = []
        for w, b, stop, shape in self._layers:
            blocks += (theta[..., w:b].reshape(lead + shape), theta[..., b:stop])
        return blocks


def sized(*shape: int) -> tuple[int, ...]:
    """``shape`` as ints; MemoryError where numpy cannot index its 8-byte items."""
    shape = tuple(map(int, shape))
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"an array of shape {shape} is too large to index")
    return shape


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Gaussian init, scale 1/sqrt(fan_in) for weights, zero biases.

    ``rng`` draws the weight blocks in layer order.
    """
    theta = np.zeros(sized(spec.dim))
    for w, b, _, (_, fan_in) in spec._layers:
        theta[w:b] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), b - w)
    return theta


def _affine(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X @ W^T + b over stacks: X (..., n, in), W (..., out, in), b (..., out)."""
    Z = X @ np.swapaxes(W, -1, -2)
    Z += b[..., None, :]
    return Z


def _forward(blocks: list[np.ndarray], X: np.ndarray):
    """Logits (..., n, classes) and each layer's input, for ``unpack``'s blocks."""
    inputs = [X]
    for W, b in zip(blocks[:-2:2], blocks[1:-2:2]):
        Z = _affine(inputs[-1], W, b)
        inputs.append(np.tanh(Z, out=Z))
    return _affine(inputs[-1], blocks[-2], blocks[-1]), inputs


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis, computed in place in ``logits``."""
    logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return logits


def _row_blocks(n: int, most: int = BLOCK_ROWS) -> list[slice]:
    """Slices that cover ``range(n)`` in order: as few blocks as hold at most
    ``most`` rows each, equal in size to within one row; none for n = 0.

    Each output row of a product is computed from its own input row, so a
    block gives the rows of the whole stack bit for bit, as long as the BLAS
    runs it through the same kernel. OpenBLAS takes a separate small-matrix
    kernel for a product of few rows times a narrow layer, which rounds
    differently; equal blocks, of at least half ``most`` when there is more
    than one, leave no short remainder block to land there.
    """
    count = -(-n // most)
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]


def loss(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy over the slice, computed a block of rows at a time.

    The mean is one sum over every row's log-probability, as over a single
    stack.
    """
    if X.shape[0] == 0:
        raise ValueError("empty data slice")
    blocks = spec.unpack(theta)
    picked = np.empty(y.size)  # each row's log-probability of its label
    for rows in _row_blocks(y.size):
        logp = _log_softmax(_forward(blocks, X[rows])[0])
        picked[rows] = logp[np.arange(logp.shape[0]), y[rows]]
    return float(-picked.mean())


def predict(spec: ModelSpec, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Predicted classes: argmax of the logits, ties to the lowest class;
    computed a block of rows at a time."""
    if X.shape[0] == 0:
        raise ValueError("empty data slice")
    blocks = spec.unpack(theta)
    labels = np.empty(X.shape[0], dtype=np.intp)
    for rows in _row_blocks(X.shape[0]):
        labels[rows] = _forward(blocks, X[rows])[0].argmax(axis=1)
    return labels


def grad(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray,
         out: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of ``loss`` over the slice, flat layout.

    Also runs a whole cohort at once: ``theta`` (m, dim) with batches ``X``
    (m, n, in) and ``y`` (m, n) gives the m gradients as rows (m, dim). Each
    slice goes through the same BLAS call and the same element-wise steps as
    a single gradient, so every row equals its own single-client result bit
    for bit.

    ``out``, a C-contiguous float64 array of ``theta``'s shape, receives the
    gradient and is returned; an ``out`` that is not one raises ValueError
    before anything is written.
    """
    if X.shape[-2] == 0:
        raise ValueError("empty data slice")
    if out is None:
        out = np.empty(theta.shape)
    elif out.shape != theta.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {theta.shape}")
    n = X.shape[-2]
    blocks = spec.unpack(theta)
    dZ, inputs = _forward(blocks, X)
    np.exp(_log_softmax(dZ), out=dZ)
    dZ.reshape(-1, spec.num_classes)[np.arange(y.size), y.ravel()] -= 1.0
    dZ /= n
    grads = spec.unpack(out)
    for i in reversed(range(len(inputs))):
        A = inputs[i]
        np.matmul(np.swapaxes(dZ, -1, -2), A, out=grads[2 * i])
        dZ.sum(axis=-2, out=grads[2 * i + 1])
        if i:  # A = tanh(Z) of the layer below, whose dZ = (dZ @ W) * (1 - A^2)
            dZ = dZ @ blocks[2 * i]
            A *= A
            np.subtract(1.0, A, out=A)
            dZ *= A
    return out

