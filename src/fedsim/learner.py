"""Differentiable classifiers over a flat parameter vector.

Two model kinds are supported: multinomial logistic regression and a
one-hidden-layer MLP with tanh activation (smooth, so finite-difference
gradient checks hold everywhere). Parameters live in a single float64
vector: per layer, weights row-major then biases. The gradient also takes a
stack of such vectors, one per client, with one minibatch each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOGISTIC = "multinomial-logistic"
MLP = "one-hidden-layer-mlp"


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0

    def __post_init__(self):
        if self.kind not in (LOGISTIC, MLP):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim <= 0 or self.num_classes <= 0:
            raise ValueError("input_dim and num_classes must be positive")
        if self.kind == MLP and self.hidden_dim <= 0:
            raise ValueError("MLP requires hidden_dim > 0")

    @property
    def dim(self) -> int:
        if self.kind == LOGISTIC:
            return self.num_classes * self.input_dim + self.num_classes
        h, d, c = self.hidden_dim, self.input_dim, self.num_classes
        return h * d + h + c * h + c

    def layer_groups(self) -> list[tuple[int, int]]:
        """Contiguous (start, stop) ranges: one group per weight/bias block."""
        if self.kind == LOGISTIC:
            w = self.num_classes * self.input_dim
            return [(0, w), (w, w + self.num_classes)]
        h, d, c = self.hidden_dim, self.input_dim, self.num_classes
        cuts = np.cumsum([h * d, h, c * h, c])
        starts = [0, *cuts[:-1]]
        return [(int(s), int(e)) for s, e in zip(starts, cuts)]

    def unpack(self, theta: np.ndarray):
        """Views of the weight and bias blocks of ``theta``.

        ``theta`` is one flat vector or a stack ``(..., dim)`` of them; every
        block keeps the leading axes.
        """
        if theta.shape[-1:] != (self.dim,):
            raise ValueError(f"parameters of shape {theta.shape}, expected length {self.dim}")
        lead = theta.shape[:-1]
        if self.kind == LOGISTIC:
            w = self.num_classes * self.input_dim
            W = theta[..., :w].reshape(*lead, self.num_classes, self.input_dim)
            b = theta[..., w:]
            return W, b
        h, d, c = self.hidden_dim, self.input_dim, self.num_classes
        o = 0
        W1 = theta[..., o:o + h * d].reshape(*lead, h, d); o += h * d
        b1 = theta[..., o:o + h]; o += h
        W2 = theta[..., o:o + c * h].reshape(*lead, c, h); o += c * h
        b2 = theta[..., o:]
        return W1, b1, W2, b2


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Seeded Gaussian init, scale 1/sqrt(fan_in) for weights, zero biases."""
    rng = np.random.default_rng(seed)
    theta = np.zeros(spec.dim)
    if spec.kind == LOGISTIC:
        w = spec.num_classes * spec.input_dim
        theta[:w] = rng.normal(0.0, 1.0 / np.sqrt(spec.input_dim), w)
        return theta
    h, d, c = spec.hidden_dim, spec.input_dim, spec.num_classes
    o = 0
    theta[o:o + h * d] = rng.normal(0.0, 1.0 / np.sqrt(d), h * d); o += h * d
    o += h
    theta[o:o + c * h] = rng.normal(0.0, 1.0 / np.sqrt(h), c * h)
    return theta


def _affine(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X @ W^T + b over stacks: X (..., n, in), W (..., out, in), b (..., out)."""
    Z = X @ np.swapaxes(W, -1, -2)
    Z += b[..., None, :]
    return Z


def _logits(spec: ModelSpec, theta: np.ndarray, X: np.ndarray):
    """Logits (..., n, classes) and, for the MLP, the hidden activations."""
    if spec.kind == LOGISTIC:
        W, b = spec.unpack(theta)
        return _affine(X, W, b), None
    W1, b1, W2, b2 = spec.unpack(theta)
    H = _affine(X, W1, b1)
    np.tanh(H, out=H)
    return _affine(H, W2, b2), H


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis, computed in place in ``logits``."""
    logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return logits


def loss(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy over the slice."""
    if X.shape[0] == 0:
        raise ValueError("empty data slice")
    logits, _ = _logits(spec, theta, X)
    logp = _log_softmax(logits)
    return float(-logp[np.arange(y.size), y].mean())


def predict(spec: ModelSpec, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Predicted classes: argmax of the logits, ties to the lowest class."""
    if X.shape[0] == 0:
        raise ValueError("empty data slice")
    logits, _ = _logits(spec, theta, X)
    return logits.argmax(axis=1)


def grad(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact gradient of ``loss`` over the slice, flat layout.

    Also runs a whole cohort at once: ``theta`` (m, dim) with batches ``X``
    (m, n, in) and ``y`` (m, n) gives the m gradients as rows (m, dim). Each
    slice goes through the same BLAS call and the same element-wise steps as
    a single gradient, so every row equals its own single-client result bit
    for bit.
    """
    if X.shape[-2] == 0:
        raise ValueError("empty data slice")
    n = X.shape[-2]
    p, H = _logits(spec, theta, X)
    np.exp(_log_softmax(p), out=p)
    p.reshape(-1, spec.num_classes)[np.arange(y.size), y.ravel()] -= 1.0
    p /= n
    pT = np.swapaxes(p, -1, -2)
    g = np.empty(theta.shape)
    if spec.kind == LOGISTIC:
        gW, gb = spec.unpack(g)
        np.matmul(pT, X, out=gW)
        p.sum(axis=-2, out=gb)
        return g
    _, _, W2, _ = spec.unpack(theta)
    gW1, gb1, gW2, gb2 = spec.unpack(g)
    np.matmul(pT, H, out=gW2)
    p.sum(axis=-2, out=gb2)
    dZ1 = p @ W2  # dH, turned into dZ1 = dH * (1 - H^2) in place
    H *= H
    np.subtract(1.0, H, out=H)
    dZ1 *= H
    np.matmul(np.swapaxes(dZ1, -1, -2), X, out=gW1)
    dZ1.sum(axis=-2, out=gb1)
    return g


def stochastic_grad(
    spec: ModelSpec,
    theta: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Gradient over a uniform with-replacement mini-batch of ``batch_size``."""
    if X.shape[0] == 0:
        raise ValueError("empty client dataset")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    idx = rng.integers(0, X.shape[0], size=batch_size)
    return grad(spec, theta, X[idx], y[idx])
