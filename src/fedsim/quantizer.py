"""Stochastic uniform quantizer for model-update vectors.

Magnitudes within each group are probabilistically rounded onto the
boundaries of ``2**B - 1`` uniform sub-intervals of ``[lo, hi]``, where
``lo``/``hi`` are the min/max absolute values within the group. Signs are
stored separately, one bit per element, and each group's (lo, hi) pair is
the upload's side information, ``side_bits`` in the payload accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BITS_PER_BOUND = 32  # each group bound is sent as a float32


def side_bits(num_groups: int) -> int:
    """mu: the bits of one upload's (lo, hi) bound pairs, one pair per group."""
    return 2 * BITS_PER_BOUND * num_groups


@dataclass
class QuantizedDelta:
    """Wire representation of a quantized vector."""

    level_indices: np.ndarray        # int64, in [0, 2**B - 1]
    sign_bits: np.ndarray            # int8, values in {-1, +1}
    lower_bounds: np.ndarray         # float64, one per group
    upper_bounds: np.ndarray         # float64, one per group
    bits_per_element: int
    group_boundaries: list[tuple[int, int]]

    @property
    def dim(self) -> int:
        return int(self.level_indices.size)

    @property
    def payload_bits(self) -> int:
        return payload_bits(self.dim, self.bits_per_element,
                            side_bits(len(self.group_boundaries)))

    def validate(self) -> None:
        k_max = (1 << self.bits_per_element) - 1
        if self.level_indices.min(initial=0) < 0 or self.level_indices.max(initial=0) > k_max:
            raise ValueError("level index out of range")
        if np.any(self.lower_bounds > self.upper_bounds):
            raise ValueError("lower bound exceeds upper bound")
        if not np.all(np.isin(self.sign_bits, (-1, 1))):
            raise ValueError("sign bits must be -1 or +1")


def payload_bits(d: int, B: int, mu: int) -> int:
    """Total uplink bits for a d-element payload: d*(B+1) + mu."""
    if d < 1 or B < 1 or mu < 0:
        raise ValueError(f"invalid payload parameters d={d}, B={B}, mu={mu}")
    return d * (B + 1) + mu


def _check_groups(groups: list[tuple[int, int]] | None, d: int) -> list[tuple[int, int]]:
    if groups is None:
        return [(0, d)]
    cursor = 0
    for start, stop in groups:
        if start != cursor or stop <= start:
            raise ValueError(f"group boundaries must tile [0, {d}) contiguously")
        cursor = stop
    if cursor != d:
        raise ValueError(f"group boundaries cover [0, {cursor}) but vector has length {d}")
    return list(groups)


_TINY = np.finfo(np.float64).tiny


def _signs(z: np.ndarray) -> np.ndarray:
    """-1 where z < 0, else +1, as int8."""
    return 1 - 2 * (z < 0).view(np.int8)


def _level_grid(lows: np.ndarray, highs: np.ndarray, sizes: list[int], k: int):
    """Per-element lower bound and grid scale k / (hi - lo) of each group.

    A group whose spread is too small for a finite scale (hi == lo, in
    particular) gets scale 0, which puts all its elements on level 0.
    """
    spans = highs - lows
    scale = k / np.where(spans > k * _TINY, spans, np.inf)
    return np.repeat(lows, sizes), np.repeat(scale, sizes)


def _draw_levels(mags: np.ndarray, lo: np.ndarray, scale: np.ndarray, k: int,
                 u: np.ndarray) -> np.ndarray:
    """Stochastically rounded level of each magnitude, given uniforms ``u``.

    The grid position is held to [0, k] before rounding, so a magnitude at
    or past an end lands on that end's level.
    """
    pos = mags - lo
    pos *= scale
    np.minimum(pos, k, out=pos)
    np.maximum(pos, 0.0, out=pos)
    base = np.floor(pos)
    pos -= base
    return base.astype(np.int64) + (u < pos)


def quantize(
    z: np.ndarray,
    B: int,
    rng: np.random.Generator | None = None,
    groups: list[tuple[int, int]] | None = None,
    bounds: tuple[float, float] | None = None,
) -> QuantizedDelta:
    """Quantize ``z`` to ``B`` bits per element plus one sign bit.

    ``groups`` lists contiguous ``(start, stop)`` index ranges sharing
    bounds (typically one per model layer). ``bounds`` overrides the
    computed (lo, hi) for every group; intended for tests only. All groups
    go through one pass over the vector.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ValueError("cannot quantize an empty vector")
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    if not np.isfinite(z).all():
        bad = np.flatnonzero(~np.isfinite(z))
        raise ValueError(f"non-finite element at index {int(bad[0])}")
    if rng is None:
        rng = np.random.default_rng()
    groups = _check_groups(groups, z.size)

    signs = _signs(z)
    mags = np.abs(z)
    starts = [start for start, _ in groups]
    if bounds is not None:
        lows = np.full(len(groups), float(bounds[0]))
        highs = np.full(len(groups), float(bounds[1]))
    else:
        lows = np.minimum.reduceat(mags, starts)
        highs = np.maximum.reduceat(mags, starts)

    k = (1 << B) - 1
    lo, scale = _level_grid(lows, highs, [stop - start for start, stop in groups], k)
    # One uniform draw per element regardless of the data, so RNG
    # consumption does not depend on it.
    levels = _draw_levels(mags, lo, scale, k, rng.random(z.size))

    return QuantizedDelta(
        level_indices=levels,
        sign_bits=signs,
        lower_bounds=lows,
        upper_bounds=highs,
        bits_per_element=B,
        group_boundaries=groups,
    )


def _dequantize_levels(levels, signs, lows, highs, sizes, k):
    """Signed values of ``levels`` on each group's grid."""
    steps = (highs - lows) / k
    return (np.repeat(lows, sizes) + levels * np.repeat(steps, sizes)) * signs


def dequantize(q: QuantizedDelta) -> np.ndarray:
    """Reconstruct the real vector represented by ``q``."""
    sizes = [stop - start for start, stop in q.group_boundaries]
    return _dequantize_levels(q.level_indices, q.sign_bits, q.lower_bounds,
                              q.upper_bounds, sizes, (1 << q.bits_per_element) - 1)


def _batched_dequantized(z, B, n, rng, bounds=None):
    """n independent dequantized draws of quantize(z, B), whole-vector bounds."""
    mags = np.abs(z)
    signs = _signs(z)
    lows, highs = ((mags.min(keepdims=True), mags.max(keepdims=True)) if bounds is None
                   else (np.array([float(bounds[0])]), np.array([float(bounds[1])])))
    k = (1 << B) - 1
    lo, scale = _level_grid(lows, highs, [z.size], k)
    levels = _draw_levels(mags, lo, scale, k, rng.random((n, z.size)))
    return _dequantize_levels(levels, signs, lows, highs, [z.size], k)


def omega_bound(z: np.ndarray, B: int) -> float:
    """Contraction-factor upper bound on E||Q(z) - z||^2 / ||z||^2.

    Evaluates d * (hi - lo) / (4 * (2**B - 1) * ||z||^2) with whole-vector
    magnitude bounds; decreasing in B.
    """
    z = np.asarray(z, dtype=np.float64)
    norm_sq = float(z @ z)
    if norm_sq == 0.0:
        raise ValueError("omega bound undefined for the zero vector")
    mags = np.abs(z)
    spread = float(mags.max() - mags.min())
    return z.size * spread / (4.0 * ((1 << B) - 1) * norm_sq)


def empirical_omega(
    z: np.ndarray,
    B: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Mean relative quantization error over independent draws."""
    z = np.asarray(z, dtype=np.float64)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    norm_sq = float(z @ z)
    if norm_sq == 0.0:
        raise ValueError("relative error undefined for the zero vector")
    total = 0.0
    chunk = max(1, min(trials, 200_000 // max(1, z.size)))
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        deq = _batched_dequantized(z, B, n, rng)
        err = deq - z
        total += float(np.einsum("ij,ij->", err, err))
        done += n
    return total / (trials * norm_sq)


def empirical_mean_dequantized(
    z: np.ndarray,
    B: int,
    trials: int,
    rng: np.random.Generator,
    bounds: tuple[float, float] | None = None,
) -> np.ndarray:
    """Element-wise mean of ``trials`` dequantized draws (unbiasedness probe)."""
    z = np.asarray(z, dtype=np.float64)
    acc = np.zeros(z.size)
    chunk = max(1, min(trials, 200_000 // max(1, z.size)))
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        acc += _batched_dequantized(z, B, n, rng, bounds=bounds).sum(axis=0)
        done += n
    return acc / trials
