"""FDMA uplink channel model: path loss, Rayleigh fading, Shannon rate, delay."""

from __future__ import annotations

import math

import numpy as np

PATHLOSS_REF = 1e-3  # path loss at the reference distance of 1 m


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def sample_channel(
    distance_m: float,
    pathloss_exponent: float,
    rng: np.random.Generator,
) -> float:
    """Channel gain: path loss times unit-mean fading power |h|^2 ~ Exp(1)."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    pathloss = PATHLOSS_REF * distance_m ** (-pathloss_exponent)
    fading = rng.exponential(1.0)
    return pathloss * fading


def place_devices(num_devices: int, rng: np.random.Generator,
                  r_min: float, r_max: float) -> np.ndarray:
    """Distances of devices placed uniformly (by area) in an annulus."""
    u = rng.random(num_devices)
    return np.sqrt(r_min**2 + u * (r_max**2 - r_min**2))


def rate_bps(w_hz: float, rx_power_w: float, noise_psd_w_hz: float) -> float:
    """Shannon rate W * log2(1 + P_rx / (W * N0)) in bits per second.

    The one rate function: the delay check and the allocator both use it.
    """
    if w_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return w_hz * math.log1p(rx_power_w / (w_hz * noise_psd_w_hz)) / math.log(2.0)


def transmission_ok(
    bits: int,
    w_hz: float,
    rx_power_w: float,
    noise_psd_w_hz: float,
    tau: float,
) -> bool:
    """True iff the payload fits within the delay budget (inclusive)."""
    if tau <= 0:
        raise ValueError("delay budget must be positive")
    rate = rate_bps(w_hz, rx_power_w, noise_psd_w_hz)
    return rate > 0 and bits / rate <= tau  # nothing arrives at a zero rate
