"""FDMA uplink channel model: path loss, Rayleigh fading, Shannon rate, delay."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinkBudget:
    tx_power_dbm: float = 30.0
    noise_psd_dbm_hz: float = -143.0
    total_bandwidth_hz: float = 1e8
    pathloss_exponent: float = 2.0
    pathloss_ref: float = 1e-3

    def __post_init__(self):
        if self.total_bandwidth_hz <= 0:
            raise ValueError("total bandwidth must be positive")

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)

    @property
    def noise_psd_w_hz(self) -> float:
        return dbm_to_watts(self.noise_psd_dbm_hz)


@dataclass(frozen=True)
class ChannelDraw:
    distance_m: float
    gain: float  # pathloss * |h|^2, |h|^2 ~ Exp(1)

    def __post_init__(self):
        if self.gain <= 0:
            raise ValueError("channel gain must be positive")


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def sample_channel(
    distance_m: float,
    budget: LinkBudget,
    rng: np.random.Generator,
) -> ChannelDraw:
    """Distance-dependent path loss times unit-mean exponential fading power."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    pathloss = budget.pathloss_ref * distance_m ** (-budget.pathloss_exponent)
    fading = rng.exponential(1.0)
    return ChannelDraw(distance_m=distance_m, gain=pathloss * fading)


def place_devices(
    num_devices: int,
    rng: np.random.Generator,
    r_min: float = 10.0,
    r_max: float = 500.0,
) -> np.ndarray:
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


def tx_delay(bits: int, rate: float) -> float:
    """Transmission delay in seconds; infinite if the rate is zero."""
    if rate <= 0:
        return math.inf
    return bits / rate


def transmission_ok(
    bits: int,
    w_hz: float,
    budget: LinkBudget,
    gain: float,
    tau: float,
) -> bool:
    """True iff the payload fits within the delay budget (inclusive)."""
    if tau <= 0:
        raise ValueError("delay budget must be positive")
    rate = rate_bps(w_hz, budget.tx_power_w * gain, budget.noise_psd_w_hz)
    return tx_delay(bits, rate) <= tau

