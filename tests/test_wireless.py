import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import wireless
from fedsim.wireless import ChannelDraw, LinkBudget


BUDGET = LinkBudget()


def rate_at(w, gain):
    return wireless.rate_bps(w, BUDGET.tx_power_w * gain, BUDGET.noise_psd_w_hz)


class TestUnits:
    def test_dbm_to_watts_anchors(self):
        assert wireless.dbm_to_watts(30.0) == pytest.approx(1.0)
        assert wireless.dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert wireless.dbm_to_watts(-30.0) == pytest.approx(1e-6)

    def test_default_budget_properties(self):
        assert BUDGET.tx_power_w == pytest.approx(1.0)
        assert BUDGET.noise_psd_w_hz == pytest.approx(10 ** (-14.3) / 1e3)

    def test_budget_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            LinkBudget(total_bandwidth_hz=0.0)


class TestChannel:
    def test_pathloss_scales_with_inverse_square(self):
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        near = wireless.sample_channel(100.0, BUDGET, rng_a)
        far = wireless.sample_channel(200.0, BUDGET, rng_b)
        # identical fading draws, so the ratio is purely path loss
        assert near.gain / far.gain == pytest.approx(4.0)

    def test_fading_is_unit_mean_exponential(self):
        rng = np.random.default_rng(2)
        n = 20_000
        gains = np.array([wireless.sample_channel(100.0, BUDGET, rng).gain
                          for _ in range(n)])
        pathloss = 1e-3 * 100.0 ** -2
        scaled = gains / pathloss
        assert scaled.mean() == pytest.approx(1.0, abs=0.03)
        assert scaled.std() == pytest.approx(1.0, abs=0.05)

    def test_rejects_bad_distance_and_gain(self):
        with pytest.raises(ValueError):
            wireless.sample_channel(0.0, BUDGET, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ChannelDraw(distance_m=10.0, gain=0.0)

    def test_placement_stays_in_annulus_and_is_area_uniform(self):
        rng = np.random.default_rng(3)
        d = wireless.place_devices(50_000, rng, r_min=10.0, r_max=500.0)
        assert d.min() >= 10.0 and d.max() <= 500.0
        # under area-uniform placement, P(r <= x) = (x^2-rmin^2)/(rmax^2-rmin^2)
        x = 250.0
        expected = (x**2 - 100.0) / (500.0**2 - 100.0)
        assert (d <= x).mean() == pytest.approx(expected, abs=0.01)


class TestRateAndDelay:
    def test_rate_hand_value(self):
        # W=1e6, P*g/(W*N0) = 1 => rate = W * log2(2) = W
        g = 1e6 * BUDGET.noise_psd_w_hz / BUDGET.tx_power_w
        assert rate_at(1e6, g) == pytest.approx(1e6)

    def test_rate_monotone_and_concave_in_bandwidth(self):
        g = 1e-10
        ws = np.linspace(1e5, 1e8, 40)
        rates = np.array([rate_at(w, g) for w in ws])
        assert np.all(np.diff(rates) > 0)
        assert np.all(np.diff(rates, 2) < 0)

    def test_rate_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            rate_at(0.0, 1e-9)

    def test_delay_arithmetic_and_infinite_sentinel(self):
        assert wireless.tx_delay(1000, 500.0) == pytest.approx(2.0)
        assert wireless.tx_delay(1, 0.0) == math.inf
        assert math.isinf(wireless.tx_delay(1, -1.0))

    def test_transmission_ok_boundary_is_inclusive(self):
        g = 1e-10
        rate = rate_at(1e6, g)
        bits = 10_000
        tau_exact = bits / rate
        assert wireless.transmission_ok(bits, 1e6, BUDGET, g, tau_exact)
        assert not wireless.transmission_ok(bits, 1e6, BUDGET, g,
                                            tau_exact * (1 - 1e-9))
        with pytest.raises(ValueError):
            wireless.transmission_ok(bits, 1e6, BUDGET, g, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    w=st.floats(1e3, 1e8),
    gain_exp=st.floats(-12, -6),
    bits=st.integers(1, 10**7),
)
def test_delay_consistency(w, gain_exp, bits):
    gain = 10.0 ** gain_exp
    rate = rate_at(w, gain)
    delay = wireless.tx_delay(bits, rate)
    assert delay > 0
    assert wireless.transmission_ok(bits, w, BUDGET, gain, delay * (1 + 1e-9))
