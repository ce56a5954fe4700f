import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import wireless
from fedsim.harness import WirelessConfig


LINK = WirelessConfig()
P, N0 = LINK.tx_power_w, LINK.noise_psd_w_hz


def rate_at(w, gain):
    return wireless.rate_bps(w, P * gain, N0)


def transmission_ok(bits, w, gain, tau):
    return wireless.transmission_ok(bits, w, P * gain, N0, tau)


class TestUnits:
    def test_dbm_to_watts_anchors(self):
        assert wireless.dbm_to_watts(30.0) == pytest.approx(1.0)
        assert wireless.dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert wireless.dbm_to_watts(-30.0) == pytest.approx(1e-6)

    def test_default_budget_properties(self):
        assert LINK.tx_power_w == pytest.approx(1.0)
        assert LINK.noise_psd_w_hz == pytest.approx(10 ** (-14.3) / 1e3)


class TestChannel:
    def test_pathloss_scales_with_inverse_square(self):
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        near = wireless.sample_channel(100.0, 2.0, rng_a)
        far = wireless.sample_channel(200.0, 2.0, rng_b)
        # identical fading draws, so the ratio is purely path loss
        assert near / far == pytest.approx(4.0)

    def test_fading_is_unit_mean_exponential(self):
        rng = np.random.default_rng(2)
        n = 20_000
        gains = np.array([wireless.sample_channel(100.0, 2.0, rng) for _ in range(n)])
        scaled = gains / (wireless.PATHLOSS_REF * 100.0 ** -2)
        assert scaled.mean() == pytest.approx(1.0, abs=0.03)
        assert scaled.std() == pytest.approx(1.0, abs=0.05)

    def test_rejects_nonpositive_distance(self):
        for distance in (0.0, -1.0):
            with pytest.raises(ValueError):
                wireless.sample_channel(distance, 2.0, np.random.default_rng(0))

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
        g = 1e6 * N0 / P
        assert rate_at(1e6, g) == pytest.approx(1e6)

    def test_rate_monotone_and_concave_in_bandwidth(self):
        g = 1e-10
        ws = np.linspace(1e5, 1e8, 40)
        rates = np.array([rate_at(w, g) for w in ws])
        assert np.all(np.diff(rates) > 0)
        assert np.all(np.diff(rates, 2) < 0)

    def test_rate_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError, match="^bandwidth must be positive$"):
            rate_at(0.0, 1e-9)

    def test_transmission_ok_is_false_at_zero_rate(self):
        """No received power, no rate: the upload never arrives, and the
        check does not divide by the zero rate."""
        assert not wireless.transmission_ok(1, 1e6, 0.0, N0, 1e9)

    def test_transmission_ok_boundary_is_inclusive(self):
        g = 1e-10
        rate = rate_at(1e6, g)
        bits = 10_000
        tau_exact = bits / rate
        assert transmission_ok(bits, 1e6, g, tau_exact)
        assert not transmission_ok(bits, 1e6, g, tau_exact * (1 - 1e-9))
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError):
                transmission_ok(bits, 1e6, g, tau)


@settings(max_examples=40, deadline=None)
@given(
    w=st.floats(1e3, 1e8),
    gain_exp=st.floats(-12, -6),
    bits=st.integers(1, 10**7),
)
def test_delay_consistency(w, gain_exp, bits):
    gain = 10.0 ** gain_exp
    delay = bits / rate_at(w, gain)
    assert delay > 0
    assert transmission_ok(bits, w, gain, delay * (1 + 1e-9))
