import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import quantizer as q
from fedsim.quantizer import QuantizedDelta


def rng(seed=0):
    return np.random.default_rng(seed)


class TestQuantizeDequantize:
    def test_degenerate_range_reproduces_exactly(self):
        z = np.array([0.5, 0.5, 0.5])
        out = q.dequantize(q.quantize(z, 2, rng=rng()))
        np.testing.assert_array_equal(out, z)

    def test_endpoints_reproduce_exactly(self):
        z = np.array([0.125, 0.875])
        for seed in range(10):
            out = q.dequantize(q.quantize(z, 3, rng=rng(seed)))
            np.testing.assert_array_equal(out, z)

    def test_two_point_distribution(self):
        # the bounds of [0, 0.3, 1] are [0, 1]; with B = 1 the middle element
        # is 0 w.p. 0.7 and 1 w.p. 0.3, and the endpoints are exact
        n = 100_000
        mean = q.empirical_mean_dequantized(np.array([0.0, 0.3, 1.0]), 1, n, rng(42))
        tol = 3 * np.sqrt(0.21 / n)
        assert abs(mean[1] - 0.3) <= tol
        assert mean[0] == 0.0 and mean[2] == 1.0

    def test_roundtrip_error_within_one_subinterval(self):
        z = rng(1).normal(size=200)
        delta = q.quantize(z, 16, rng=rng(2))
        step = (delta.upper_bounds[0] - delta.lower_bounds[0]) / (2**16 - 1)
        assert np.max(np.abs(q.dequantize(delta) - z)) <= step + 1e-15

    def test_requantize_is_idempotent(self):
        # dyadic magnitudes in [1/4, 1/4 + 15/16]: with B = 4 the grid step
        # is 1/16, so the endpoints and every level reproduce exactly and a
        # second pass sees the same bounds and lands on the same levels
        r = rng(3)
        mags = np.concatenate([[0.25, 1.1875], 0.25 + r.integers(0, 241, size=62) / 256])
        z = np.where(r.random(64) < 0.5, -mags, mags)
        first = q.quantize(z, 4, rng=rng(4))
        v = q.dequantize(first)
        assert np.abs(v).min() == 0.25 and np.abs(v).max() == 1.1875
        again = q.quantize(v, 4, rng=rng(5))
        np.testing.assert_array_equal(again.lower_bounds, first.lower_bounds)
        np.testing.assert_array_equal(again.upper_bounds, first.upper_bounds)
        np.testing.assert_array_equal(again.level_indices, first.level_indices)
        np.testing.assert_array_equal(q.dequantize(again), v)

    def test_magnitudes_outside_forced_bounds_land_on_end_levels(self):
        mags = np.array([0.05, 0.1, 0.5, 2.0, 7.5])
        k = 7
        lo, scale = q._level_grid(np.array([0.2]), np.array([1.0]), [mags.size], k)
        edges = [np.zeros(mags.size), np.full(mags.size, np.nextafter(1.0, 0.0))]
        for u in edges + [rng(seed).random(mags.size) for seed in range(5)]:
            levels = q._draw_levels(mags, lo, scale, k, u)
            np.testing.assert_array_equal(levels[[0, 1, 3, 4]], [0, 0, k, k])
            assert 0 <= levels[2] <= k

    def test_negative_values_keep_sign(self):
        z = np.array([-0.7, 0.7, -0.1, 0.1])
        out = q.dequantize(q.quantize(z, 8, rng=rng(6)))
        assert np.all(np.sign(out) == np.sign(z))

    def test_zero_levels_zero_lower_bound_gives_zero_vector(self):
        delta = QuantizedDelta(
            level_indices=np.zeros(4, dtype=np.int64),
            sign_bits=np.ones(4, dtype=np.int8),
            lower_bounds=np.array([0.0]), upper_bounds=np.array([1.0]),
            bits_per_element=2, group_boundaries=[(0, 4)])
        np.testing.assert_array_equal(q.dequantize(delta), np.zeros(4))

    def test_per_layer_groups_have_per_group_bounds(self):
        z = np.concatenate([np.full(3, 0.1), np.full(3, 5.0)])
        delta = q.quantize(z, 2, rng=rng(7), groups=[(0, 3), (3, 6)])
        np.testing.assert_array_equal(q.dequantize(delta), z)
        assert delta.lower_bounds.size == delta.upper_bounds.size == 2  # a bound pair per group

    def test_non_finite_input_names_index(self):
        z = np.array([0.0, np.nan, 1.0])
        with pytest.raises(ValueError, match="index 1"):
            q.quantize(z, 2, rng=rng())

    def test_rejects_empty_and_bad_bits(self):
        with pytest.raises(ValueError):
            q.quantize(np.array([]), 2, rng=rng())
        with pytest.raises(ValueError):
            q.quantize(np.array([1.0]), 0, rng=rng())
        with pytest.raises(ValueError, match=r"B must lie in \[1, 52\]"):
            q.quantize(np.array([1.0]), 53, rng=rng())

    def test_widest_bit_width_keeps_every_level_in_range(self):
        """At B = 52 every level index and grid position is exact in float64."""
        z = rng(9).normal(size=2000)
        delta = q.quantize(z, q.MAX_BITS, rng=rng(10))
        delta.validate()
        np.testing.assert_allclose(q.dequantize(delta), z, rtol=0, atol=1e-14 * np.abs(z).max())

    def test_determinism_same_seed(self):
        z = rng(8).normal(size=32)
        a = q.quantize(z, 3, rng=rng(99))
        b = q.quantize(z, 3, rng=rng(99))
        np.testing.assert_array_equal(a.level_indices, b.level_indices)
        np.testing.assert_array_equal(a.sign_bits, b.sign_bits)


class TestPayloadBits:
    def test_mnist_scale(self):
        assert q.payload_bits(199_210, 2, 384) == 598_014

    def test_small(self):
        assert q.payload_bits(100, 2, 64) == 364

    def test_cifar_scale(self):
        assert q.payload_bits(2_513_418, 2, 1152) == 7_541_406

    def test_rejects_bad_args(self):
        for d, B, mu in [(0, 2, 0), (1, 0, 0), (1, 1, -1)]:
            with pytest.raises(ValueError):
                q.payload_bits(d, B, mu)


class TestOmega:
    def test_goes_to_zero_with_bits(self):
        z = rng(13).normal(size=20)
        assert q.omega_bound(z, 30) < 1e-6
        assert q.omega_bound(z, 2) < q.omega_bound(z, 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            q.omega_bound(np.zeros(5), 2)
        with pytest.raises(ValueError):
            q.empirical_omega(np.zeros(5), 2, 10, rng())

    @pytest.mark.parametrize("probe", [q.empirical_omega, q.empirical_mean_dequantized])
    def test_probes_need_at_least_one_trial(self, probe):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            probe(np.ones(5), 2, 0, rng())

    def test_probes_take_a_single_trial(self):
        """One trial is one dequantized draw: its mean is the draw, and its
        relative error is the draw's."""
        z = rng(18).normal(size=6)
        draw = q.empirical_mean_dequantized(z, 2, 1, rng(19))
        assert np.all(np.sign(draw) == np.sign(z))
        assert np.all((np.abs(z).min() <= np.abs(draw)) & (np.abs(draw) <= np.abs(z).max()))
        assert q.empirical_omega(z, 2, 1, rng(19)) == pytest.approx(
            float((draw - z) @ (draw - z)) / float(z @ z), rel=1e-12)

    def test_empirical_bounded_by_omega(self):
        r = rng(14)
        z = r.uniform(-0.4, 0.4, size=100)
        assert q.empirical_omega(z, 2, 10_000, r) <= q.omega_bound(z, 2)

    def test_degenerate_magnitudes_give_zero_error(self):
        z = np.array([0.2, -0.2, 0.2])
        assert q.empirical_omega(z, 1, 100, rng(15)) == 0.0

    def test_high_bits_tiny_error(self):
        r = rng(16)
        z = r.normal(size=50)
        assert q.empirical_omega(z, 16, 200, r) < 1e-6

    def test_more_bits_less_error(self):
        r = rng(17)
        z = r.normal(size=50)
        assert q.empirical_omega(z, 4, 3000, r) < q.empirical_omega(z, 1, 3000, r)


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(st.floats(-10, 10), min_size=1, max_size=40),
    bits=st.integers(1, 8),
)
def test_level_indices_and_bounds_invariants(data, bits):
    z = np.asarray(data)
    delta = q.quantize(z, bits, rng=np.random.default_rng(0))
    assert delta.level_indices.min() >= 0
    assert delta.level_indices.max() <= 2**bits - 1
    assert np.all(delta.lower_bounds <= delta.upper_bounds)
    # what d(B+1) + mu counts: d levels of B bits, d signs, one bound pair
    assert delta.level_indices.size == delta.sign_bits.size == z.size
    assert delta.bits_per_element == bits
    assert delta.lower_bounds.size == delta.upper_bounds.size == 1
    delta.validate()


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.floats(-5, 5), min_size=2, max_size=20),
    bits=st.integers(1, 6),
)
def test_dequantized_magnitudes_stay_within_group_bounds(data, bits):
    z = np.asarray(data)
    delta = q.quantize(z, bits, rng=np.random.default_rng(1))
    mags = np.abs(q.dequantize(delta))
    assert np.all(mags >= delta.lower_bounds[0] - 1e-12)
    assert np.all(mags <= delta.upper_bounds[0] + 1e-12)
