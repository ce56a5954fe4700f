import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedsim import alloc, wireless
from fedsim.alloc import AllocProblem, AllocSolution
from oracles import brute_force_alloc, slope_oracle

NOISE = 10 ** (-14.3) / 1e3  # -143 dBm/Hz in W/Hz
GOLDEN = Path(__file__).parent / "fixtures" / "alloc_golden.jsonl"


def strict_json(constant: str):
    """``json.loads``'s ``parse_constant``: NaN and ±Infinity are not JSON."""
    raise ValueError(f"non-standard JSON constant {constant}")


def make_problem(gains, taus=None, w_total=1e8, alpha=0.5, d=10_000, mu=384,
                 b_lower=1):
    gains = np.asarray(gains, dtype=np.float64)
    if taus is None:
        taus = np.full(gains.size, 1e-3)
    return AllocProblem(gains=gains, taus=np.asarray(taus), w_total=w_total,
                        alpha=alpha, d=d, mu=mu, noise_psd=NOISE,
                        b_lower=b_lower)


def random_problem(rng, m=None, alpha=None):
    m = m if m is not None else int(rng.integers(2, 4))
    return make_problem(
        gains=rng.uniform(1e-8, 1e-5, size=m),
        taus=np.full(m, float(rng.uniform(5e-4, 2e-3))),
        alpha=alpha if alpha is not None else float(rng.choice([0.0, 0.5, 0.9])),
    )


class TestBitsOfBandwidth:
    def test_monotone_increasing_in_bandwidth(self):
        p = make_problem([1e-6])
        ws = np.linspace(1e5, 1e8, 30)
        bs = [alloc.b_of_w(w, p.gains[0], p.taus[0], p.d, p.mu, p.noise_psd)
              for w in ws]
        assert np.all(np.diff(bs) > 0)

    def test_hand_value(self):
        # engineered so tau * rate = 2*d + mu exactly => b = 1
        p = make_problem([1e-6], d=1000, mu=100)
        tau = 1.0
        target_rate = 2 * 1000 + 100
        # find w where rate equals target by bisection (independent of solver)
        lo, hi = 1.0, 1e8
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            r = mid * math.log2(1 + p.gains[0] / (mid * p.noise_psd))
            if r < target_rate:
                lo = mid
            else:
                hi = mid
        b = alloc.b_of_w(hi, p.gains[0], tau, 1000, 100, p.noise_psd)
        assert b == pytest.approx(1.0, abs=1e-6)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError, match="^bandwidth must be positive$"):
            alloc.b_of_w(0.0, 1e-6, 1e-3, 100, 10, NOISE)


class TestUtility:
    def test_alpha_zero_is_identity(self):
        assert alloc.utility(5.0, 0.0) == pytest.approx(5.0)

    def test_alpha_one_is_log(self):
        assert alloc.utility(math.e, 1.0) == pytest.approx(1.0)
        assert alloc.utility(0.0, 1.0) == -math.inf

    def test_general_alpha(self):
        assert alloc.utility(4.0, 0.5) == pytest.approx(2 * 2.0)
        assert alloc.utility(-1.0, 0.5) == -math.inf
        assert alloc.utility(0.0, 2.0) == -math.inf
        # 0.3^-999 is beyond the floats: the limit, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert alloc.utility(np.float64(0.3), 1000.0) == -math.inf


class TestProblemValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_problem([])
        with pytest.raises(ValueError):
            make_problem([-1e-6])
        with pytest.raises(ValueError):
            make_problem([1e-6], w_total=0.0)
        with pytest.raises(ValueError):
            make_problem([1e-6], alpha=-0.1)
        with pytest.raises(ValueError):
            make_problem([1e-6], b_lower=0)
        with pytest.raises(ValueError):
            make_problem([1e-6, math.nan])
        with pytest.raises(ValueError):
            make_problem([1e-6], w_total=math.inf)
        with pytest.raises(ValueError):
            make_problem([1e-6, 2e-6], taus=[1e-3])
        with pytest.raises(TypeError):
            make_problem([1e-6], alpha=None)
        with pytest.raises(TypeError):
            make_problem([1e-6], alpha="0.5")

    def test_json_roundtrip(self):
        p = make_problem([1e-6, 3e-7], alpha=0.9)
        restored = AllocProblem.from_json(p.to_json())
        np.testing.assert_array_equal(restored.gains, p.gains)
        np.testing.assert_array_equal(restored.taus, p.taus)
        assert restored.alpha == p.alpha and restored.d == p.d


class TestSolve:
    def test_single_device_gets_whole_budget(self):
        p = make_problem([1e-6])
        sol = alloc.solve_alloc(p)
        assert sol.feasible
        assert sol.bandwidths[0] == pytest.approx(p.w_total)
        expected_bits = alloc.b_of_w(p.w_total, p.gains[0], p.taus[0],
                                     p.d, p.mu, p.noise_psd)
        assert sol.bits_continuous[0] == pytest.approx(expected_bits)
        assert sol.bits_floored[0] == int(expected_bits)
        assert sol.iterations == 1  # one price, the marginal at the whole budget
        assert sol.kkt_residual <= 1e-12

    def test_symmetric_devices_split_evenly(self):
        p = make_problem([1e-6, 1e-6])
        sol = alloc.solve_alloc(p)
        assert sol.bandwidths[0] == pytest.approx(sol.bandwidths[1],
                                                  rel=1e-6)
        assert sol.bandwidths.sum() == pytest.approx(p.w_total)

    def test_budget_fully_spent(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_problem(rng)
            sol = alloc.solve_alloc(p)
            if sol.feasible:
                kept = [i for i in range(p.num_devices)
                        if sol.bandwidths[i] > 0]
                assert sum(sol.bandwidths[i] for i in kept) == pytest.approx(
                    p.w_total, rel=1e-12)

    def test_kkt_residual_small_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            sol = alloc.solve_alloc(random_problem(rng))
            if sol.feasible:
                assert sol.kkt_residual <= 1e-6

    def test_kkt_residual_detects_perturbation(self):
        p = make_problem([1e-6, 4e-7, 2e-7])
        sol = alloc.solve_alloc(p)
        assert sol.kkt_residual <= 1e-6
        bent = sol.bandwidths.copy()
        shift = 0.05 * bent[0]
        bent[0] -= shift
        bent[1] += shift
        assert not sol.dropped
        kept = list(range(p.num_devices))
        floors = [alloc._w_zero(p, i) for i in kept]
        log_lam = sol.log_price
        assert alloc.kkt_residual(p, sol.bandwidths, log_lam, kept, floors) <= 1e-6
        assert alloc.kkt_residual(p, bent, log_lam, kept, floors) > 1e-3

    def test_objective_increases_with_budget(self):
        rng = np.random.default_rng(2)
        gains = rng.uniform(1e-7, 1e-6, size=3)
        objs = []
        for w_total in (2e7, 5e7, 1e8, 2e8):
            sol = alloc.solve_alloc(make_problem(gains, w_total=w_total))
            assert sol.feasible
            objs.append(sol.objective)
        assert np.all(np.diff(objs) > 0)

    def test_higher_alpha_is_more_egalitarian(self):
        gains = np.array([5e-6, 5e-8])  # strong vs weak device
        min_bits = []
        for a in (0.0, 0.5, 0.9):
            sol = alloc.solve_alloc(make_problem(gains, alpha=a))
            min_bits.append(sol.bits_continuous.min())
        assert min_bits[0] <= min_bits[1] <= min_bits[2]
        assert min_bits[2] > min_bits[0]

    def test_stronger_gain_never_fewer_continuous_bits_at_equal_tau(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = np.sort(rng.uniform(1e-8, 1e-5, size=3))
            sol = alloc.solve_alloc(make_problem(g, alpha=0.5))
            if sol.feasible and not sol.dropped:
                assert np.all(np.diff(sol.bits_continuous) >= -1e-6)

    def test_hopeless_device_is_pre_dropped(self):
        # second device cannot reach positive bits even with the whole budget
        p = make_problem([1e-6, 1e-16])
        sol = alloc.solve_alloc(p)
        assert 1 in sol.dropped
        assert sol.bandwidths[1] == 0.0
        assert sol.bits_floored[1] == 0
        assert sol.feasible
        assert sol.bandwidths[0] == pytest.approx(p.w_total)

    def test_all_devices_hopeless_is_infeasible(self):
        sol = alloc.solve_alloc(make_problem([1e-16, 1e-16]))
        assert not sol.feasible
        assert sol.dropped == {0, 1}

    def test_solution_json_roundtrip(self):
        sol = alloc.solve_alloc(make_problem([1e-6, 2e-7]))
        restored = json.loads(sol.to_json(), parse_constant=strict_json)
        np.testing.assert_allclose(restored["bandwidths"], sol.bandwidths)
        np.testing.assert_allclose(restored["bits_continuous"], sol.bits_continuous)
        np.testing.assert_array_equal(restored["bits_floored"], sol.bits_floored)
        assert set(restored["dropped"]) == sol.dropped
        assert restored["log_price"] == sol.log_price
        assert restored["kkt_residual"] == sol.kkt_residual
        assert restored["objective"] == sol.objective
        assert restored["feasible"] == sol.feasible
        assert restored["iterations"] == sol.iterations > 0

    def test_all_dropped_solution_json_is_standard(self):
        """With every device dropped, the log price and the objective are
        -inf, which standard JSON cannot hold; they are written as null."""
        sol = alloc.solve_alloc(make_problem([1e-20, 2e-20], w_total=1e6))
        assert sol.log_price == sol.objective == -math.inf
        restored = json.loads(sol.to_json(), parse_constant=strict_json)
        assert restored["log_price"] is None and restored["objective"] is None
        assert restored["dropped"] == [0, 1] and restored["feasible"] is False
        assert restored["kkt_residual"] == sol.kkt_residual


class TestFloorAndDrop:
    def test_flooring_and_bit_floor_dropping(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = random_problem(rng)
            sol = alloc.solve_alloc(p)
            if not sol.feasible:
                continue
            for i in range(p.num_devices):
                if i in sol.dropped:
                    assert sol.bits_floored[i] == 0
                else:
                    assert sol.bits_floored[i] == int(sol.bits_continuous[i])
                    assert sol.bits_floored[i] >= p.b_lower

    def test_devices_below_custom_floor_are_dropped(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, m=3)
        lo = alloc.solve_alloc(p)
        strict = alloc.solve_alloc(make_problem(
            p.gains, taus=p.taus, alpha=p.alpha, b_lower=30))
        assert strict.dropped >= lo.dropped
        for i in range(3):
            if i not in strict.dropped:
                assert strict.bits_floored[i] >= 30

    def test_floored_payload_respects_delay(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            p = random_problem(rng)
            sol = alloc.solve_alloc(p)
            if not sol.feasible:
                continue
            for i in range(p.num_devices):
                if i in sol.dropped:
                    continue
                payload = p.d * (int(sol.bits_floored[i]) + 1) + p.mu
                rate = sol.bandwidths[i] * math.log2(
                    1 + p.gains[i] / (sol.bandwidths[i] * p.noise_psd))
                assert payload <= p.taus[i] * rate * (1 + 1e-9)

    def test_delay_recheck_failure_is_allocation_error(self):
        p = make_problem([1e-6])
        sol = AllocSolution(bandwidths=np.array([1e3]),
                            bits_continuous=np.array([50.0]),
                            bits_floored=np.zeros(1, dtype=np.int64))
        with pytest.raises(alloc.AllocationError):
            alloc.floor_and_drop(p, sol)


class TestGolden:
    def test_reproduces_recorded_solves(self):
        """Every solve of configs/wireless_fedqvr_e.json at seed 0 and of
        acceptance criterion 11's fedqvr_e runs (seeds 0-2; seed 0 poses the
        same problems as the shipped config), recorded from the solver that
        preceded the Newton/Illinois one. The integer outcome must match
        exactly, the bandwidths to 1e-6 relative."""
        records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
        assert len(records) == 450
        for n, rec in enumerate(records):
            sol = alloc.solve_alloc(AllocProblem.from_json(json.dumps(rec["problem"])))
            where = f"record {n} ({rec['source']})"
            assert sol.bits_floored.tolist() == rec["bits_floored"], where
            assert sorted(sol.dropped) == rec["dropped"], where
            np.testing.assert_allclose(sol.bandwidths, rec["bandwidths"],
                                       rtol=1e-6, atol=0, err_msg=where)

    def test_prices_per_solve(self):
        """Newton on the log price tries 4.43 prices per golden solve and at
        most 6; the Illinois iteration it replaced tried 9.33 and at most 10."""
        prices = [alloc.solve_alloc(AllocProblem.from_json(json.dumps(json.loads(line)["problem"])))
                  .iterations for line in GOLDEN.read_text().splitlines()]
        assert np.mean(prices) <= 6
        assert max(prices) <= 7

    def test_newton_evaluations_per_floor(self, monkeypatch):
        """The zero-bit floors of the golden solves' 2,188 kept devices take
        3.20 Newton evaluations each from the Lambert W start; Newton on b(w)
        from a start proved left of the root took 6.17."""
        evaluations = 0
        newton = alloc._newton

        def counted(fn, *args):
            def fn_counted(u):
                nonlocal evaluations
                evaluations += 1
                return fn(u)
            return newton(fn_counted, *args)

        monkeypatch.setattr(alloc, "_newton", counted)
        floors = 0
        for line in GOLDEN.read_text().splitlines():
            p = AllocProblem.from_json(json.dumps(json.loads(line)["problem"]))
            for i in range(p.num_devices):
                if alloc.b_of_w(p.w_total, p.gains[i], p.taus[i], p.d, p.mu, p.noise_psd) > 0:
                    alloc._w_zero(p, i)
                    floors += 1
        assert floors == 2188
        assert evaluations <= 4 * floors


# Newton on the log price needs at most 9 prices on this family (m = 500,
# alpha = 0, where devices reach their floors one price after another), and
# the Illinois iteration it replaced at most 15; bisection on the same bracket
# needs 35 to 46 to reach the stopping tolerance.
MAX_PRICES = 20


@pytest.mark.parametrize("m", [2, 5, 50, 500])
def test_solver_beyond_oracle_sizes(m):
    """KKT, budget and delay conformance where the grid oracle cannot go:
    criterion 08's gain family, with the budget scaled to the cohort."""
    rng = np.random.default_rng(m)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        for _ in range(3):
            p = AllocProblem(
                gains=rng.uniform(1e-10, 1e-4, size=m),
                taus=rng.uniform(1e-4, 5e-3, size=m),
                w_total=m * float(rng.uniform(2e6, 4e7)), alpha=alpha,
                d=int(rng.integers(1_000, 50_000)), mu=384, noise_psd=NOISE,
                b_lower=int(rng.integers(1, 4)))
            sol = alloc.solve_alloc(p)
            assert sol.feasible
            assert sol.kkt_residual <= 1e-6
            assert sol.iterations <= MAX_PRICES
            used = sol.bandwidths[sol.bandwidths > 0].sum()
            assert abs(used - p.w_total) <= 1e-12 * p.w_total
            for i in range(m):
                if i in sol.dropped:
                    continue
                payload = p.d * (int(sol.bits_floored[i]) + 1) + p.mu
                rate = wireless.rate_bps(sol.bandwidths[i], p.gains[i], p.noise_psd)
                assert payload <= p.taus[i] * rate * (1 + 1e-12)


def probe_problem(log_gains, w_total, alpha, k=1.0):
    """A small payload that stays affordable at any bandwidth, so that the
    solve reaches tiny x = P/(w N0): tau = 10 ms, N0 = 5e-18 W/Hz, d = 105,
    mu = 128. ``k`` scales (w_total, noise_psd, taus) by (1/k, k, k), which
    leaves every x and every bit count unchanged."""
    m = len(log_gains)
    return AllocProblem(gains=10.0 ** np.asarray(log_gains), taus=np.full(m, 1e-2 * k),
                        w_total=w_total / k, alpha=alpha, d=105, mu=128,
                        noise_psd=5e-18 * k)


_CUTOFF = alloc._SERIES_CUTOFF


@settings(max_examples=400, deadline=None)
@given(x=st.floats(-150, 6).map(lambda e: 10.0 ** e))
@example(x=math.nextafter(_CUTOFF, 0.0))
@example(x=_CUTOFF)
@example(x=math.nextafter(_CUTOFF, 1.0))
@example(x=1e-150)
def test_slope_matches_the_exact_oracle(x):
    """Both branches, the series below the cutoff and log1p(x) - x/(1+x)
    above it, agree with a decimal evaluation to 1e-14 relative."""
    assert alloc._slope(x) == pytest.approx(slope_oracle(x), rel=1e-14, abs=0)


_LOG_GAINS = st.lists(st.floats(-11, -7), min_size=1, max_size=5)
_ALPHAS = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@settings(max_examples=150, deadline=None)
@given(log_gains=_LOG_GAINS, log_w=st.floats(3, 30), alpha=_ALPHAS)
@example(log_gains=[-9, math.log10(2e-10), math.log10(5e-10)], log_w=30.0, alpha=0.5)
def test_kkt_holds_at_every_bandwidth(log_gains, log_w, alpha):
    """Stationarity to 1e-6 within the usual number of prices, from 1 kHz
    to 1e30 Hz, where x falls to about 1e-24."""
    sol = alloc.solve_alloc(probe_problem(log_gains, 10.0 ** log_w, alpha))
    if sol.feasible:
        assert sol.kkt_residual <= 1e-6
        assert 1 <= sol.iterations <= MAX_PRICES


@settings(max_examples=100, deadline=None)
@given(log_gains=_LOG_GAINS, log_w=st.floats(3, 150))
@example(log_gains=[-6], log_w=79.0)
def test_zero_bit_floor_is_the_root_at_any_bandwidth(log_gains, log_w):
    """The floor is the float where b(w) turns non-negative, to one ulp, and
    it does not move when the budget grows tenfold."""
    p = probe_problem(log_gains, 10.0 ** log_w, 0.5)
    wider = probe_problem(log_gains, 10.0 ** (log_w + 1), 0.5)
    for i in range(p.num_devices):
        def b(w):
            return alloc.b_of_w(w, p.gains[i], p.taus[i], p.d, p.mu, p.noise_psd)
        if b(p.w_total) > 0.0:
            w0 = alloc._w_zero(p, i)
            assert b(w0) >= 0.0 > b(math.nextafter(w0, 0.0))
            assert alloc._w_zero(wider, i) == w0


def test_newton_out_of_steps_is_allocation_error():
    """A sign change with no root in the floats: the bracket closes on 1.0
    but no step falls below the tolerance, so the steps run out."""
    with pytest.raises(alloc.AllocationError, match="^numerical breakdown: Newton"):
        alloc._newton(lambda w: (-1.0 if w < 1.0 else 1.0, 1.0), 0.5, 0.0, 2.0)


def test_zero_bit_floor_walks_a_bounded_number_of_ulps(monkeypatch):
    """A Newton root a million ulps off b(w) = 0, on either side, fails the
    solve instead of being walked one ulp at a time."""
    newton = alloc._newton
    for side in (-1.0, 1.0):
        def off(*args):
            u, df = newton(*args)
            return u + side * 1e6 * math.ulp(u), df

        monkeypatch.setattr(alloc, "_newton", off)
        with pytest.raises(alloc.AllocationError,
                           match="^numerical breakdown: b\\(w\\) = 0 not within 64 ulps"):
            alloc._w_zero(make_problem([1e-6]), 0)


def edge_problem(c, log_noise):
    """One device whose c = (d+mu) ln2 N0/(tau P) is ``c``, up to rounding,
    at noise PSD 10**log_noise, with a budget of 1e300 Hz."""
    noise_psd, tau, d, mu = 10.0 ** log_noise, 1e-2, 105, 128
    gain = (d + mu) * math.log(2.0) / tau * noise_psd / c
    return AllocProblem(gains=[gain], taus=[tau], w_total=1e300, alpha=0.5, d=d, mu=mu,
                        noise_psd=noise_psd)


@settings(max_examples=150, deadline=None)
@given(c=st.one_of(st.integers(1, 2**20).map(lambda k: 1.0 - k * 2.0 ** -53),
                   st.floats(-320, -100).map(lambda e: 10.0 ** e)),
       log_noise=st.floats(-300, -1))
@example(c=1.0 - 2.0 ** -53, log_noise=-17.3)  # b(w_total) barely positive
@example(c=1e-153, log_noise=-17.3)            # 1/c^2 = 1e306
@example(c=1e-154, log_noise=-17.3)            # 1/c^2 beyond the normal floats' reciprocals
@example(c=1e-310, log_noise=-300.0)           # P/N0 = 1.6e314
def test_zero_bit_floor_at_the_edges(c, log_noise):
    """With c within ulps of 1, with a tiny c, or with P/N0 beyond the float
    range, a kept device gets a floor with b >= 0 there or one
    AllocationError, never another exception."""
    try:
        p = edge_problem(c, log_noise)
    except ValueError:  # a gain beyond the float range
        return
    def b(w):
        return alloc.b_of_w(w, p.gains[0], p.taus[0], p.d, p.mu, p.noise_psd)
    if not b(p.w_total) > 0.0:
        return
    try:
        w0 = alloc._w_zero(p, 0)
    except alloc.AllocationError as e:
        assert str(e).startswith("numerical breakdown: ")
        return
    assert 0.0 < w0 <= p.w_total and b(w0) >= 0.0


@settings(max_examples=100, deadline=None)
@given(log_gains=_LOG_GAINS, log_w=st.floats(3, 30), alpha=_ALPHAS,
       log_k=st.floats(-20, 20))
def test_scaling_bandwidth_noise_and_delay_scales_only_the_bandwidths(
        log_gains, log_w, alpha, log_k):
    k = 10.0 ** log_k
    base = alloc.solve_alloc(probe_problem(log_gains, 10.0 ** log_w, alpha))
    scaled = alloc.solve_alloc(probe_problem(log_gains, 10.0 ** log_w, alpha, k))
    assert scaled.bits_floored.tolist() == base.bits_floored.tolist()
    assert scaled.dropped == base.dropped
    np.testing.assert_allclose(scaled.bandwidths * k, base.bandwidths, rtol=1e-9, atol=0)


@pytest.mark.parametrize("w_total", [1e160, 1e170, 1e200, 1e308])
def test_slope_beyond_the_float_range_is_allocation_error(w_total):
    """At 1e160 Hz b'(w) leaves the normal floats, from 1e170 Hz the slope
    itself; either is one AllocationError, not a division by zero."""
    with pytest.raises(alloc.AllocationError, match="^numerical breakdown: "):
        alloc.solve_alloc(probe_problem([-9, -9.7, -9.3], w_total, 0.5))


def first_price_and_bracket(p):
    """The price search's first price, where the slices linearised at their
    equal-spare points sum to the budget, and its bracket, for a problem
    that keeps every device."""
    devs = [(p.gains[i], p.noise_psd, p.taus[i], p.d, p.mu, p.alpha)
            for i in range(p.num_devices)]
    floors = [alloc._w_zero(p, i) for i in range(p.num_devices)]
    spare = (p.w_total - sum(floors)) / p.num_devices
    at_spare = [alloc._log_marginal(f + spare, *dev) for f, dev in zip(floors, devs)]
    at_cap = [alloc._log_marginal(p.w_total - sum(floors) + f, *dev)[0]
              for f, dev in zip(floors, devs)]
    at_floor = [alloc._log_marginal(f, *dev)[0] if p.alpha == 0.0 else math.inf
                for f, dev in zip(floors, devs)]
    first = (sum(val / dval for val, dval in at_spare)
             / sum(1.0 / dval for _, dval in at_spare))
    levels = [val for val, _ in at_spare]
    return first, max(min(levels), max(at_cap)), min(max(levels), max(at_floor))


def assert_solved(p, sol):
    assert sol.feasible
    assert sol.kkt_residual <= 1e-6
    used = sol.bandwidths[sol.bandwidths > 0].sum()
    assert abs(used - p.w_total) <= 1e-12 * p.w_total


def test_first_price_outside_the_bracket():
    """The slices linearised at their equal-spare points spend the budget at
    a price below the bracket, so the search starts from its low end."""
    p = make_problem([1e-10, 4e-6], w_total=1e9, alpha=1.0)
    first, t_lo, t_hi = first_price_and_bracket(p)
    assert first < t_lo < t_hi
    sol = alloc.solve_alloc(p)
    assert not sol.dropped
    assert_solved(p, sol)
    assert sol.iterations <= MAX_PRICES


def test_every_kept_device_pinned():
    """alpha = 0: the strong device's marginal at its cap is above the weak
    one's at its floor. At the price where the strong slice leaves its cap the
    weak one holds its floor, so every kept slice sits at a bound, and below
    that price the excess has no slope. The weak device's zero bits then drop
    it.

    The objective counts the weak device at its floor as zero bits, so it is
    the strong device's continuous bits alone (about 139.9). That kills the
    ``objective_value`` mutant ``max(b, 0.0)`` -> ``max(b, 1.0)``, which adds
    one bit for the floored device."""
    p = make_problem([1e-5, 1e-9], alpha=0.0)
    sol = alloc.solve_alloc(p)
    floor = alloc._w_zero(p, 1)
    np.testing.assert_allclose(sol.bandwidths, [p.w_total - floor, floor], rtol=1e-12, atol=0)
    assert sol.dropped == {1}
    assert_solved(p, sol)
    strong_bits = alloc.b_of_w(sol.bandwidths[0], p.gains[0], p.taus[0], p.d, p.mu, p.noise_psd)
    assert sol.objective == pytest.approx(strong_bits, rel=1e-12)
    # the price is the strong device's marginal at its cap, an end of the bracket
    assert sol.iterations == 1


@pytest.mark.parametrize("alpha", [300.0, 1000.0])
def test_kkt_residual_when_the_price_underflows(alpha):
    """At alpha = 1000 the price exp(t) is below the smallest float; the
    residual is formed from the log price t, so it stays measured."""
    p = AllocProblem(gains=np.array([1e-9, 2e-9, 5e-9]), taus=np.full(3, 4e-6), w_total=1e8,
                     alpha=alpha, d=105, mu=128, noise_psd=5e-18)
    sol = alloc.solve_alloc(p)
    assert (math.exp(sol.log_price) == 0.0) == (alpha == 1000.0)
    assert sol.bits_floored.tolist() == [2, 2, 2]
    assert_solved(p, sol)


def test_price_finer_than_a_float_ulp():
    """At alpha = 1000 and 2e20 Hz one ulp of the log price moves the large
    slice by more than the stopping tolerance; the search stops once a Newton
    step rounds to no move, and the slack goes to that slice."""
    p = AllocProblem(gains=np.array([3.6e-6, 7e-6]), taus=np.full(2, 1.8e-3), w_total=2e20,
                     alpha=1000.0, d=10_000, mu=384, noise_psd=NOISE)
    sol = alloc.solve_alloc(p)
    assert not sol.dropped
    assert_solved(p, sol)
    assert sol.iterations <= MAX_PRICES


@pytest.mark.parametrize("alpha", [0.0, 1000.0])
def test_prices_when_a_slice_sits_at_its_bound(alpha):
    """Slices that sit at a cap or a floor add to the excess's slope only at
    that bound's own price. Counting them at every price (the mutant
    ``t == refs[j]`` -> ``t != refs[j]`` in ``_price_search``) makes Newton
    step too short: up to 26 and 27 prices on this family at alpha = 0 and
    1000, and over 20 on 1 and 27 of its 100 problems; the search takes at
    most 6 at either alpha."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(2, 8))
        p = AllocProblem(gains=rng.uniform(1e-10, 1e-8, size=m), taus=np.full(m, 4e-6),
                         w_total=10.0 ** rng.uniform(7, 22), alpha=alpha, d=105, mu=128,
                         noise_psd=5e-18)
        assert alloc.solve_alloc(p).iterations <= MAX_PRICES


class TestBruteForceOracle:
    def test_matches_solver_on_random_instances(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(8):
            p = random_problem(rng)
            sol = alloc.solve_alloc(p)
            if not sol.feasible or sol.dropped:
                continue
            grid = 2000 if p.num_devices == 2 else 2500
            obj_bf, _ = brute_force_alloc(p, grid)
            worst = max(worst, abs(sol.objective - obj_bf) / abs(obj_bf))
        assert worst < 1e-4

    def test_rejects_large_instances(self):
        p = make_problem([1e-6] * 5)
        with pytest.raises(ValueError):
            brute_force_alloc(p, 100)

    def test_single_device_oracle(self):
        p = make_problem([1e-6])
        obj, w = brute_force_alloc(p, 100)
        assert w[0] == p.w_total
        assert obj == pytest.approx(alloc.solve_alloc(p).objective, rel=1e-12)
