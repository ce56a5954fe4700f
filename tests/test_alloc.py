import json
import math
from pathlib import Path

import numpy as np
import pytest

from fedsim import alloc, wireless
from fedsim.alloc import AllocProblem, AllocSolution

NOISE = 10 ** (-14.3) / 1e3  # -143 dBm/Hz in W/Hz
GOLDEN = Path(__file__).parent / "fixtures" / "alloc_golden.jsonl"


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
        with pytest.raises(ValueError):
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
        assert alloc.kkt_residual(p, bent, sol.dual_lambda) > 1e-3

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
        restored = AllocSolution.from_json(sol.to_json())
        np.testing.assert_allclose(restored.bandwidths, sol.bandwidths)
        np.testing.assert_array_equal(restored.bits_floored, sol.bits_floored)
        assert restored.dropped == sol.dropped
        assert restored.feasible == sol.feasible
        assert restored.iterations == sol.iterations > 0


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


# Illinois on the log price needs at most 15 prices on this family; bisection
# on the same bracket needs 35 to 46 to reach the stopping tolerance.
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
            obj_bf, _ = alloc.brute_force_alloc(p, grid)
            worst = max(worst, abs(sol.objective - obj_bf) / abs(obj_bf))
        assert worst < 1e-4

    def test_rejects_large_instances(self):
        p = make_problem([1e-6] * 5)
        with pytest.raises(ValueError):
            alloc.brute_force_alloc(p, 100)

    def test_single_device_oracle(self):
        p = make_problem([1e-6])
        obj, w = alloc.brute_force_alloc(p, 100)
        assert w[0] == p.w_total
        assert obj == pytest.approx(alloc.solve_alloc(p).objective, rel=1e-12)
