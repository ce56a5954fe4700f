import copy
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import fed, harness, learner, quantizer, verify
from fedsim.fed import RoundPlan, ServerState
from fedsim.learner import LOGISTIC, MLP, ModelSpec
from oracles import client_rng, client_rngs, local_update, server_aggregate, stochastic_grad

SPEC = ModelSpec(kind=LOGISTIC, input_dim=5, num_classes=3)


MLP_SPEC = ModelSpec(kind=MLP, input_dim=5, num_classes=3, hidden_dim=4)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def make_clients(n_clients, seed=0, n_samples=30, spec=SPEC):
    rng = np.random.default_rng(seed)
    datasets = [(rng.normal(size=(n_samples, spec.input_dim)),
                 rng.integers(0, spec.num_classes, size=n_samples))
                for _ in range(n_clients)]
    return np.full(n_clients, 1.0 / n_clients), np.zeros((n_clients, spec.dim)), datasets


def fresh_server(seed=0, spec=SPEC):
    return ServerState(theta=learner.init_params(spec, np.random.default_rng(seed)), c=np.zeros(spec.dim))


def uniform_plan(active, E=2, bits=2, **kw):
    return RoundPlan(active_set=list(active),
                     local_epochs={c: E for c in active},
                     bits={c: bits for c in active},
                     batch_size=10, eta=0.01, **kw)


def uneven_plans(spec, rounds=4, **kw):
    """Rounds of 5 of 8 clients with HLU epochs 1..5, bit widths 1..4 and
    about a third of the uploads lost; every kind occurs at least once."""
    rng = np.random.default_rng(spec.dim)
    plans = []
    for _ in range(rounds):
        active = fed.sample_clients(8, 5, rng)
        plans.append(RoundPlan(
            active_set=active,
            local_epochs={c: int(rng.integers(1, 6)) for c in active},
            bits={c: int(rng.integers(1, 5)) for c in active},
            batch_size=10, eta=0.05,
            failed=frozenset(c for c in active if rng.random() < 0.35), **kw))
    assert any(p.failed for p in plans)
    assert all(len(set(p.local_epochs.values())) > 1 for p in plans)
    assert all(len(set(p.bits.values())) > 1 for p in plans)
    return plans


def reference_fedqvr_round(spec, server, p, C, datasets, plan, seed, r):
    """Single-client reference of round ``r``: ``local_update`` and the
    quantized upload per client, run concurrently in reverse order, then
    ``server_aggregate``."""
    theta0 = fed.broadcast_point(server, plan.gamma)
    groups = spec.layer_groups()

    def one_client(cid):
        rng = client_rng(seed, r, cid)
        E = plan.local_epochs[cid]
        theta, _ = local_update(
            spec, theta0, C[cid], *datasets[cid], E,
            plan.batch_size, plan.eta, plan.gamma, rng)
        q = quantizer.quantize(theta - theta0, plan.bits[cid], rng=rng, groups=groups)
        delta_hat = quantizer.dequantize(q)
        step_scale = plan.a / (plan.eta * fed.e_tilde(plan.gamma, plan.eta, E))
        # d(B+1) + mu counted off the delta the quantizer built
        bits = quantizer.payload_bits(q.level_indices.size, q.bits_per_element,
                                      quantizer.side_bits(len(q.group_boundaries)))
        return cid, delta_hat, step_scale, bits

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(one_client, reversed(plan.active_set)))
    delivered = sorted(r for r in results if r[0] not in plan.failed)
    new_server = server_aggregate(
        server, theta0, [(cid, dh, scale, p[cid]) for cid, dh, scale, _ in delivered],
        len(plan.active_set), len(p))
    for cid, delta_hat, step_scale, _ in delivered:
        C[cid] = C[cid] - step_scale * delta_hat
    return (new_server, sum(bits for *_, bits in delivered),
            [cid for cid, *_ in delivered])


def reference_scaffold_round(spec, server, C, datasets, plan, seed, r, eta_g):
    """Straight per-client loop of SCAFFOLD round ``r``."""
    eta = plan.eta
    results, logs = [], {}
    for cid in plan.active_set:
        rng = client_rng(seed, r, cid)
        E = plan.local_epochs[cid]
        theta = server.theta.copy()
        grads = []
        for _ in range(E):
            g = stochastic_grad(spec, theta, *datasets[cid], plan.batch_size, rng)
            grads.append(g)
            theta -= eta * (g + server.c - C[cid])
        c_i_new = C[cid] - server.c + (server.theta - theta) / (E * eta)
        if cid not in plan.failed:
            results.append((cid, theta, c_i_new))
            logs[cid] = grads
    results.sort()
    theta_new, c_new = server.theta.copy(), server.c.copy()
    if results:
        mean_theta = np.mean([t for _, t, _ in results], axis=0)
        theta_new = server.theta + eta_g * (mean_theta - server.theta)
        for cid, _, c_i_new in results:
            c_new += (c_i_new - C[cid]) / len(C)
        for cid, _, c_i_new in results:
            C[cid] = c_i_new
    return ServerState(theta=theta_new, c=c_new), logs


def reference_fedavg_round(spec, server, datasets, plan, seed, r):
    """Straight per-client loop of FedAvg round ``r``."""
    models = []
    for cid in plan.active_set:
        rng = client_rng(seed, r, cid)
        theta = server.theta.copy()
        for _ in range(plan.local_epochs[cid]):
            theta -= plan.eta * stochastic_grad(
                spec, theta, *datasets[cid], plan.batch_size, rng)
        if cid not in plan.failed:
            models.append((cid, theta))
    models.sort(key=lambda t: t[0])
    theta_new = (np.mean([t for _, t in models], axis=0) if models
                 else server.theta.copy())
    return ServerState(theta=theta_new, c=server.c.copy()), [cid for cid, _ in models]


def reference_round(algo, spec, server, p, C, datasets, plan, seed, r):
    """The new server state after round ``r`` from ``algo``'s reference helper
    above, which updates the rows of ``C`` as the round engine would."""
    if algo is fed.FEDQVR:
        return reference_fedqvr_round(spec, server, p, C, datasets, plan, seed, r)[0]
    if algo is fed.SCAFFOLD:
        return reference_scaffold_round(spec, server, C, datasets, plan, seed, r,
                                        plan.eta_g)[0]
    return reference_fedavg_round(spec, server, datasets, plan, seed, r)[0]


def assert_same_state(server, C, ref_server, ref_C):
    np.testing.assert_array_equal(server.theta, ref_server.theta)
    np.testing.assert_array_equal(server.c, ref_server.c)
    np.testing.assert_array_equal(C, ref_C)


class TestPrimitives:
    def test_broadcast_point(self):
        s = ServerState(theta=np.array([1.0, 2.0]), c=np.array([0.3, -0.6]))
        np.testing.assert_allclose(fed.broadcast_point(s, 0.3),
                                   [0.0, 4.0])
        with pytest.raises(ValueError):
            fed.broadcast_point(s, 0.0)

    def test_e_tilde_closed_form_matches_geometric_sum(self):
        for gamma, eta, E in [(0.3, 0.01, 2), (1.0, 0.1, 5), (0.3, 0.01, 17)]:
            direct = sum((1.0 + gamma * eta) ** (-(t + 1)) for t in range(E))
            assert fed.e_tilde(gamma, eta, E) == pytest.approx(direct, rel=1e-12)

    def test_e_tilde_default_operating_point(self):
        assert fed.e_tilde(0.3, 0.01, 2) == pytest.approx(1.9910, abs=5e-5)

    def test_e_tilde_limits(self):
        assert fed.e_tilde(1e-6, 1e-3, 7) == pytest.approx(7.0, rel=1e-6)
        assert fed.e_tilde(100.0, 1.0, 50) == pytest.approx(1.0 / 100.0, rel=1e-3)

    def test_b_weights_sum_equals_e_tilde(self):
        b = fed.b_weights(0.3, 0.01, 6)
        assert b.sum() == pytest.approx(fed.e_tilde(0.3, 0.01, 6), rel=1e-12)
        assert np.all(np.diff(b) > 0)  # later steps weigh more
        assert b[-1] == pytest.approx(1.0 / 1.003)

    def test_sample_clients_is_uniform_without_replacement(self):
        counts = np.zeros(10)
        rng = np.random.default_rng(0)
        for _ in range(2000):
            ids = fed.sample_clients(10, 4, rng)
            assert len(set(ids)) == 4
            counts[ids] += 1
        freq = counts / 2000
        np.testing.assert_allclose(freq, 0.4, atol=0.05)
        with pytest.raises(ValueError):
            fed.sample_clients(5, 6, rng)


class TestLocalUpdate:
    """FedQVR's local update as the round engine takes it (``fed._local_phase``
    with ``fed.FEDQVR.stepper``, via ``verify.fedqvr_steps``), and the guard
    of the single-client reference in ``oracles``."""

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, SPEC.input_dim))
        y = rng.integers(0, SPEC.num_classes, size=40)
        theta0 = learner.init_params(SPEC, np.random.default_rng(1))
        c_i = 0.01 * rng.normal(size=SPEC.dim)
        eta, gamma, E = 0.05, 0.4, 3
        theta_new, logs = verify.fedqvr_steps(
            SPEC, theta0, c_i, X, y, E, 8, eta, gamma, np.random.default_rng(42))
        # replay the recursion directly from the logged gradients
        ge = gamma * eta
        theta = theta0.copy()
        for g in logs:
            theta = (theta - eta * (g - c_i)) / (1 + ge) + ge / (1 + ge) * theta0
        np.testing.assert_allclose(theta_new, theta, atol=1e-14)

    def test_closed_form_weighted_average(self):
        """``verify``'s closed-form check at one more point: gamma*eta = 0.01, E = 4."""
        ok, detail = verify.check_closed_form_update(seed=2, gamma_etas=(0.01,), epochs=(4,))
        assert ok, detail

    def test_rejects_zero_epochs(self):
        X = np.zeros((4, SPEC.input_dim))
        y = np.zeros(4, dtype=int)
        with pytest.raises(ValueError):
            local_update(SPEC, np.zeros(SPEC.dim), np.zeros(SPEC.dim),
                         X, y, 0, 2, 0.01, 0.3, np.random.default_rng(0))

    def test_divergence_raises(self):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(4, SPEC.input_dim))
        y = np.array([0, 1, 2, 0])
        with pytest.raises(FloatingPointError, match="diverged"):
            verify.fedqvr_steps(SPEC, np.ones(SPEC.dim), np.zeros(SPEC.dim),
                                X, y, 5, 2, 1e308, 1e-315, np.random.default_rng(0))


class TestClientFinish:
    def test_control_variate_moves_by_quantized_delta(self):
        rng = np.random.default_rng(3)
        theta0 = rng.normal(size=SPEC.dim)
        theta_new = theta0 + 0.1 * rng.normal(size=SPEC.dim)
        c_i = rng.normal(size=SPEC.dim)
        et = fed.e_tilde(0.3, 0.01, 2)
        delta_hat, step_scale, c_new = fed.client_finish(
            theta_new, theta0, c_i, 2, 0.01, et, 0.3, np.random.default_rng(4))
        np.testing.assert_allclose(c_new, c_i - step_scale * delta_hat, atol=1e-15)
        assert step_scale == pytest.approx(0.3 / (0.01 * et))

    def test_high_bit_quantization_is_near_exact(self):
        rng = np.random.default_rng(7)
        theta0 = rng.normal(size=SPEC.dim)
        theta_new = theta0 + 0.1 * rng.normal(size=SPEC.dim)
        delta_hat, _, _ = fed.client_finish(
            theta_new, theta0, np.zeros(SPEC.dim), 24, 0.01, 2.0, 0.3,
            np.random.default_rng(8))
        np.testing.assert_allclose(delta_hat, theta_new - theta0, atol=1e-5)

    def test_rejects_bad_a(self):
        with pytest.raises(ValueError):
            fed.client_finish(np.ones(3), np.zeros(3), np.zeros(3), 2,
                              0.01, 2.0, 1.5, np.random.default_rng(0))


class TestServerAggregate:
    """The reference aggregation of ``reference_fedqvr_round``."""

    def test_matches_hand_computed_update(self):
        s = ServerState(theta=np.zeros(2), c=np.zeros(2))
        ups = [(0, np.array([1.0, 0.0]), 2.0, 0.25),
               (1, np.array([0.0, 2.0]), 3.0, 0.75)]
        out = server_aggregate(s, np.zeros(2), ups, m=2, num_clients=4)
        np.testing.assert_allclose(out.theta, [2 * 0.25 * 1.0, 2 * 0.75 * 2.0])
        np.testing.assert_allclose(out.c, [-0.25 * 2.0, -0.75 * 3.0 * 2.0])


class TestFedqvrRound:
    def test_full_participation_unquantized_matches_reference(self):
        """Straight-line single-loop re-implementation of the protocol; each
        client quantizes its difference from its own stream after its steps."""
        n = 4
        p, C, datasets = make_clients(n, seed=11)
        server = fresh_server(11)
        eta, gamma, a, E, bs, B, seed = 0.01, 0.3, 0.3, 2, 10, 2, 123

        # independent reference trajectory
        ref_theta = server.theta.copy()
        ref_c = np.zeros(SPEC.dim)
        ref_ci = [np.zeros(SPEC.dim) for _ in range(n)]
        et = fed.e_tilde(gamma, eta, E)
        ge = gamma * eta
        for r in range(5):
            theta0 = ref_theta - ref_c / gamma
            deltas = []
            for i in range(n):
                rng = client_rng(seed, r, i)
                th = theta0.copy()
                for _ in range(E):
                    g = stochastic_grad(SPEC, th, *datasets[i], bs, rng)
                    th = (th - eta * (g - ref_ci[i])) / (1 + ge) \
                        + ge / (1 + ge) * theta0
                deltas.append(quantizer.dequantize(quantizer.quantize(
                    th - theta0, B, rng=rng, groups=SPEC.layer_groups())))
                ref_ci[i] = ref_ci[i] - (a / (eta * et)) * deltas[i]
            ref_theta = theta0 + sum((1.0 / n) * d for d in deltas)
            ref_c = ref_c - sum((a / (eta * et)) * (1.0 / n) * d for d in deltas)

        for r in range(5):
            plan = uniform_plan(range(n), E=E, bits=B)
            server, _ = fed.run_round_fedqvr(
                SPEC, server, p, C, datasets, plan, client_rngs(seed, r, plan.active_set))

        np.testing.assert_allclose(server.theta, ref_theta, atol=1e-10)
        np.testing.assert_allclose(server.c, ref_c, atol=1e-10)
        np.testing.assert_allclose(C, ref_ci, atol=1e-10)

    def test_failed_uploads_roll_back_client_state(self):
        p, C, datasets = make_clients(6, seed=12)
        server = fresh_server(12)
        before = C.copy()
        plan = uniform_plan([0, 1, 2], failed=frozenset({1}))
        server, report = fed.run_round_fedqvr(
            SPEC, server, p, C, datasets, plan, client_rngs(0, 0, plan.active_set))
        assert report.delivered_ids == [0, 2]
        np.testing.assert_array_equal(C[1], before[1])
        assert not np.array_equal(C[0], before[0])
        mix = sum(p_i * c_i for p_i, c_i in zip(p, C))
        np.testing.assert_allclose(server.c, mix, atol=1e-14)

    def test_result_independent_of_client_processing_order(self):
        """The stacked round engine equals the single-client reference bit for
        bit: per-client ``local_update`` and quantized upload computed
        concurrently in reverse order, then aggregated. Rounds mix uneven
        (HLU) epochs, lost uploads and per-client bit widths, for both model
        kinds."""
        seed = 77
        for spec in (SPEC, MLP_SPEC):
            p, C, datasets = make_clients(8, seed=15, spec=spec)
            ref_C = C.copy()
            server = ref_server = fresh_server(15, spec)
            for r, plan in enumerate(uneven_plans(spec)):
                server, report = fed.run_round_fedqvr(
                    spec, server, p, C, datasets, plan,
                    client_rngs(seed, r, plan.active_set))
                ref_server, ref_bits, ref_delivered = reference_fedqvr_round(
                    spec, ref_server, p, ref_C, datasets, plan, seed, r)
                assert_same_state(server, C, ref_server, ref_C)
                assert report.uplink_bits == ref_bits
                assert report.delivered_ids == ref_delivered

    def test_empty_cohort_changes_nothing_but_the_anchor(self):
        """A round whose cohort the allocator dropped entirely: no upload, no
        control variate moves, and theta becomes the broadcast point, which is
        the server update with an empty sum."""
        p, C, datasets = make_clients(6, seed=24)
        server = fresh_server(24)
        for r in range(3):  # make c and the c_i non-zero first
            server, _ = fed.run_round_fedqvr(
                SPEC, server, p, C, datasets, uniform_plan([r, r + 3]),
                client_rngs(0, r, [r, r + 3]))
        assert np.any(server.c != 0)
        before = C.copy()
        plan = RoundPlan(active_set=[], local_epochs={}, bits={}, batch_size=10,
                         eta=0.01, m_sampled=4)
        out, report = fed.run_round_fedqvr(SPEC, server, p, C, datasets, plan, {})
        np.testing.assert_array_equal(out.theta, fed.broadcast_point(server, plan.gamma))
        np.testing.assert_array_equal(out.c, server.c)
        np.testing.assert_array_equal(C, before)
        assert report.uplink_bits == 0
        assert report.active_ids == report.delivered_ids == []

    def test_empty_cohort_in_a_wireless_run(self):
        """The shipped fedqvr_e config at seed 0 drops all five devices in
        round 98, its first such round (found from its metrics rows)."""
        cfg = harness.parse_config(str(CONFIGS / "wireless_fedqvr_e.json"))
        cfg.rounds, cfg.eval_every = 99, 1
        rows = harness.run_experiment(cfg)
        assert rows[99].dropped_count == cfg.sample_size
        assert rows[99].active_count == 0
        assert rows[99].cumulative_uplink_bits == rows[98].cumulative_uplink_bits

    def test_duplicate_id_in_the_active_set_is_rejected(self):
        p, C, datasets = make_clients(4, seed=16)
        plan = uniform_plan([0, 2, 2])
        with pytest.raises(ValueError, match="duplicate client id"):
            fed.run_round_fedqvr(SPEC, fresh_server(16), p, C, datasets, plan,
                                 client_rngs(0, 0, plan.active_set))

    def test_uplink_bits_accounting(self):
        p, C, datasets = make_clients(4, seed=16)
        server = fresh_server(16)
        plan = uniform_plan([0, 1, 2], bits=2)
        _, report = fed.run_round_fedqvr(SPEC, server, p, C, datasets, plan,
                                         client_rngs(0, 0, plan.active_set))
        mu = 2 * 32 * len(SPEC.layer_groups())
        assert report.uplink_bits == 3 * (SPEC.dim * 3 + mu)


class TestFedavgRound:
    def test_single_epoch_equals_mean_of_one_step_models(self):
        n = 5
        p, C, datasets = make_clients(n, seed=17)
        server = fresh_server(17)
        seed = 5
        plan = uniform_plan(range(n), E=1)
        expected = np.mean([
            server.theta - plan.eta * stochastic_grad(
                SPEC, server.theta, *datasets[cid], plan.batch_size,
                client_rng(seed, 0, cid))
            for cid in range(n)], axis=0)
        out, report = fed.run_round_fedavg(SPEC, server, p, C, datasets, plan,
                                           client_rngs(seed, 0, plan.active_set))
        np.testing.assert_allclose(out.theta, expected, atol=1e-14)
        assert report.uplink_bits == n * 32 * SPEC.dim

    def test_matches_straight_loop_reference(self):
        for spec in (SPEC, MLP_SPEC):
            p, C, datasets = make_clients(8, seed=25, spec=spec)
            server = ref_server = fresh_server(25, spec)
            for r, plan in enumerate(uneven_plans(spec)):
                server, report = fed.run_round_fedavg(
                    spec, server, p, C, datasets, plan,
                    client_rngs(4, r, plan.active_set))
                ref_server, delivered = reference_fedavg_round(
                    spec, ref_server, datasets, plan, 4, r)
                np.testing.assert_array_equal(server.theta, ref_server.theta)
                assert report.delivered_ids == delivered
                assert report.uplink_bits == 32 * spec.dim * len(delivered)

    def test_all_failed_keeps_model(self):
        p, C, datasets = make_clients(3, seed=18)
        server = fresh_server(18)
        plan = uniform_plan([0, 1], failed=frozenset({0, 1}))
        out, report = fed.run_round_fedavg(SPEC, server, p, C, datasets, plan,
                                           client_rngs(0, 0, plan.active_set))
        np.testing.assert_array_equal(out.theta, server.theta)
        assert report.delivered_ids == []
        assert report.uplink_bits == 0


class TestScaffoldRound:
    def test_reduces_to_fedavg_when_controls_are_zero_single_epoch(self):
        n = 4
        p, C, datasets = make_clients(n, seed=19)
        server = fresh_server(19)
        plan = uniform_plan(range(n), E=1)
        avg_out, _ = fed.run_round_fedavg(SPEC, server, p, C, datasets, plan,
                                          client_rngs(3, 0, plan.active_set))
        sca_out, _ = fed.run_round_scaffold(SPEC, server, p, C, datasets, plan,
                                            client_rngs(3, 0, plan.active_set))
        np.testing.assert_allclose(sca_out.theta, avg_out.theta, atol=1e-14)

    def test_client_control_becomes_mean_logged_gradient(self):
        n = 3
        p, C, datasets = make_clients(n, seed=20)
        C[1] = 0.05
        server = fresh_server(20)
        server.c = np.full(SPEC.dim, 0.01)
        plan = uniform_plan(range(n), E=4)
        _, logs = reference_scaffold_round(
            SPEC, server, C.copy(), datasets, plan, 9, 0, plan.eta_g)
        fed.run_round_scaffold(SPEC, server, p, C, datasets, plan,
                               client_rngs(9, 0, plan.active_set))
        for cid in range(n):
            mean_g = np.mean(logs[cid], axis=0)
            np.testing.assert_allclose(C[cid], mean_g, atol=1e-12)

    def test_server_control_update_rule(self):
        n = 5
        p, C, datasets = make_clients(n, seed=21)
        server = fresh_server(21)
        old_C = C.copy()
        plan = uniform_plan([0, 2], E=2)
        out, _ = fed.run_round_scaffold(
            SPEC, server, p, C, datasets, plan, client_rngs(1, 0, plan.active_set))
        expected = server.c + sum(
            (C[cid] - old_C[cid]) / n for cid in (0, 2))
        np.testing.assert_allclose(out.c, expected, atol=1e-14)

    def test_matches_straight_loop_reference(self):
        for spec in (SPEC, MLP_SPEC):
            p, C, datasets = make_clients(8, seed=26, spec=spec)
            ref_C = C.copy()
            server = ref_server = fresh_server(26, spec)
            for r, plan in enumerate(uneven_plans(spec, eta_g=0.9)):
                server, report = fed.run_round_scaffold(
                    spec, server, p, C, datasets, plan,
                    client_rngs(6, r, plan.active_set))
                ref_server, ref_logs = reference_scaffold_round(
                    spec, ref_server, ref_C, datasets, plan, 6, r, plan.eta_g)
                assert_same_state(server, C, ref_server, ref_C)
                assert report.delivered_ids == sorted(ref_logs)
                assert report.uplink_bits == 2 * 32 * spec.dim * len(ref_logs)

    def test_divergence_raises(self):
        p, C, datasets = make_clients(3, seed=27)
        plan = RoundPlan(active_set=[0, 1], local_epochs={0: 3, 1: 3},
                         bits={}, batch_size=10, eta=1e308)
        with pytest.raises(FloatingPointError, match="diverged"):
            fed.run_round_scaffold(SPEC, fresh_server(27), p, C, datasets, plan,
                                   client_rngs(0, 0, plan.active_set))

    def test_uplink_cost_is_double_raw(self):
        p, C, datasets = make_clients(3, seed=22)
        server = fresh_server(22)
        plan = uniform_plan([0, 1])
        _, report = fed.run_round_scaffold(
            SPEC, server, p, C, datasets, plan, client_rngs(0, 0, plan.active_set))
        assert report.uplink_bits == 2 * 2 * 32 * SPEC.dim


ALGOS = pytest.mark.parametrize("algo", [fed.FEDAVG, fed.SCAFFOLD, fed.FEDQVR],
                                ids=lambda algo: algo.name)


class TestLostUploads:
    """An upload in ``plan.failed`` is lost, so the round does not compute it."""

    @ALGOS
    def test_only_delivered_clients_are_stepped(self, algo, monkeypatch):
        """The rows ``learner.grad`` steps in a round add up to the local
        epochs of the delivered clients; lost clients take no step."""
        stepped = []
        grad = learner.grad

        def counting_grad(spec, theta, X, y, out=None):
            stepped.append(theta.shape[0])
            return grad(spec, theta, X, y, out=out)

        monkeypatch.setattr(learner, "grad", counting_grad)
        p, C, datasets = make_clients(8, seed=28)
        server = fresh_server(28)
        for r, plan in enumerate(uneven_plans(SPEC)):
            stepped.clear()
            server, report = fed.run_round(algo, SPEC, server, p, C, datasets, plan,
                                           client_rngs(8, r, plan.active_set))
            delivered = sorted(set(plan.active_set) - plan.failed)
            assert report.delivered_ids == delivered
            assert sum(stepped) == sum(plan.local_epochs[cid] for cid in delivered)
            assert len(stepped) == max((plan.local_epochs[cid] for cid in delivered), default=0)

    @staticmethod
    def overflowing(datasets, cid):
        """``datasets`` with client ``cid``'s features scaled to ~1e200, so
        that its second local step overflows."""
        out = list(datasets)
        out[cid] = (1e200 * datasets[cid][0], datasets[cid][1])
        return out

    @ALGOS
    def test_overflowing_delivered_upload_is_divergence(self, algo):
        p, C, datasets = make_clients(6, seed=29)
        plan = uniform_plan([1, 2, 4], E=3)
        with pytest.raises(FloatingPointError, match="diverged"):
            fed.run_round(algo, SPEC, fresh_server(29), p, C, self.overflowing(datasets, 2),
                          plan, client_rngs(0, 0, plan.active_set))

    @ALGOS
    def test_overflowing_lost_upload_changes_nothing(self, algo):
        """The same overflowing client in ``plan.failed``: the round completes,
        and the server and every control variate equal the reference helper's
        on the plain data, which computes the lost client and drops it."""
        p, C, datasets = make_clients(6, seed=29)
        ref_C = C.copy()
        server = ref_server = fresh_server(29)
        # a first round makes c and the c_i non-zero
        for r, (plan, data) in enumerate(((uniform_plan(range(6), E=2), datasets),
                                          (uniform_plan([1, 2, 4], E=3, failed=frozenset({2})),
                                           self.overflowing(datasets, 2)))):
            server, _ = fed.run_round(algo, SPEC, server, p, C, data, plan,
                                      client_rngs(5, r, plan.active_set))
            ref_server = reference_round(algo, SPEC, ref_server, p, ref_C, datasets, plan, 5, r)
            assert_same_state(server, C, ref_server, ref_C)
        assert np.isfinite(server.theta).all()


@ALGOS
@pytest.mark.parametrize("epochs,batch_size,match", [
    ({0: 2, 1: 0, 2: 2}, 10, "epochs must be >= 1"),
    ({0: 2, 1: 2, 2: 2}, 0, "batch_size must be >= 1"),
], ids=["zero_epochs", "zero_batch"])
def test_plan_without_local_steps_is_rejected(algo, epochs, batch_size, match, monkeypatch):
    """A client with 0 local epochs, or a batch of 0 samples, ends the round
    with ValueError before any gradient is taken or any state moves."""
    def no_grad(*args, **kwargs):
        raise AssertionError("a gradient was taken")

    monkeypatch.setattr(learner, "grad", no_grad)
    p, C, datasets = make_clients(4, seed=32)
    before = C.copy()
    plan = RoundPlan(active_set=[0, 1, 2], local_epochs=epochs, bits={c: 2 for c in epochs},
                     batch_size=batch_size, eta=0.01)
    with pytest.raises(ValueError, match=match):
        fed.run_round(algo, SPEC, fresh_server(32), p, C, datasets, plan,
                      client_rngs(0, 0, plan.active_set))
    np.testing.assert_array_equal(C, before)


def test_fedavg_reads_no_control_variate():
    """A fedavg round reads no row of ``C`` and writes none: with every c_i
    NaN, in a read-only array, it makes the server state it makes from
    zeros, across more than one block."""
    p, C, datasets = make_clients(6, seed=33)
    plan = uniform_plan(range(6), E=3)
    plan.batch_size = learner.STEP_ROWS // 2
    nan_C = np.full_like(C, np.nan)
    nan_C.flags.writeable = False
    server = fresh_server(33)
    expected, _ = fed.run_round(fed.FEDAVG, SPEC, server, p, C, datasets, plan,
                                client_rngs(33, 0, plan.active_set))
    got, _ = fed.run_round(fed.FEDAVG, SPEC, server, p, nan_C, datasets, plan,
                           client_rngs(33, 0, plan.active_set))
    assert_same_state(got, C, expected, np.zeros_like(C))
    assert np.isnan(nan_C).all()


def reference_iterate(algo, spec, server, c_i, data, E, plan, rng):
    """One client's final local iterate, one single-client step at a time."""
    if algo is fed.FEDQVR:
        return local_update(spec, fed.broadcast_point(server, plan.gamma), c_i, *data, E,
                            plan.batch_size, plan.eta, plan.gamma, rng)[0]
    theta = server.theta.copy()
    for _ in range(E):
        g = stochastic_grad(spec, theta, *data, plan.batch_size, rng)
        if algo is fed.SCAFFOLD:
            g = g + server.c - c_i
        theta -= plan.eta * g
    return theta


class TestCohortBlocks:
    """A cohort wider than one step of ``learner.STEP_ROWS`` sample rows
    steps in as few equal blocks of clients as keep each step within it, a
    block at a time, and the aggregate folds each block before the next
    steps."""

    @staticmethod
    def recording(blocks, iterates=None):
        """A ``fed._local_phase`` that appends each block's client ids to
        ``blocks`` and copies its iterates into ``iterates`` by client id."""
        phase = fed._local_phase

        def recording_phase(*args):
            for block in phase(*args):
                blocks.append(list(block.ids))
                if iterates is not None:
                    # copied: the next block overwrites the buffer
                    iterates.update((cid, block.theta[j].copy()) for cid, j in block.by_id)
                yield block
        return recording_phase

    @ALGOS
    def test_rows_across_blocks_equal_single_client_runs(self, algo, monkeypatch):
        """Eight clients of batch STEP_ROWS // 3 run in blocks of 2, 3 and 3
        (2, 2 and 3 when one upload is lost), consecutive in id order, with
        uneven epochs inside and across the blocks. Within a block, rows run
        longest first, ties in id order. Every row equals its single-client
        run bit for bit, and no gradient call holds more than STEP_ROWS
        sample rows."""
        batch = learner.STEP_ROWS // 3
        rows_seen, blocks, iterates = [], [], {}
        grad = learner.grad

        def counting_grad(spec, theta, X, y, out=None):
            rows_seen.append(y.size)
            return grad(spec, theta, X, y, out=out)

        monkeypatch.setattr(learner, "grad", counting_grad)
        monkeypatch.setattr(fed, "_local_phase", self.recording(blocks, iterates))
        p, C, datasets = make_clients(8, seed=31, spec=MLP_SPEC)
        ref_C = C.copy()
        server = ref_server = fresh_server(31, spec=MLP_SPEC)
        for r, (epochs, failed, sizes) in enumerate((([5, 2, 4, 4, 1, 3, 4, 2], {5}, [2, 2, 3]),
                                                     ([1, 3, 3, 2, 5, 1, 2, 4], set(), [2, 3, 3]))):
            plan = RoundPlan(active_set=list(range(8)), local_epochs=dict(enumerate(epochs)),
                             bits={c: 3 for c in range(8)}, batch_size=batch, eta=0.05,
                             failed=frozenset(failed))
            before = copy.deepcopy((server, C))
            rows_seen.clear()
            blocks.clear()
            iterates.clear()
            server, _ = fed.run_round(algo, MLP_SPEC, server, p, C, datasets, plan,
                                      client_rngs(31, r, plan.active_set))
            delivered = [c for c in range(8) if c not in failed]
            assert max(rows_seen) <= learner.STEP_ROWS
            assert sum(rows_seen) == batch * sum(epochs[c] for c in delivered)
            assert len(rows_seen) > max(epochs)  # more than one block ran
            edges = np.cumsum([0, *sizes])
            assert [sorted(b) for b in blocks] == [delivered[lo:hi]
                                                   for lo, hi in zip(edges, edges[1:])]
            assert all(b == sorted(sorted(b), key=lambda c: -epochs[c]) for b in blocks)
            assert sorted(iterates) == delivered
            for cid in delivered:
                expected = reference_iterate(
                    algo, MLP_SPEC, before[0], before[1][cid], datasets[cid], epochs[cid],
                    plan, client_rng(31, r, cid))
                np.testing.assert_array_equal(iterates[cid], expected)
            ref_server = reference_round(algo, MLP_SPEC, ref_server, p, ref_C, datasets, plan,
                                         31, r)
            assert_same_state(server, C, ref_server, ref_C)

    @pytest.mark.parametrize("m,failed,layout", [
        (3, set(), [[0, 1, 2]]),
        (4, set(), [[0, 1], [2, 3]]),
        (7, {3}, [[0, 1, 2], [4, 5, 6]]),
        (3, {0, 1, 2}, []),
    ], ids=["one_block", "one_client_over", "one_lost", "every_upload_lost"])
    def test_blocks_split_the_cohort_evenly(self, m, failed, layout, monkeypatch):
        """At batch STEP_ROWS // 3 a block holds three clients. One client
        more makes two blocks of two, not a full block and a block of one; a
        cohort whose every upload is lost makes no block."""
        blocks = []
        monkeypatch.setattr(fed, "_local_phase", self.recording(blocks))
        p, C, datasets = make_clients(m, seed=34)
        plan = uniform_plan(range(m), failed=frozenset(failed))
        plan.batch_size = learner.STEP_ROWS // 3
        fed.run_round(fed.FEDAVG, SPEC, fresh_server(34), p, C, datasets, plan,
                      client_rngs(34, 0, plan.active_set))
        assert blocks == layout

    @staticmethod
    def round_peak(algo, m, spec, batch):
        """tracemalloc peak, in bytes above the memory held before it, of one
        ``run_round`` of ``algo`` over m clients of 2 local steps of ``batch``
        samples, at 4 bits."""
        p, C, datasets = make_clients(m, seed=m, spec=spec)
        C += 0.01 * np.random.default_rng(m).normal(size=C.shape)
        plan = uniform_plan(range(m), bits=4)
        plan.batch_size = batch
        server, rngs = fresh_server(m, spec), client_rngs(0, 0, plan.active_set)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fed.run_round(algo, spec, server, p, C, datasets, plan, rngs)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_round_memory_does_not_grow_with_the_cohort(self):
        """Under every algorithm, 32 clients in blocks of 4 peak within one
        (4, d) float64 block of 8 clients: each block is folded into the
        server before the next steps, in the two buffers, of iterates and of
        gradients, that the blocks share. Holding the cohort's iterates and
        gradients would cost 16 bytes per parameter per client."""
        spec = ModelSpec(kind=LOGISTIC, input_dim=300, num_classes=10)
        batch = learner.STEP_ROWS // 4
        block = 4 * spec.dim * 8
        for algo in (fed.FEDAVG, fed.SCAFFOLD, fed.FEDQVR):
            peaks = [self.round_peak(algo, m, spec, batch) for m in (8, 32)]
            assert abs(peaks[1] - peaks[0]) < block, (algo.name, peaks)

    def test_a_block_holds_two_rows_of_parameters_per_client(self):
        """Under every algorithm, a round at blocks of 4 peaks below the same
        round at blocks of 1 plus three more rows in each of two (block, d)
        buffers, the iterates and the one gradient buffer every step reuses,
        with half a row of slack per buffer. Both rounds step STEP_ROWS
        sample rows at a time, so their feature stacks, gradient temporaries
        and upload temporaries are the same size, and the blocks-of-1 round
        measures them. A gathered copy of the block's c_i, and each step's
        gradient kept alive while the next is computed, would make it four."""
        spec = ModelSpec(kind=MLP, input_dim=30, num_classes=10, hidden_dim=100)
        row = spec.dim * 8
        for algo in (fed.FEDAVG, fed.SCAFFOLD, fed.FEDQVR):
            one, four = (self.round_peak(algo, 8, spec, learner.STEP_ROWS // k) for k in (1, 4))
            assert four < one + 3 * 2.5 * row, (algo.name, (four - one) / (3 * row))


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(1e-4, 10.0),
    eta=st.floats(1e-4, 1.0),
    E=st.integers(1, 30),
)
def test_e_tilde_equals_b_weight_mass(gamma, eta, E):
    b = fed.b_weights(gamma, eta, E)
    # the closed form loses ~eps/(gamma*eta) relative digits to cancellation
    assert fed.e_tilde(gamma, eta, E) == pytest.approx(float(b.sum()), rel=1e-6)
    assert 0 < fed.e_tilde(gamma, eta, E) <= E


@pytest.mark.parametrize("n", [7, 40, 100, 1000])
@pytest.mark.parametrize("bs", [49, 50])
@pytest.mark.parametrize("E", [1, 3, 10])
def test_merged_minibatch_draw_keeps_the_stream(n, bs, E):
    """One (E, bs) draw, as ``_local_phase`` makes it, equals E draws of bs
    from the same client stream and leaves the stream in the same state,
    the spare 32-bit half of an odd batch included. If a numpy release
    breaks this, every golden moves; this test names the cause."""
    for seed in range(5):
        merged, per_step = client_rng(seed, 2, 3), client_rng(seed, 2, 3)
        draws = merged.integers(0, n, size=(E, bs))
        np.testing.assert_array_equal(
            draws, np.array([per_step.integers(0, n, size=bs) for _ in range(E)]))
        # the state holds the spare half too: has_uint32 and uinteger
        assert merged.bit_generator.state == per_step.bit_generator.state
        assert merged.integers(0, n) == per_step.integers(0, n)
