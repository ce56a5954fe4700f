import copy
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import fed, harness, learner, quantizer
from fedsim.fed import ClientState, RoundPlan, ServerState
from fedsim.learner import LOGISTIC, MLP, ModelSpec

SPEC = ModelSpec(kind=LOGISTIC, input_dim=5, num_classes=3)


MLP_SPEC = ModelSpec(kind=MLP, input_dim=5, num_classes=3, hidden_dim=4)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def make_clients(n_clients, seed=0, n_samples=30, spec=SPEC):
    rng = np.random.default_rng(seed)
    datasets = [(rng.normal(size=(n_samples, spec.input_dim)),
                 rng.integers(0, spec.num_classes, size=n_samples))
                for _ in range(n_clients)]
    clients = [ClientState(id=i, p=1.0 / n_clients, c_i=np.zeros(spec.dim))
               for i in range(n_clients)]
    return clients, datasets


def fresh_server(seed=0, spec=SPEC):
    return ServerState(theta=learner.init_params(spec, seed), c=np.zeros(spec.dim))


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


def reference_fedqvr_round(spec, server, clients, datasets, plan, seed):
    """Single-client reference: ``local_update`` and ``client_finish`` per
    client, run concurrently in reverse order, then ``server_aggregate``."""
    theta0 = fed.broadcast_point(server, plan.gamma)
    groups = spec.layer_groups()

    def one_client(cid):
        rng = fed.client_rng(seed, server.round, cid)
        E = plan.local_epochs[cid]
        theta, _ = fed.local_update(
            spec, theta0, clients[cid].c_i, *datasets[cid], E,
            plan.batch_size, plan.eta, plan.gamma, rng)
        return fed.client_finish(
            theta, theta0, clients[cid].c_i, cid, plan.bits[cid], plan.eta,
            fed.e_tilde(plan.gamma, plan.eta, E), plan.a, rng, groups=groups)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(one_client, reversed(plan.active_set)))
    delivered = sorted((r for r in results if r[0].client_id not in plan.failed),
                       key=lambda r: r[0].client_id)
    new_server = fed.server_aggregate(
        server, theta0, [(u, clients[u.client_id].p) for u, _ in delivered],
        len(plan.active_set), len(clients))
    for upload, c_new in delivered:
        clients[upload.client_id].c_i = c_new
    # the quantizer's own count of each payload it built
    return (new_server, sum(u.delta.payload_bits for u, _ in delivered),
            [u.client_id for u, _ in delivered])


def reference_scaffold_round(spec, server, clients, datasets, plan, seed, eta_g):
    """Straight per-client loop of the SCAFFOLD round."""
    eta = plan.eta
    results, logs = [], {}
    for cid in plan.active_set:
        rng = fed.client_rng(seed, server.round, cid)
        E = plan.local_epochs[cid]
        theta = server.theta.copy()
        grads = []
        for _ in range(E):
            g = learner.stochastic_grad(spec, theta, *datasets[cid], plan.batch_size, rng)
            grads.append(g)
            theta -= eta * (g + server.c - clients[cid].c_i)
        c_i_new = clients[cid].c_i - server.c + (server.theta - theta) / (E * eta)
        if cid not in plan.failed:
            results.append((cid, theta, c_i_new))
            logs[cid] = grads
    results.sort()
    theta_new, c_new = server.theta.copy(), server.c.copy()
    if results:
        mean_theta = np.mean([t for _, t, _ in results], axis=0)
        theta_new = server.theta + eta_g * (mean_theta - server.theta)
        for cid, _, c_i_new in results:
            c_new += (c_i_new - clients[cid].c_i) / len(clients)
        for cid, _, c_i_new in results:
            clients[cid].c_i = c_i_new
    return ServerState(theta=theta_new, c=c_new, round=server.round + 1), logs


def reference_fedavg_round(spec, server, datasets, plan, seed):
    """Straight per-client loop of the FedAvg round."""
    models = []
    for cid in plan.active_set:
        rng = fed.client_rng(seed, server.round, cid)
        theta = server.theta.copy()
        for _ in range(plan.local_epochs[cid]):
            theta -= plan.eta * learner.stochastic_grad(
                spec, theta, *datasets[cid], plan.batch_size, rng)
        if cid not in plan.failed:
            models.append((cid, theta))
    models.sort(key=lambda t: t[0])
    theta_new = (np.mean([t for _, t in models], axis=0) if models
                 else server.theta.copy())
    return (ServerState(theta=theta_new, c=server.c.copy(), round=server.round + 1),
            [cid for cid, _ in models])


def assert_same_state(server, clients, ref_server, ref_clients):
    np.testing.assert_array_equal(server.theta, ref_server.theta)
    np.testing.assert_array_equal(server.c, ref_server.c)
    assert server.round == ref_server.round
    for cl, ref in zip(clients, ref_clients):
        np.testing.assert_array_equal(cl.c_i, ref.c_i)


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
    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, SPEC.input_dim))
        y = rng.integers(0, SPEC.num_classes, size=40)
        theta0 = learner.init_params(SPEC, 1)
        c_i = 0.01 * rng.normal(size=SPEC.dim)
        eta, gamma, E = 0.05, 0.4, 3
        theta_new, logs = fed.local_update(
            SPEC, theta0, c_i, X, y, E, 8, eta, gamma, np.random.default_rng(42))
        # replay the recursion directly from the logged gradients
        ge = gamma * eta
        theta = theta0.copy()
        for g in logs:
            theta = (theta - eta * (g - c_i)) / (1 + ge) + ge / (1 + ge) * theta0
        np.testing.assert_allclose(theta_new, theta, atol=1e-14)

    def test_closed_form_weighted_average(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, SPEC.input_dim))
        y = rng.integers(0, SPEC.num_classes, size=40)
        theta0 = learner.init_params(SPEC, 2)
        c_i = 0.01 * rng.normal(size=SPEC.dim)
        eta, gamma, E = 0.05, 0.2, 4
        theta_new, logs = fed.local_update(
            SPEC, theta0, c_i, X, y, E, 8, eta, gamma, np.random.default_rng(7))
        b = fed.b_weights(gamma, eta, E)
        et = fed.e_tilde(gamma, eta, E)
        pred = theta0 - eta * et * sum(
            (b[t] / b.sum()) * (logs[t] - c_i) for t in range(E))
        np.testing.assert_allclose(theta_new, pred, atol=1e-12)

    def test_rejects_zero_epochs(self):
        X = np.zeros((4, SPEC.input_dim))
        y = np.zeros(4, dtype=int)
        with pytest.raises(ValueError):
            fed.local_update(SPEC, np.zeros(SPEC.dim), np.zeros(SPEC.dim),
                             X, y, 0, 2, 0.01, 0.3, np.random.default_rng(0))

    def test_divergence_raises(self):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(4, SPEC.input_dim))
        y = np.array([0, 1, 2, 0])
        old = np.seterr(over="ignore", invalid="ignore")
        try:
            with pytest.raises(FloatingPointError, match="diverged"):
                fed.local_update(SPEC, np.ones(SPEC.dim), np.zeros(SPEC.dim),
                                 X, y, 5, 2, 1e308, 1e-315,
                                 np.random.default_rng(0))
        finally:
            np.seterr(**old)


class TestClientFinish:
    def test_control_variate_moves_by_quantized_delta(self):
        rng = np.random.default_rng(3)
        theta0 = rng.normal(size=SPEC.dim)
        theta_new = theta0 + 0.1 * rng.normal(size=SPEC.dim)
        c_i = rng.normal(size=SPEC.dim)
        et = fed.e_tilde(0.3, 0.01, 2)
        upload, c_new = fed.client_finish(
            theta_new, theta0, c_i, 0, 2, 0.01, et, 0.3, np.random.default_rng(4))
        np.testing.assert_allclose(
            c_new, c_i - upload.step_scale * upload.delta_hat, atol=1e-15)
        assert upload.step_scale == pytest.approx(0.3 / (0.01 * et))

    def test_high_bit_quantization_is_near_exact(self):
        rng = np.random.default_rng(7)
        theta0 = rng.normal(size=SPEC.dim)
        theta_new = theta0 + 0.1 * rng.normal(size=SPEC.dim)
        upload, _ = fed.client_finish(
            theta_new, theta0, np.zeros(SPEC.dim), 0, 24, 0.01, 2.0, 0.3,
            np.random.default_rng(8))
        np.testing.assert_allclose(upload.delta_hat, theta_new - theta0,
                                   atol=1e-5)

    def test_rejects_bad_a(self):
        with pytest.raises(ValueError):
            fed.client_finish(np.ones(3), np.zeros(3), np.zeros(3), 0, 2,
                              0.01, 2.0, 1.5, np.random.default_rng(0))


class TestServerAggregate:
    def test_empty_round_is_noop_on_theta_and_c(self):
        s = fresh_server()
        theta0 = fed.broadcast_point(s, 0.3)
        out = fed.server_aggregate(s, theta0, [], m=3, num_clients=10)
        np.testing.assert_array_equal(out.theta, theta0)
        np.testing.assert_array_equal(out.c, s.c)
        assert out.round == s.round + 1

    def test_duplicate_client_rejected(self):
        s = fresh_server()
        up = fed.ClientUpload(client_id=1, delta=None,
                              delta_hat=np.zeros(SPEC.dim), step_scale=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            fed.server_aggregate(s, s.theta, [(up, 0.5), (up, 0.5)], 2, 4)

    def test_matches_hand_computed_update(self):
        s = ServerState(theta=np.zeros(2), c=np.zeros(2))
        ups = []
        for cid, vec, scale, p in [(0, np.array([1.0, 0.0]), 2.0, 0.25),
                                   (1, np.array([0.0, 2.0]), 3.0, 0.75)]:
            ups.append((fed.ClientUpload(client_id=cid, delta=None,
                                         delta_hat=vec, step_scale=scale), p))
        out = fed.server_aggregate(s, np.zeros(2), ups, m=2, num_clients=4)
        np.testing.assert_allclose(out.theta, [2 * 0.25 * 1.0, 2 * 0.75 * 2.0])
        np.testing.assert_allclose(out.c, [-0.25 * 2.0, -0.75 * 3.0 * 2.0])


class TestFedqvrRound:
    def test_control_variate_identity_holds_across_rounds(self):
        clients, datasets = make_clients(8)
        server = fresh_server()
        for r in range(10):
            active = fed.sample_clients(8, 3, np.random.default_rng([10, r]))
            server, _ = fed.run_round_fedqvr(
                SPEC, server, clients, datasets, uniform_plan(active), 0)
            mix = sum(cl.p * cl.c_i for cl in clients)
            np.testing.assert_allclose(server.c, mix, atol=1e-12)

    def test_full_participation_unquantized_matches_reference(self):
        """Straight-line single-loop re-implementation of the protocol; each
        client quantizes its difference from its own stream after its steps."""
        n = 4
        clients, datasets = make_clients(n, seed=11)
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
                rng = np.random.default_rng([seed, r, i])
                th = theta0.copy()
                for _ in range(E):
                    g = learner.stochastic_grad(SPEC, th, *datasets[i], bs, rng)
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
                SPEC, server, clients, datasets, plan, seed)

        np.testing.assert_allclose(server.theta, ref_theta, atol=1e-10)
        np.testing.assert_allclose(server.c, ref_c, atol=1e-10)
        for i in range(n):
            np.testing.assert_allclose(clients[i].c_i, ref_ci[i], atol=1e-10)

    def test_failed_uploads_roll_back_client_state(self):
        clients, datasets = make_clients(6, seed=12)
        server = fresh_server(12)
        before = [cl.c_i.copy() for cl in clients]
        plan = uniform_plan([0, 1, 2], failed=frozenset({1}))
        server, report = fed.run_round_fedqvr(
            SPEC, server, clients, datasets, plan, 0)
        assert report.delivered_ids == [0, 2]
        np.testing.assert_array_equal(clients[1].c_i, before[1])
        assert not np.array_equal(clients[0].c_i, before[0])
        mix = sum(cl.p * cl.c_i for cl in clients)
        np.testing.assert_allclose(server.c, mix, atol=1e-14)

    def test_identity_preserved_under_failures_and_hlu(self):
        clients, datasets = make_clients(8, seed=13)
        server = fresh_server(13)
        rng = np.random.default_rng(14)
        for r in range(8):
            active = fed.sample_clients(8, 4, rng)
            plan = RoundPlan(
                active_set=active,
                local_epochs={c: int(rng.integers(1, 6)) for c in active},
                bits={c: int(rng.integers(1, 5)) for c in active},
                batch_size=10, eta=0.01,
                failed=frozenset(int(c) for c in active if rng.random() < 0.3))
            server, _ = fed.run_round_fedqvr(
                SPEC, server, clients, datasets, plan, 0)
            mix = sum(cl.p * cl.c_i for cl in clients)
            np.testing.assert_allclose(server.c, mix, atol=1e-12)

    def test_result_independent_of_client_processing_order(self):
        """The stacked round engine equals the single-client reference bit for
        bit: per-client ``local_update`` + ``client_finish`` computed
        concurrently in reverse order, then aggregated. Rounds mix uneven
        (HLU) epochs, lost uploads and per-client bit widths, for both model
        kinds."""
        seed = 77
        for spec in (SPEC, MLP_SPEC):
            clients, datasets = make_clients(8, seed=15, spec=spec)
            ref_clients = copy.deepcopy(clients)
            server = ref_server = fresh_server(15, spec)
            for plan in uneven_plans(spec):
                server, report = fed.run_round_fedqvr(
                    spec, server, clients, datasets, plan, seed)
                ref_server, ref_bits, ref_delivered = reference_fedqvr_round(
                    spec, ref_server, ref_clients, datasets, plan, seed)
                assert_same_state(server, clients, ref_server, ref_clients)
                assert report.uplink_bits == ref_bits
                assert report.delivered_ids == ref_delivered

    def test_empty_cohort_changes_nothing_but_the_anchor(self):
        """A round whose cohort the allocator dropped entirely: no upload, no
        control variate moves, and theta becomes the broadcast point, which is
        the server update with an empty sum."""
        clients, datasets = make_clients(6, seed=24)
        server = fresh_server(24)
        for r in range(3):  # make c and the c_i non-zero first
            server, _ = fed.run_round_fedqvr(
                SPEC, server, clients, datasets, uniform_plan([r, r + 3]), 0)
        assert np.any(server.c != 0)
        before = [cl.c_i.copy() for cl in clients]
        plan = RoundPlan(active_set=[], local_epochs={}, bits={}, batch_size=10,
                         eta=0.01, m_sampled=4)
        out, report = fed.run_round_fedqvr(SPEC, server, clients, datasets, plan, 0)
        np.testing.assert_array_equal(out.theta, fed.broadcast_point(server, plan.gamma))
        np.testing.assert_array_equal(out.c, server.c)
        for cl, c_i in zip(clients, before):
            np.testing.assert_array_equal(cl.c_i, c_i)
        assert out.round == server.round + 1
        assert report.uplink_bits == 0
        assert report.active_ids == report.delivered_ids == []

    def test_empty_cohort_in_a_wireless_run(self):
        """The shipped fedqvr_e config at seed 0 drops all five devices in
        round 41 (found from its round trace)."""
        cfg = harness.parse_config(str(CONFIGS / "wireless_fedqvr_e.json"))
        cfg.rounds, cfg.eval_every = 42, 1
        rows = harness.run_experiment(cfg)
        assert rows[42].dropped_count == cfg.sample_size
        assert rows[42].active_count == 0
        assert rows[42].cumulative_uplink_bits == rows[41].cumulative_uplink_bits

    def test_uplink_bits_accounting(self):
        clients, datasets = make_clients(4, seed=16)
        server = fresh_server(16)
        plan = uniform_plan([0, 1, 2], bits=2)
        _, report = fed.run_round_fedqvr(SPEC, server, clients, datasets, plan, 0)
        mu = 2 * 32 * len(SPEC.layer_groups())
        assert report.uplink_bits == 3 * (SPEC.dim * 3 + mu)


class TestFedavgRound:
    def test_single_epoch_equals_mean_of_one_step_models(self):
        n = 5
        clients, datasets = make_clients(n, seed=17)
        server = fresh_server(17)
        seed = 5
        plan = uniform_plan(range(n), E=1)
        expected = np.mean([
            server.theta - plan.eta * learner.stochastic_grad(
                SPEC, server.theta, *datasets[cid], plan.batch_size,
                fed.client_rng(seed, 0, cid))
            for cid in range(n)], axis=0)
        out, report = fed.run_round_fedavg(SPEC, server, clients, datasets, plan, seed)
        np.testing.assert_allclose(out.theta, expected, atol=1e-14)
        assert report.uplink_bits == n * 32 * SPEC.dim

    def test_matches_straight_loop_reference(self):
        for spec in (SPEC, MLP_SPEC):
            clients, datasets = make_clients(8, seed=25, spec=spec)
            server = ref_server = fresh_server(25, spec)
            for plan in uneven_plans(spec):
                server, report = fed.run_round_fedavg(spec, server, clients, datasets, plan, 4)
                ref_server, delivered = reference_fedavg_round(
                    spec, ref_server, datasets, plan, 4)
                np.testing.assert_array_equal(server.theta, ref_server.theta)
                assert report.delivered_ids == delivered
                assert report.uplink_bits == 32 * spec.dim * len(delivered)

    def test_all_failed_keeps_model(self):
        clients, datasets = make_clients(3, seed=18)
        server = fresh_server(18)
        plan = uniform_plan([0, 1], failed=frozenset({0, 1}))
        out, report = fed.run_round_fedavg(SPEC, server, clients, datasets, plan, 0)
        np.testing.assert_array_equal(out.theta, server.theta)
        assert report.delivered_ids == []
        assert report.uplink_bits == 0


class TestScaffoldRound:
    def test_reduces_to_fedavg_when_controls_are_zero_single_epoch(self):
        n = 4
        clients, datasets = make_clients(n, seed=19)
        server = fresh_server(19)
        plan = uniform_plan(range(n), E=1)
        avg_out, _ = fed.run_round_fedavg(SPEC, server, clients, datasets, plan, 3)
        sca_out, _ = fed.run_round_scaffold(SPEC, server, clients, datasets, plan, 3)
        np.testing.assert_allclose(sca_out.theta, avg_out.theta, atol=1e-14)

    def test_client_control_becomes_mean_logged_gradient(self):
        n = 3
        clients, datasets = make_clients(n, seed=20)
        clients[1].c_i = np.full(SPEC.dim, 0.05)
        server = fresh_server(20)
        server.c = np.full(SPEC.dim, 0.01)
        plan = uniform_plan(range(n), E=4)
        _, logs = reference_scaffold_round(
            SPEC, server, copy.deepcopy(clients), datasets, plan, 9, plan.eta_g)
        fed.run_round_scaffold(SPEC, server, clients, datasets, plan, 9)
        for cid in range(n):
            mean_g = np.mean(logs[cid], axis=0)
            np.testing.assert_allclose(clients[cid].c_i, mean_g, atol=1e-12)

    def test_server_control_update_rule(self):
        n = 5
        clients, datasets = make_clients(n, seed=21)
        server = fresh_server(21)
        old_ci = [cl.c_i.copy() for cl in clients]
        plan = uniform_plan([0, 2], E=2)
        out, _ = fed.run_round_scaffold(
            SPEC, server, clients, datasets, plan, 1)
        expected = server.c + sum(
            (clients[cid].c_i - old_ci[cid]) / n for cid in (0, 2))
        np.testing.assert_allclose(out.c, expected, atol=1e-14)

    def test_matches_straight_loop_reference(self):
        for spec in (SPEC, MLP_SPEC):
            clients, datasets = make_clients(8, seed=26, spec=spec)
            ref_clients = copy.deepcopy(clients)
            server = ref_server = fresh_server(26, spec)
            for plan in uneven_plans(spec, eta_g=0.9):
                server, report = fed.run_round_scaffold(
                    spec, server, clients, datasets, plan, 6)
                ref_server, ref_logs = reference_scaffold_round(
                    spec, ref_server, ref_clients, datasets, plan, 6, plan.eta_g)
                assert_same_state(server, clients, ref_server, ref_clients)
                assert report.delivered_ids == sorted(ref_logs)
                assert report.uplink_bits == 2 * 32 * spec.dim * len(ref_logs)

    def test_divergence_raises(self):
        clients, datasets = make_clients(3, seed=27)
        plan = RoundPlan(active_set=[0, 1], local_epochs={0: 3, 1: 3},
                         bits={}, batch_size=10, eta=1e308)
        with pytest.raises(FloatingPointError, match="diverged"):
            fed.run_round_scaffold(SPEC, fresh_server(27), clients, datasets, plan, 0)

    def test_uplink_cost_is_double_raw(self):
        clients, datasets = make_clients(3, seed=22)
        server = fresh_server(22)
        plan = uniform_plan([0, 1])
        _, report = fed.run_round_scaffold(
            SPEC, server, clients, datasets, plan, 0)
        assert report.uplink_bits == 2 * 2 * 32 * SPEC.dim


class TestStepsizeConditionValidator:
    def test_reports_structure_and_margins(self):
        out = fed.validate_stepsize_conditions(
            gamma=0.3, eta=0.01, a=0.3, e_tilde_max=2.0, omega_max=0.1,
            num_clients=50, m=10, smoothness=1.0)
        assert set(out) >= {"eta_condition_ok", "gamma_condition_ok",
                            "eta_cap", "gamma_floor"}
        assert out["gamma_floor"] >= 8.0  # 8L term with L = 1
        assert not out["gamma_condition_ok"]
        assert out["degenerate_eta"] is False

    def test_tiny_eta_satisfies_cap_and_huge_gamma_satisfies_floor(self):
        out = fed.validate_stepsize_conditions(
            gamma=1000.0, eta=1e-12, a=0.3, e_tilde_max=2.0, omega_max=0.1,
            num_clients=50, m=10, smoothness=1.0)
        assert out["eta_condition_ok"] and out["gamma_condition_ok"]

    def test_rejects_bad_a(self):
        with pytest.raises(ValueError):
            fed.validate_stepsize_conditions(0.3, 0.01, 0.0, 2.0, 0.1, 10, 5, 1.0)


class TestSmoothnessEstimate:
    def test_matches_exact_hessian_norm_for_logistic(self):
        rng = np.random.default_rng(23)
        spec = ModelSpec(kind=LOGISTIC, input_dim=3, num_classes=2)
        X = rng.normal(size=(25, 3))
        y = rng.integers(0, 2, size=25)
        theta = 0.1 * rng.normal(size=spec.dim)
        est = fed.estimate_smoothness(spec, theta, X, y, iters=60)
        # exact Hessian by dense finite differences of the gradient
        H = np.empty((spec.dim, spec.dim))
        eps = 1e-6
        for j in range(spec.dim):
            e = np.zeros(spec.dim)
            e[j] = eps
            H[:, j] = (learner.grad(spec, theta + e, X, y)
                       - learner.grad(spec, theta - e, X, y)) / (2 * eps)
        exact = np.linalg.norm(H, 2)
        assert est == pytest.approx(exact, rel=1e-3)


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
