"""Acceptance suite: one test per acceptance criterion.

Run ``pytest tests/test_acceptance.py -v`` for one PASSED/FAILED line per
criterion. Each test prints a one-line summary with the measured values
(visible with ``-s`` or on failure).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from fedsim import alloc, data, fed, harness, learner, quantizer
from fedsim.fed import ClientState, RoundPlan, ServerState
from fedsim.harness import ExperimentConfig, WirelessConfig
from fedsim.learner import LOGISTIC, MLP, ModelSpec

NOISE = 10 ** (-14.3) / 1e3


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def experiment_config(algorithm, seed, rounds, eval_every=1, bits=2,
                      wireless=None):
    cfg = ExperimentConfig(
        algorithm=algorithm,
        dataset={"kind": "synthetic", "num_classes": 5, "dim": 20,
                 "samples_per_class": 200, "test_samples_per_class": 100,
                 "separation": 3.0},
        num_clients=20, sample_size=5, rounds=rounds, batch_size=50,
        eta=0.01, bits=bits, labels_per_client=1, eval_every=eval_every,
        seed=seed)
    if wireless is not None:
        cfg.wireless_cfg = wireless
    return cfg


def test_criterion_01_quantizer_unbiasedness():
    """Element-wise Monte Carlo mean within 4 standard errors of the input."""
    rng = np.random.default_rng(123)
    n = 100_000
    worst = 0.0
    for _ in range(50):
        z = rng.normal(size=64)
        for B in (1, 2, 4):
            mean = quantizer.empirical_mean_dequantized(z, B, n, rng)
            # exact two-point sampling noise per element:
            # sigma_j = step * sqrt(f_j (1 - f_j)) from the grid position
            mags = np.abs(z)
            lo, hi = mags.min(), mags.max()
            k = (1 << B) - 1
            step = (hi - lo) / k
            pos = (mags - lo) * (k / (hi - lo))
            frac = np.clip(pos - np.clip(np.floor(pos), 0, k - 1), 0.0, 1.0)
            se = step * np.sqrt(frac * (1.0 - frac)) / np.sqrt(n)
            tol = 4.0 * se + 1e-12
            worst = max(worst, float(np.max(np.abs(mean - z) / tol)))
    report("unbiasedness", worst <= 1.0,
           f"max |mean - z| = {worst:.3f} of the 4-SE tolerance "
           f"(50 vectors, B in {{1,2,4}}, {n} draws each)")


def test_criterion_02_quantizer_contraction():
    """Empirical relative error within the analytic bound; tighter at B=4."""
    rng = np.random.default_rng(7)
    trials = 10_000
    worst_margin = -np.inf
    worst_gap = np.inf
    for _ in range(100):
        z = rng.uniform(-0.4, 0.4, size=100)
        emps = {}
        for B in (1, 2, 4):
            emps[B] = quantizer.empirical_omega(z, B, trials, rng)
            worst_margin = max(worst_margin,
                               emps[B] - quantizer.omega_bound(z, B))
        worst_gap = min(worst_gap, emps[1] - emps[4])
    ok = worst_margin <= 0.0 and worst_gap > 0.0
    report("contraction", ok,
           f"max (empirical - bound) = {worst_margin:.3e}, "
           f"min (omega_B1 - omega_B4) = {worst_gap:.3e} over 100 vectors")


@pytest.mark.parametrize("m", [3, 10])
def test_criterion_03_control_variate_identity(m):
    """c^r equals sum_i p_i c_i^r after every round, partial participation
    and heterogeneous local epochs included."""
    rng = np.random.default_rng(50 + m)
    spec = ModelSpec(kind=LOGISTIC, input_dim=6, num_classes=3)
    n_clients = 10
    datasets = [(rng.normal(size=(30, 6)), rng.integers(0, 3, size=30))
                for _ in range(n_clients)]
    sizes = rng.integers(20, 40, size=n_clients).astype(float)
    weights = sizes / sizes.sum()
    server = ServerState(theta=learner.init_params(spec, m),
                         c=np.zeros(spec.dim))
    clients = [ClientState(id=i, p=float(weights[i]), c_i=np.zeros(spec.dim))
               for i in range(n_clients)]
    worst = 0.0
    for r in range(50):
        active = fed.sample_clients(n_clients, m, np.random.default_rng([m, r]))
        plan = RoundPlan(
            active_set=active,
            local_epochs={c: int(e) for c, e in
                          zip(active, np.random.default_rng([m, r, 1])
                              .integers(1, 6, size=len(active)))},
            bits={c: 2 for c in active},
            batch_size=10, eta=0.01)
        server, _ = fed.run_round_fedqvr(spec, server, clients, datasets,
                                         plan, 99)
        mix = sum(cl.p * cl.c_i for cl in clients)
        worst = max(worst, float(np.max(np.abs(server.c - mix))))
    report(f"control-variate-identity (m={m})", worst <= 1e-10,
           f"max ||c - sum p_i c_i||_inf = {worst:.3e} over 50 rounds")


def test_criterion_04_closed_form_local_update():
    """E local steps collapse to one effective step on the geometric-weighted
    average of the logged gradients."""
    spec = ModelSpec(kind=LOGISTIC, input_dim=4, num_classes=3)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 4))
    y = rng.integers(0, 3, size=40)
    eta = 0.05
    worst = 0.0
    for ge in (1e-3, 1e-2, 1e-1):
        gamma = ge / eta
        for E in (1, 2, 5, 17):
            for trial in range(20):
                theta0 = learner.init_params(spec, trial) \
                    + 0.1 * rng.normal(size=spec.dim)
                c_i = 0.01 * rng.normal(size=spec.dim)
                theta_new, logs = fed.local_update(
                    spec, theta0, c_i, X, y, E, 8, eta, gamma,
                    np.random.default_rng([E, trial]))
                b = fed.b_weights(gamma, eta, E)
                et = fed.e_tilde(gamma, eta, E)
                pred = theta0 - eta * et * sum(
                    (b[t] / b.sum()) * (logs[t] - c_i) for t in range(E))
                worst = max(worst, float(np.max(np.abs(theta_new - pred))))
    report("closed-form-local-update", worst <= 1e-10,
           f"max deviation = {worst:.3e} over the "
           f"(gamma*eta) x E grid, 20 trials each")


def test_criterion_05_effective_step_count_identities():
    """E_tilde equals the geometric weight mass; anchor values check out."""
    worst = 0.0
    for gamma, eta, E in [(0.3, 0.01, 1), (0.3, 0.01, 2), (0.3, 0.01, 17),
                          (1.0, 0.1, 5), (10.0, 0.05, 3)]:
        b = fed.b_weights(gamma, eta, E)
        worst = max(worst, abs(fed.e_tilde(gamma, eta, E) - b.sum())
                    / b.sum())
    anchor = abs(fed.e_tilde(0.3, 0.01, 2) - 1.9910) < 5e-5
    single = abs(fed.e_tilde(0.3, 0.01, 1) - 1.0 / 1.003) < 1e-12
    ok = worst <= 1e-12 and anchor and single
    report("effective-step-count", ok,
           f"max relative E_tilde/weight-mass gap = {worst:.3e}, "
           f"E_tilde(0.3, 0.01, 2) = {fed.e_tilde(0.3, 0.01, 2):.5f}")


@pytest.mark.parametrize("spec", [
    ModelSpec(kind=LOGISTIC, input_dim=6, num_classes=4),
    ModelSpec(kind=MLP, input_dim=6, num_classes=4, hidden_dim=5),
], ids=["logistic", "mlp"])
def test_criterion_06_gradient_correctness(spec):
    """Analytic gradients match central finite differences coordinate-wise."""
    rng = np.random.default_rng(6)
    X = rng.normal(size=(25, 6))
    y = rng.integers(0, 4, size=25)
    theta = learner.init_params(spec, 6) + 0.1 * rng.normal(size=spec.dim)
    g = learner.grad(spec, theta, X, y)
    eps = 1e-6
    worst = 0.0
    for j in range(spec.dim):
        e = np.zeros(spec.dim)
        e[j] = eps
        fd = (learner.loss(spec, theta + e, X, y)
              - learner.loss(spec, theta - e, X, y)) / (2 * eps)
        worst = max(worst, abs(g[j] - fd))
    report(f"gradient-correctness ({spec.kind})", worst <= 1e-4,
           f"max |analytic - finite-difference| = {worst:.3e} "
           f"over all {spec.dim} coordinates")


def test_criterion_07_allocation_matches_grid_oracle():
    """The Newton/Illinois dual solution (safeguarded Newton per device, an
    Illinois step on the log price) agrees with a zooming grid search and
    satisfies the stationarity/budget conditions."""
    rng = np.random.default_rng(77)
    worst_gap = 0.0
    worst_kkt = 0.0
    worst_budget = 0.0
    solved = 0
    while solved < 20:
        m = int(rng.integers(2, 4))
        p = alloc.AllocProblem(
            gains=rng.uniform(1e-8, 1e-5, size=m),
            taus=np.full(m, float(rng.uniform(5e-4, 2e-3))),
            w_total=1e8, alpha=float(rng.choice([0.0, 0.5, 0.9])),
            d=10_000, mu=384, noise_psd=NOISE)
        sol = alloc.solve_alloc(p)
        if not sol.feasible or sol.dropped:
            continue
        solved += 1
        grid = 2000 if m == 2 else 2500
        obj_bf, _ = alloc.brute_force_alloc(p, grid)
        worst_gap = max(worst_gap, abs(sol.objective - obj_bf) / abs(obj_bf))
        worst_kkt = max(worst_kkt, sol.kkt_residual)
        worst_budget = max(worst_budget,
                           abs(sol.bandwidths.sum() - p.w_total) / p.w_total)
    ok = worst_gap <= 1e-4 and worst_kkt <= 1e-6 and worst_budget <= 1e-9
    report("allocation-vs-oracle", ok,
           f"max relative objective gap = {worst_gap:.3e}, "
           f"max KKT residual = {worst_kkt:.3e}, "
           f"max budget slack = {worst_budget:.3e} over 20 instances")


def test_criterion_08_floor_and_drop_conformance():
    """Floored bit counts, bit-floor drops, and delay feasibility hold on a
    broad random family."""
    rng = np.random.default_rng(88)
    checked = 0
    for _ in range(100):
        m = int(rng.integers(2, 6))
        p = alloc.AllocProblem(
            gains=rng.uniform(1e-10, 1e-4, size=m),
            taus=rng.uniform(1e-4, 5e-3, size=m),
            w_total=float(rng.uniform(1e7, 2e8)),
            alpha=float(rng.choice([0.0, 0.5, 0.9, 1.0])),
            d=int(rng.integers(1_000, 50_000)), mu=384,
            noise_psd=NOISE, b_lower=int(rng.integers(1, 4)))
        sol = alloc.solve_alloc(p)
        if not sol.feasible:
            assert sol.dropped == set(range(m))
            continue
        for i in range(m):
            if i in sol.dropped:
                assert sol.bits_floored[i] == 0
            else:
                assert sol.bits_floored[i] == int(sol.bits_continuous[i])
                assert sol.bits_floored[i] >= p.b_lower
                payload = p.d * (int(sol.bits_floored[i]) + 1) + p.mu
                rate = sol.bandwidths[i] * np.log2(
                    1 + p.gains[i] / (sol.bandwidths[i] * p.noise_psd))
                assert payload <= p.taus[i] * rate * (1 + 1e-9)
                checked += 1
    report("floor-and-drop", checked > 50,
           f"{checked} kept devices verified across 100 random instances")


def test_criterion_09_fewer_rounds_and_bits_than_fedavg():
    """Quantized variance-reduced training reaches 90% of the centralized
    accuracy in strictly fewer rounds than plain averaging, at under a
    quarter of the 32-bit uplink cost, on every seed."""
    seeds = (0, 1, 2)
    rounds = 150
    details = []
    ok = True
    for seed in seeds:
        train, test = data.make_synth_task(5, 20, 200, 100, 3.0, seed)
        spec = ModelSpec(kind=LOGISTIC, input_dim=20, num_classes=5)
        theta = learner.init_params(spec, seed)
        for _ in range(400):
            theta -= 0.5 * learner.grad(spec, theta, train.features,
                                        train.labels)
        central_acc = harness.evaluate(spec, theta, test.features, test.labels)
        target = 0.9 * central_acc

        def milestone(rows):
            for row in rows:
                if row.test_accuracy >= target:
                    return row.round, row.cumulative_uplink_bits
            return None

        qvr = milestone(harness.run_experiment(
            experiment_config("fedqvr", seed, rounds)))
        avg = milestone(harness.run_experiment(
            experiment_config("fedavg", seed, rounds)))
        if qvr is None or avg is None or qvr[0] >= avg[0]:
            ok = False
        raw_cost_same_rounds = 32 * spec.dim * 5 * qvr[0] if qvr else 0
        if qvr and qvr[1] >= 0.25 * raw_cost_same_rounds:
            ok = False
        details.append(f"seed {seed}: target {target:.3f}, rounds "
                       f"{qvr[0] if qvr else '-'} vs {avg[0] if avg else '-'}, "
                       f"bit ratio {qvr[1] / raw_cost_same_rounds:.3f}"
                       if qvr else f"seed {seed}: never reached target")
    report("fewer-rounds-fewer-bits", ok, "; ".join(details))


def test_criterion_10_more_bits_never_hurt_final_accuracy():
    """Median final accuracy at B=4 is at least that at B=1 (within 0.01)."""
    finals = {}
    for B in (1, 4):
        finals[B] = [harness.run_experiment(
            experiment_config("fedqvr", seed, 150, eval_every=50, bits=B)
        )[-1].test_accuracy for seed in (0, 1, 2)]
    med1, med4 = np.median(finals[1]), np.median(finals[4])
    report("bit-width-monotonicity", med4 >= med1 - 0.01,
           f"median final accuracy B=4: {med4:.3f} vs B=1: {med1:.3f}")


def test_criterion_11_allocation_beats_equal_split_under_drops(tmp_path):
    """With a delay budget that drops over 30% of equal-split uploads, the
    joint bandwidth/bit allocation matches or beats the equal split on the
    identical replayed channel traces."""
    tau = 4e-6
    drops = 0
    transmissions = 0
    finals_equal = []
    finals_alloc = []
    for seed in (0, 1, 2):
        chan = str(tmp_path / f"chan_{seed}.jsonl")
        rounds_log = str(tmp_path / f"rounds_{seed}.jsonl")
        cfg = experiment_config(
            "fedqvr", seed, 150, eval_every=50,
            wireless=WirelessConfig(enabled=True, tau=tau, trace_out=chan))
        cfg.trace_rounds_out = rounds_log
        finals_equal.append(harness.run_experiment(cfg)[-1].test_accuracy)
        for line in Path(rounds_log).read_text().splitlines():
            rec = json.loads(line)
            transmissions += len(rec["active"])
            drops += len(rec["active"]) - len(rec["delivered"])
        cfg_e = experiment_config(
            "fedqvr_e", seed, 150, eval_every=50,
            wireless=WirelessConfig(enabled=True, tau=tau, trace_in=chan))
        finals_alloc.append(harness.run_experiment(cfg_e)[-1].test_accuracy)
    drop_frac = drops / transmissions
    med_equal = np.median(finals_equal)
    med_alloc = np.median(finals_alloc)
    ok = drop_frac >= 0.30 and med_alloc >= med_equal
    report("wireless-allocation-advantage", ok,
           f"equal-split drop fraction = {drop_frac:.2f}, median final "
           f"accuracy {med_alloc:.3f} (allocated) vs {med_equal:.3f} (equal)")


def test_criterion_12_byte_identical_reruns(tmp_path):
    """The same config produces byte-identical metrics CSVs on rerun."""
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"{tag}.csv")
        cfg = experiment_config(
            "fedqvr_e", 3, 20, eval_every=5,
            wireless=WirelessConfig(enabled=True, tau=4e-6))
        cfg.out = out
        harness.run_experiment(cfg)
        outs.append(Path(out).read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    report("byte-identical-reruns", ok,
           f"{len(outs[0])} CSV bytes identical across independent reruns")
