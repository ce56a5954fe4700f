"""Acceptance suite: one test per acceptance criterion.

Run ``pytest tests/test_acceptance.py -v`` for one PASSED/FAILED line per
criterion. Each test prints a one-line summary with the measured values
(visible with ``-s`` or on failure).
"""

import dataclasses

import numpy as np
import pytest

from fedsim import alloc, fed, harness, learner, verify
from fedsim.learner import LOGISTIC, MLP, ModelSpec
from oracles import brute_force_alloc, load_script

claims = load_script("claims")  # the claim experiments of criteria 9-12

NOISE = 10 ** (-14.3) / 1e3


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_quantizer_unbiasedness():
    """Element-wise Monte Carlo mean within 4 standard errors of the input."""
    report("unbiasedness", *verify.check_quantizer_unbiased(
        seed=123, vectors=50, size=64, draws=100_000))


def test_criterion_02_quantizer_contraction():
    """Empirical relative error within the analytic bound; tighter at B=4."""
    report("contraction", *verify.check_quantizer_contraction(
        seed=7, vectors=100, size=100, draws=10_000))


@pytest.mark.parametrize("m", [3, 10])
def test_criterion_03_control_variate_identity(m):
    """c^r equals sum_i p_i c_i^r after every round, with partial
    participation, weights that differ between clients, heterogeneous local
    epochs and bit widths, and lost uploads."""
    report(f"control-variate-identity (m={m})", *verify.check_control_variate_identity(
        seed=50 + m, m=m, rounds=50))


def test_criterion_04_closed_form_local_update():
    """E local steps of the round engine (``fed._local_phase`` with
    ``fed.FEDQVR.stepper``) collapse to one effective step on the
    geometric-weighted average of the logged gradients."""
    report("closed-form-local-update", *verify.check_closed_form_update(seed=4, trials=20))


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
    theta = learner.init_params(spec, np.random.default_rng(6)) + 0.1 * rng.normal(size=spec.dim)
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
    """The dual Newton solution (safeguarded Newton per device, a Newton step
    on the log price from the slices' summed derivatives) agrees with a
    zooming grid search and satisfies the stationarity/budget conditions."""
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
        obj_bf, _ = brute_force_alloc(p, grid)
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
    quarter of the 32-bit uplink cost, on every seed. A fedavg run that never
    reaches the target in its 150 rounds counts as more rounds than any run
    that does."""
    details = []
    ok = True
    for seed in (0, 1, 2):
        rec = claims.criterion_9(seed, 150)
        qvr, avg = rec["fedqvr_rounds"], rec["fedavg_rounds"]
        if qvr is None:
            ok = False
            details.append(f"seed {seed}: never reached target")
            continue
        ok = ok and (avg is None or qvr < avg) and rec["bit_ratio"] < 0.25
        details.append(f"seed {seed}: target {rec['target']:.3f}, rounds {qvr} vs "
                       f"{'never' if avg is None else avg}, bit ratio {rec['bit_ratio']:.3f}")
    report("fewer-rounds-fewer-bits", ok, "; ".join(details))


def test_criterion_10_more_bits_never_hurt_final_accuracy():
    """Median final accuracy at B=4 is at least that at B=1 (within 0.01)."""
    recs = [claims.criterion_10(seed, 150) for seed in (0, 1, 2)]
    med1, med4 = (np.median([rec[f"accuracy_b{B}"] for rec in recs]) for B in (1, 4))
    report("bit-width-monotonicity", med4 >= med1 - 0.01,
           f"median final accuracy B=4: {med4:.3f} vs B=1: {med1:.3f}")


def test_criterion_11_allocation_beats_equal_split_under_drops():
    """With a delay budget that drops at least 30% of equal-split uploads,
    the joint bandwidth/bit allocation (fedqvr_e) ends with a lower training
    loss than the equal split in at least 15 of the 20 seeds 0-19; under a
    fair coin that has probability 0.021. Final test accuracy has saturated
    by round 150 and cannot separate the two; the training loss can. Both
    runs of a seed see the same channel realizations: no stream key holds
    the algorithm."""
    recs = [claims.criterion_11(seed, 150) for seed in range(20)]
    drop_frac = sum(rec["lost"] for rec in recs) / sum(rec["sent"] for rec in recs)
    wins = sum(rec["train_loss_allocated"] < rec["train_loss_equal"] for rec in recs)
    ok = drop_frac >= 0.30 and wins >= 15
    report("wireless-allocation-advantage", ok,
           f"equal-split drop fraction = {drop_frac:.2f}, allocated final training "
           f"loss below the equal split's in {wins} of {len(recs)} seeds")


def test_criterion_12_byte_identical_reruns(tmp_path):
    """The same config produces byte-identical metrics CSVs on rerun."""
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        harness.run_experiment(dataclasses.replace(
            harness.parse_config(claims.WIRELESS), seed=3, rounds=20, eval_every=5,
            out=str(out)))
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    report("byte-identical-reruns", ok,
           f"{len(outs[0])} CSV bytes identical across independent reruns")
