"""Invariant checks runnable from the command line.

This module is the one definition of the experiments of acceptance criteria
1-4. Each check takes its seed and sizes as arguments and returns whether its
statistic meets its threshold, with a line that names both.
``tests/test_acceptance.py`` runs each check at its criterion's seed and
sizes; ``fedsim verify`` runs the same statistics at these smaller defaults:

- quantizer unbiasedness: 5 vectors of 32 elements, 40,000 draws
  (criterion 1: 50 x 64, 100,000 draws);
- quantizer contraction: 20 vectors of 64 elements, 2,000 draws
  (criterion 2: 100 x 100, 10,000 draws);
- control-variate identity: 15 rounds of 3 of 10 clients
  (criterion 3: 50 rounds of 3 and of 10);
- closed-form local update: 1 trial per point of the (gamma*eta) x E grid
  (criterion 4: 20 trials).

The closed form is checked on the round engine's own fedqvr step
(``fedqvr_steps``), so it watches the step every run takes. The module also
checks allocation KKT residuals on random instances whose bandwidth is drawn
log-uniform over [1e3, 1e30] Hz.
"""

from __future__ import annotations

import numpy as np

from . import alloc, fed, learner, quantizer
from .fed import RoundPlan, ServerState


def check_quantizer_unbiased(seed: int = 0, vectors: int = 5, size: int = 32,
                             draws: int = 40_000) -> tuple[bool, str]:
    """Each element's Monte Carlo mean lies within 4 standard errors of the input."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(vectors):
        z = rng.normal(size=size)
        for B in (1, 2, 4):
            mean = quantizer.empirical_mean_dequantized(z, B, draws, rng)
            # exact two-point sampling noise per element:
            # sigma_j = step * sqrt(f_j (1 - f_j)) from the grid position
            mags = np.abs(z)
            lo, hi = mags.min(), mags.max()
            k = (1 << B) - 1
            step = (hi - lo) / k
            pos = (mags - lo) * (k / (hi - lo))
            frac = np.clip(pos - np.clip(np.floor(pos), 0, k - 1), 0.0, 1.0)
            se = step * np.sqrt(frac * (1.0 - frac)) / np.sqrt(draws)
            tol = 4.0 * se + 1e-12
            worst = max(worst, float(np.max(np.abs(mean - z) / tol)))
    return worst <= 1.0, (f"max |mean - z| = {worst:.3f} of the 4-SE tolerance over "
                          f"{vectors}x{size} elements, B in {{1,2,4}}, {draws} draws each")


def check_quantizer_contraction(seed: int = 1, vectors: int = 20, size: int = 64,
                                draws: int = 2000) -> tuple[bool, str]:
    """The mean relative error stays within ``omega_bound`` at every B in
    {1, 2, 4} and is larger at B = 1 than at B = 4."""
    rng = np.random.default_rng(seed)
    worst_margin = -np.inf
    worst_gap = np.inf
    for _ in range(vectors):
        z = rng.uniform(-0.4, 0.4, size=size)
        emps = {}
        for B in (1, 2, 4):
            emps[B] = quantizer.empirical_omega(z, B, draws, rng)
            worst_margin = max(worst_margin, emps[B] - quantizer.omega_bound(z, B))
        worst_gap = min(worst_gap, emps[1] - emps[4])
    return worst_margin <= 0.0 and worst_gap > 0.0, (
        f"max (empirical - bound) = {worst_margin:.3e}, min (omega_B1 - omega_B4) = "
        f"{worst_gap:.3e} over {vectors} vectors of {size}, {draws} draws each")


def check_control_variate_identity(seed: int = 2, m: int = 3,
                                   rounds: int = 15) -> tuple[bool, str]:
    """c = sum_i p_i c_i after every fedqvr round of m of 10 clients.

    Each client's weight p_i is its share of the samples, so the weights
    differ. As in a run, round r's cohort and local epochs (1-5) come from
    its sampling and HLU streams, and each client's steps from its own
    stream; its channel stream sets its bit width (1-4) and whether its
    upload is lost.
    """
    rng = np.random.default_rng(seed)
    spec = learner.ModelSpec(kind=learner.LOGISTIC, input_dim=6, num_classes=3)
    sizes = rng.integers(20, 40, size=10)
    datasets = [(rng.normal(size=(n, 6)), rng.integers(0, 3, size=n)) for n in sizes]
    server = ServerState(theta=learner.init_params(spec, rng), c=np.zeros(spec.dim))
    p, C = sizes / sizes.sum(), np.zeros((len(sizes), spec.dim))
    worst = 0.0
    for r in range(rounds):
        sampling, hlu = fed.generators(fed.stream_keys(seed, [fed.SAMPLING, fed.HLU], r))
        active = fed.sample_clients(len(p), m, sampling)
        channels = fed.generators(fed.stream_keys(seed, fed.CHANNEL, r, active))
        plan = RoundPlan(
            active_set=active,
            local_epochs=dict(zip(active, hlu.integers(1, 6, size=m).tolist())),
            bits={c: int(ch.integers(1, 5)) for c, ch in zip(active, channels)},
            failed=frozenset(c for c, ch in zip(active, channels) if ch.random() < 0.25),
            batch_size=10, eta=0.01)
        rngs = dict(zip(active, fed.generators(fed.stream_keys(seed, fed.CLIENT, r, active))))
        server, _ = fed.run_round_fedqvr(spec, server, p, C, datasets, plan, rngs)
        mix = sum(p_i * c_i for p_i, c_i in zip(p, C))  # in client order
        worst = max(worst, float(np.max(np.abs(server.c - mix))))
    return worst <= 1e-10, (f"max ||c - sum p_i c_i||_inf = {worst:.3e} over {rounds} "
                            f"rounds of {m} of 10 clients")


def fedqvr_steps(spec: learner.ModelSpec, theta0: np.ndarray, c_i: np.ndarray,
                 X: np.ndarray, y: np.ndarray, epochs: int, batch_size: int,
                 eta: float, gamma: float, rng: np.random.Generator,
                 ) -> tuple[np.ndarray, list[np.ndarray]]:
    """One client's fedqvr local steps from ``theta0``, taken by the round
    engine: ``fed._local_phase`` with ``fed.FEDQVR.stepper``.

    Returns the final iterate and each step's minibatch gradient, copied
    before the step overwrites it.
    """
    plan = RoundPlan(active_set=[0], local_epochs={0: epochs}, bits={},
                     batch_size=batch_size, eta=eta, gamma=gamma)
    server = ServerState(theta=theta0, c=np.zeros_like(theta0))  # broadcasts theta0
    step = fed.FEDQVR.stepper(server, plan, theta0, c_i[None])
    grads: list[np.ndarray] = []

    def recording_step(theta, g, ids):
        grads.append(g[0].copy())
        step(theta, g, ids)

    block, = fed._local_phase(spec, theta0, [0], np.array([epochs]), [(X, y)], batch_size,
                              [rng], recording_step)
    return block.theta[0], grads


def check_closed_form_update(seed: int = 3, trials: int = 1,
                             gamma_etas: tuple[float, ...] = (1e-3, 1e-2, 1e-1),
                             epochs: tuple[int, ...] = (1, 2, 5, 17)) -> tuple[bool, str]:
    """E steps of the engine equal one step of length eta * E_tilde on the
    b_t-weighted mean of (g_t - c_i), at each gamma*eta and E of the grid.
    Each trial starts from its own perturbed theta0 and draws its
    minibatches from its own stream."""
    rng = np.random.default_rng(seed)
    spec = learner.ModelSpec(kind=learner.LOGISTIC, input_dim=4, num_classes=3)
    X = rng.normal(size=(40, 4))
    y = rng.integers(0, 3, size=40)
    eta = 0.05
    worst = 0.0
    for ge in gamma_etas:
        gamma = ge / eta
        for E in epochs:
            for trial in range(trials):
                theta0 = learner.init_params(spec, np.random.default_rng(trial)) \
                    + 0.1 * rng.normal(size=spec.dim)
                c_i = 0.01 * rng.normal(size=spec.dim)
                theta_new, grads = fedqvr_steps(spec, theta0, c_i, X, y, E, 8, eta, gamma,
                                                np.random.default_rng([E, trial]))
                b = fed.b_weights(gamma, eta, E)
                et = fed.e_tilde(gamma, eta, E)
                pred = theta0 - eta * et * sum(
                    (b[t] / b.sum()) * (grads[t] - c_i) for t in range(E))
                worst = max(worst, float(np.max(np.abs(theta_new - pred))))
    return worst <= 1e-10, (f"max deviation = {worst:.3e} over the {len(gamma_etas)}x"
                            f"{len(epochs)} (gamma*eta) x E grid, {trials} per point")


def check_alloc_kkt(seed: int = 4) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(2, 4))
        p = alloc.AllocProblem(
            gains=rng.uniform(1e-8, 1e-5, size=m),
            taus=np.full(m, 1e-3),
            w_total=float(10 ** rng.uniform(3, 30)),
            alpha=float(rng.choice([0.0, 0.5, 0.9, 2.0, 1000.0])),
            d=10_000, mu=384, noise_psd=10 ** (-14.3) / 1000)
        sol = alloc.solve_alloc(p)
        if sol.feasible:
            worst = max(worst, sol.kkt_residual)
    ok = worst <= 1e-6
    return ok, f"max KKT residual = {worst:.3g} over 10 random instances"


ALL_CHECKS = [
    ("quantizer-unbiasedness (criterion 1)", check_quantizer_unbiased),
    ("quantizer-contraction (criterion 2)", check_quantizer_contraction),
    ("control-variate-identity (criterion 3)", check_control_variate_identity),
    ("closed-form-local-update (criterion 4)", check_closed_form_update),
    ("allocation-kkt", check_alloc_kkt),
]


def run_all() -> bool:
    all_ok = True
    for name, fn in ALL_CHECKS:
        ok, detail = fn()
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
