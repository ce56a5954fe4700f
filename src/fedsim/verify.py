"""Self-contained invariant checks runnable from the command line.

A fast subset of the oracle suite: quantizer unbiasedness and contraction,
the control-variate aggregation identity, the closed-form local-update
equivalence, and allocation KKT residuals on random instances whose
bandwidth is drawn log-uniform over [1e3, 1e30] Hz. The closed form is
checked on the round engine's own fedqvr step (``fedqvr_steps``), so it
watches the step every run takes.
"""

from __future__ import annotations

import numpy as np

from . import alloc, fed, learner, quantizer
from .fed import ClientState, RoundPlan, ServerState


def check_quantizer_unbiased(seed: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        z = rng.normal(size=32)
        for B in (1, 2, 4):
            mean = quantizer.empirical_mean_dequantized(z, B, 40_000, rng)
            worst = max(worst, float(np.max(np.abs(mean - z))))
    ok = worst < 0.05
    return ok, f"max |mean - z| = {worst:.4g}"


def check_quantizer_contraction(seed: int = 1) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for _ in range(20):
        z = rng.uniform(-0.4, 0.4, size=64)
        B = int(rng.integers(1, 5))
        emp = quantizer.empirical_omega(z, B, 2000, rng)
        if emp > quantizer.omega_bound(z, B):
            return False, f"empirical {emp:.4g} exceeds bound for B={B}"
    return True, "empirical ratio within bound on 20 instances"


def check_control_variate_identity(seed: int = 2) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    spec = learner.ModelSpec(kind=learner.LOGISTIC, input_dim=5, num_classes=3)
    n_clients, m = 6, 3
    datasets = []
    for _ in range(n_clients):
        X = rng.normal(size=(30, 5))
        y = rng.integers(0, 3, size=30)
        datasets.append((X, y))
    server = ServerState(theta=learner.init_params(spec, rng), c=np.zeros(spec.dim))
    clients = [ClientState(p=1.0 / n_clients, c_i=np.zeros(spec.dim)) for _ in range(n_clients)]
    worst = 0.0
    for r in range(15):
        active = fed.sample_clients(
            n_clients, m, fed.generators(fed.stream_keys(seed, fed.SAMPLING, r))[0])
        plan = RoundPlan(active_set=active,
                         local_epochs={c: 2 for c in active},
                         bits={c: 2 for c in active},
                         batch_size=10, eta=0.01)
        rngs = dict(zip(active, fed.generators(fed.stream_keys(seed, fed.CLIENT, r, active))))
        server, _ = fed.run_round_fedqvr(spec, server, clients, datasets, plan, rngs)
        mix = sum(cl.p * cl.c_i for cl in clients)
        worst = max(worst, float(np.max(np.abs(server.c - mix))))
    ok = worst <= 1e-10
    return ok, f"max ||c - sum p_i c_i||_inf = {worst:.3g}"


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

    def recording_step(theta, g, rows):
        grads.append(g[0].copy())
        step(theta, g, rows)

    theta = fed._local_phase(spec, theta0, [0], np.array([epochs]), [(X, y)], batch_size,
                             [rng], recording_step)
    return theta[0], grads


def check_closed_form_update(seed: int = 3) -> tuple[bool, str]:
    """E steps of the engine equal one step of length eta * E_tilde on the
    b_t-weighted mean of (g_t - c_i)."""
    rng = np.random.default_rng(seed)
    spec = learner.ModelSpec(kind=learner.LOGISTIC, input_dim=4, num_classes=3)
    X = rng.normal(size=(40, 4))
    y = rng.integers(0, 3, size=40)
    worst = 0.0
    for ge in (1e-3, 1e-2, 1e-1):
        for E in (1, 2, 5):
            eta, gamma = 0.05, ge / 0.05
            theta0 = learner.init_params(spec, rng)
            c_i = rng.normal(size=spec.dim) * 0.01
            theta_new, grads = fedqvr_steps(spec, theta0, c_i, X, y, E, 8, eta, gamma, rng)
            b = fed.b_weights(gamma, eta, E)
            et = fed.e_tilde(gamma, eta, E)
            pred = -eta * et * sum(
                (b[t] / b.sum()) * (grads[t] - c_i) for t in range(E))
            worst = max(worst, float(np.max(np.abs((theta_new - theta0) - pred))))
    ok = worst <= 1e-10
    return ok, f"max closed-form deviation = {worst:.3g}"


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
    return ok, f"max KKT residual = {worst:.3g}"


ALL_CHECKS = [
    ("quantizer-unbiasedness", check_quantizer_unbiased),
    ("quantizer-contraction", check_quantizer_contraction),
    ("control-variate-identity", check_control_variate_identity),
    ("closed-form-local-update", check_closed_form_update),
    ("allocation-kkt", check_alloc_kkt),
]


def run_all() -> bool:
    all_ok = True
    for name, fn in ALL_CHECKS:
        ok, detail = fn()
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
