"""Reference implementations the tests compare the simulator against, and
the loader of the scripts under scripts/."""

import decimal
import importlib.util
import math
from pathlib import Path

import numpy as np

from fedsim.alloc import AllocProblem, b_of_w, objective_value, utility
from fedsim.fed import CLIENT, ServerState
from fedsim.learner import ModelSpec, grad

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    """``scripts/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def client_rng(master_seed: int, round_index: int, client_id: int) -> np.random.Generator:
    """A client's stream in a round, built by numpy itself from its key of
    32-bit words [seed_lo, seed_hi, CLIENT, round, client]."""
    return np.random.default_rng(
        [master_seed % 2**32, master_seed // 2**32, CLIENT, round_index, client_id])


def client_rngs(master_seed: int, round_index: int, ids) -> dict[int, np.random.Generator]:
    """The streams ``fed.run_round`` takes: each of ``ids`` to its ``client_rng``."""
    return {cid: client_rng(master_seed, round_index, cid) for cid in ids}


def stochastic_grad(
    spec: ModelSpec,
    theta: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Gradient over a uniform with-replacement mini-batch of ``batch_size``."""
    if X.shape[0] == 0:
        raise ValueError("empty client dataset")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    idx = rng.integers(0, X.shape[0], size=batch_size)
    return grad(spec, theta, X[idx], y[idx])


def local_update(
    spec: ModelSpec,
    theta0: np.ndarray,
    c_i: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int,
    eta: float,
    gamma: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Variance-reduced local iteration; returns final iterate and SG log.

    One client, one step at a time: the reference the round engine's
    stacked fedqvr step is compared against bit for bit.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    ge = gamma * eta
    theta = theta0.copy()
    logs: list[np.ndarray] = []
    for _ in range(epochs):
        g = stochastic_grad(spec, theta, X, y, batch_size, rng)
        logs.append(g)
        theta = (theta - eta * (g - c_i)) / (1.0 + ge) + (ge / (1.0 + ge)) * theta0
        if not np.all(np.isfinite(theta)):
            raise FloatingPointError("local update diverged to non-finite iterate")
    return theta, logs


def server_aggregate(
    server: ServerState,
    theta0: np.ndarray,
    uploads: list[tuple[int, np.ndarray, float, float]],
    m: int,
    num_clients: int,
) -> ServerState:
    """Apply the weighted quantized deltas to theta and c.

    theta <- theta0 + (N/m) * sum_i p_i * delta_hat_i
    c     <- c - sum_i p_i * step_scale_i * delta_hat_i

    ``uploads`` holds one (client id, delta_hat, step_scale, p) row per
    upload. Uploads are reduced in ascending client-id order for
    deterministic float summation. An empty upload list yields a no-op round.
    """
    ids = [cid for cid, *_ in uploads]
    if len(ids) != len(set(ids)):
        raise ValueError("duplicate client id among uploads")
    theta = theta0.copy()
    c = server.c.copy()
    for _, delta_hat, step_scale, p in sorted(uploads, key=lambda row: row[0]):
        theta += (num_clients / m) * p * delta_hat
        c -= p * step_scale * delta_hat
    return ServerState(theta=theta, c=c)


def numpy_stream_seeds(keys) -> np.ndarray:
    """``fed.stream_seeds`` one key at a time, by numpy's own SeedSequence;
    the fixtures of whole runs are recorded with it."""
    return np.array([np.random.SeedSequence(key).generate_state(4, np.uint64)
                     for key in np.asarray(keys).tolist()], dtype=np.uint64).reshape(-1, 4)


def slope_oracle(x: float) -> float:
    """log1p(x) - x/(1+x) in decimal arithmetic, correctly rounded to float.

    The difference cancels about -log10(x) digits and 1 + x needs as many
    more to be exact, so the precision grows with 1/x.
    """
    digits = 40 + 2 * max(0, math.ceil(-math.log10(x)))
    with decimal.localcontext(decimal.Context(prec=digits)):
        one_plus = 1 + decimal.Decimal(x)
        return float(one_plus.ln() - decimal.Decimal(x) / one_plus)


def brute_force_alloc(
    p: AllocProblem,
    grid_points: int,
    stages: int = 3,
) -> tuple[float, np.ndarray]:
    """Grid-search oracle over bandwidth splits of the simplex.

    Enumerates splits of the full budget, skipping splits where any device
    cannot reach a non-negative bit count. Each stage zooms the grid around
    the best point of the previous one.
    """
    m = p.num_devices
    if m > 4:
        raise ValueError("grid oracle supports at most 4 devices")
    if m == 1:
        w = np.array([p.w_total])
        return objective_value(p, w, [0]), w

    def evaluate(w: np.ndarray) -> float:
        total = 0.0
        for i in range(m):
            if w[i] <= 0:
                return -math.inf
            b = b_of_w(w[i], p.gains[i], p.taus[i], p.d, p.mu, p.noise_psd)
            if b < 0:
                return -math.inf
            total += utility(b, p.alpha)
        return total

    per_dim = max(2, int(round(grid_points ** (1.0 / (m - 1)))))
    lo = np.zeros(m - 1)
    hi = np.full(m - 1, p.w_total)
    best_obj, best_w = -math.inf, np.full(m, p.w_total / m)
    for _ in range(stages):
        axes = [np.linspace(lo[k], hi[k], per_dim) for k in range(m - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([g.ravel() for g in mesh], axis=1)
        for row in coords:
            w_last = p.w_total - row.sum()
            if w_last <= 0:
                continue
            w = np.append(row, w_last)
            obj = evaluate(w)
            if obj > best_obj:
                best_obj, best_w = obj, w
        span = (hi - lo) / (per_dim - 1)
        centre = best_w[:-1]
        lo = np.maximum(centre - span, 0.0)
        hi = np.minimum(centre + span, p.w_total)
    return best_obj, best_w
