"""Federated protocol state machines.

Implements the quantized variance-reduced protocol (control variates at
server and clients, geometric-weighted local updates, quantized uplink of
model differences) alongside plain federated averaging and the SCAFFOLD
baseline. The three share one round engine, ``run_round``; each algorithm is
an object with its start point, local step, aggregate and upload cost. All
randomness flows through per-(seed, round, client) streams so results are
independent of client scheduling order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import learner, quantizer
from .learner import ModelSpec
from .quantizer import QuantizedDelta

RAW_BITS_PER_ELEMENT = 32  # uncompressed float32 wire cost per parameter


@dataclass
class ServerState:
    theta: np.ndarray
    c: np.ndarray
    round: int = 0


@dataclass
class ClientState:
    id: int
    p: float
    c_i: np.ndarray


@dataclass
class RoundPlan:
    active_set: list[int]
    local_epochs: dict[int, int]
    bits: dict[int, int]
    batch_size: int
    eta: float
    gamma: float = 0.3
    a: float = 0.3
    eta_g: float = 1.0  # scaffold's server step toward the mean model
    # uploads from these clients are lost in transit; their state rolls back
    failed: frozenset[int] = frozenset()
    # original sampled-cohort size when active_set was thinned by allocation
    m_sampled: int | None = None


@dataclass
class ClientUpload:
    client_id: int
    delta: QuantizedDelta
    delta_hat: np.ndarray            # dequantized model difference
    step_scale: float                # a / (eta * E_tilde)


@dataclass
class RoundReport:
    round: int
    active_ids: list[int]
    delivered_ids: list[int]
    epochs: dict[int, int]
    bits: dict[int, int]
    uplink_bits: int


def client_rng(master_seed: int, round_index: int, client_id: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, round_index, client_id])


def sample_clients(num_clients: int, m: int, rng: np.random.Generator) -> list[int]:
    """m distinct client ids, uniform without replacement."""
    if not 1 <= m <= num_clients:
        raise ValueError(f"need 1 <= m <= N, got m={m}, N={num_clients}")
    return sorted(rng.choice(num_clients, size=m, replace=False).tolist())


def broadcast_point(server: ServerState, gamma: float) -> np.ndarray:
    """Broadcast point theta - c / gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return server.theta - server.c / gamma


def e_tilde(gamma: float, eta: float, E: int) -> float:
    """Effective step count (1/(gamma*eta)) * (1 - (1+gamma*eta)^-E)."""
    ge = gamma * eta
    if ge <= 0 or E < 1:
        raise ValueError("need gamma*eta > 0 and E >= 1")
    return (1.0 - (1.0 + ge) ** (-E)) / ge


def b_weights(gamma: float, eta: float, E: int) -> np.ndarray:
    """Geometric step weights b_t = (1+gamma*eta)^-(E-t), t = 0..E-1."""
    ge = gamma * eta
    if ge <= 0 or E < 1:
        raise ValueError("need gamma*eta > 0 and E >= 1")
    return (1.0 + ge) ** (-(E - np.arange(E, dtype=np.float64)))


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
    """Variance-reduced local iteration; returns final iterate and SG log."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    ge = gamma * eta
    theta = theta0.copy()
    logs: list[np.ndarray] = []
    for _ in range(epochs):
        g = learner.stochastic_grad(spec, theta, X, y, batch_size, rng)
        logs.append(g)
        theta = (theta - eta * (g - c_i)) / (1.0 + ge) + (ge / (1.0 + ge)) * theta0
        if not np.all(np.isfinite(theta)):
            raise FloatingPointError("local update diverged to non-finite iterate")
    return theta, logs


def client_finish(
    theta_new: np.ndarray,
    theta0: np.ndarray,
    c_i: np.ndarray,
    client_id: int,
    bits: int,
    eta: float,
    e_tilde_val: float,
    a: float,
    rng: np.random.Generator,
    groups: list[tuple[int, int]] | None = None,
) -> tuple[ClientUpload, np.ndarray]:
    """Quantize the model difference and advance the client control variate.

    The control variate moves by the *quantized* difference, never the raw
    one; this is what keeps the server-side identity c = sum_i p_i c_i exact.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    diff = theta_new - theta0
    step_scale = a / (eta * e_tilde_val)
    q = quantizer.quantize(diff, bits, rng=rng, groups=groups)
    delta_hat = quantizer.dequantize(q)
    upload = ClientUpload(client_id=client_id, delta=q, delta_hat=delta_hat,
                          step_scale=step_scale)
    return upload, c_i - step_scale * delta_hat


def server_aggregate(
    server: ServerState,
    theta0: np.ndarray,
    uploads: list[tuple[ClientUpload, float]],
    m: int,
    num_clients: int,
) -> ServerState:
    """Apply the weighted quantized deltas to theta and c.

    theta <- theta0 + (N/m) * sum_i p_i * delta_hat_i
    c     <- c - sum_i p_i * step_scale_i * delta_hat_i

    Uploads are reduced in ascending client-id order for deterministic
    float summation. An empty upload list yields a no-op round.
    """
    ids = [u.client_id for u, _ in uploads]
    if len(ids) != len(set(ids)):
        raise ValueError("duplicate client id among uploads")
    theta = theta0.copy()
    c = server.c.copy()
    for upload, p in sorted(uploads, key=lambda t: t[0].client_id):
        theta += (num_clients / m) * p * upload.delta_hat
        c -= p * upload.step_scale * upload.delta_hat
    return ServerState(theta=theta, c=c, round=server.round + 1)


def _cohort(plan: RoundPlan) -> tuple[list[int], np.ndarray]:
    """Active ids, longest local run first (ties in plan order), and their epochs.

    With rows in this order, the clients still stepping at step t are a
    prefix of the stacks.
    """
    if len(set(plan.active_set)) != len(plan.active_set):
        raise ValueError("duplicate client id in active set")
    if plan.batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    ids = sorted(plan.active_set, key=lambda cid: -plan.local_epochs[cid])
    epochs = np.array([plan.local_epochs[cid] for cid in ids], dtype=np.int64)
    if np.any(epochs < 1):
        raise ValueError("epochs must be >= 1")
    return ids, epochs


def _stack_controls(clients: list[ClientState], ids: list[int], dim: int) -> np.ndarray:
    """Client control variates as rows (len(ids), dim)."""
    out = np.empty((len(ids), dim))
    for j, cid in enumerate(ids):
        if clients[cid].id != cid:
            raise ValueError("clients list must be indexed by id")
        out[j] = clients[cid].c_i
    return out


def _local_phase(
    spec: ModelSpec,
    start: np.ndarray,
    ids: list[int],
    epochs: np.ndarray,
    datasets: list[tuple[np.ndarray, np.ndarray]],
    batch_size: int,
    master_seed: int,
    round_index: int,
    step,
) -> tuple[np.ndarray, list[np.random.Generator]]:
    """Local iterations of the whole cohort as stacked arrays.

    Row j is client ``ids[j]``; it starts at ``start`` and takes
    ``epochs[j]`` steps. Each client first draws all its minibatches from
    its own stream, one ``integers`` call per step as a single client does,
    so the stream is left where the single-client code leaves it. Step t
    gathers the features of the k clients still running, computes one
    stacked gradient ``g`` for them and calls ``step(theta, g, k)``, which
    updates the first k rows in place (it may overwrite ``g``). Returns the
    final iterates and each client's stream.
    """
    m, bs = len(ids), batch_size
    theta = np.tile(start, (m, 1))
    rngs: list[np.random.Generator] = []
    if m == 0:
        return theta, rngs
    idx: list[np.ndarray] = []  # per client, its draws (epochs, batch)
    ys = np.empty((epochs[0], m, bs), dtype=np.intp)
    for j, cid in enumerate(ids):
        X, y = datasets[cid]
        if X.shape[0] == 0:
            raise ValueError("empty client dataset")
        rng = client_rng(master_seed, round_index, cid)
        idx.append(np.array([rng.integers(0, X.shape[0], size=bs) for _ in range(epochs[j])]))
        ys[:epochs[j], j] = y[idx[j]]
        rngs.append(rng)
    # one step's features at a time, so memory stays at m * batch * input
    xb = np.empty((m, bs, spec.input_dim))
    # overflow surfaces as the non-finite iterate check below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(epochs[0]):
            k = int(np.count_nonzero(epochs > t))
            for j in range(k):
                # the draws are in range; "clip" only spares take's buffered copy
                np.take(datasets[ids[j]][0], idx[j][t], axis=0, out=xb[j], mode="clip")
            g = learner.grad(spec, theta[:k], xb[:k], ys[t, :k])
            step(theta[:k], g, k)
            if not np.isfinite(theta[:k]).all():
                raise FloatingPointError("local update diverged to non-finite iterate")
    return theta, rngs


class Cohort(NamedTuple):
    """A round's cohort after its local steps, one row per active client."""

    epochs: np.ndarray                # local steps per row
    start: np.ndarray                 # the point every row started from
    theta: np.ndarray                 # final iterates, (m, dim)
    c_rows: np.ndarray                # control variates at the start, (m, dim)
    rngs: list[np.random.Generator]   # each client's stream after its draws
    delivered: list[tuple[int, int]]  # (client id, row) of arriving uploads, by id

    def mean_delivered(self) -> np.ndarray:
        return np.mean(self.theta[[j for _, j in self.delivered]], axis=0)


class FedAvg:
    """Local SGD; the server takes the unweighted mean of the delivered models."""

    name = "fedavg"
    quantized = False

    def payload_bits(self, spec: ModelSpec, bits: int | None) -> int:
        """Uplink bits of one upload: the model, uncompressed."""
        return RAW_BITS_PER_ELEMENT * spec.dim

    def start(self, server: ServerState, plan: RoundPlan) -> np.ndarray:
        return server.theta

    def stepper(self, server, plan, start, c_rows):
        """The round's local step: ``step(theta, g, k)`` updates the first k
        rows of ``theta`` in place from their gradients ``g``."""
        def step(theta, g, k):
            g *= plan.eta
            theta -= g
        return step

    def aggregate(self, spec, server, clients, plan, cohort: Cohort) -> ServerState:
        theta = cohort.mean_delivered() if cohort.delivered else server.theta.copy()
        return ServerState(theta=theta, c=server.c.copy(), round=server.round + 1)


class Scaffold(FedAvg):
    """SCAFFOLD: SGD corrected by c - c_i, control-variate refresh, and a
    server step ``plan.eta_g`` toward the mean of the delivered models."""

    name = "scaffold"

    def payload_bits(self, spec: ModelSpec, bits: int | None) -> int:
        """Uplink bits of one upload: the model and the control variate."""
        return 2 * RAW_BITS_PER_ELEMENT * spec.dim

    def stepper(self, server, plan, start, c_rows):
        def step(theta, g, k):
            # theta <- theta - eta * ((g + c) - c_i)
            g += server.c
            g -= c_rows[:k]
            g *= plan.eta
            theta -= g
        return step

    def aggregate(self, spec, server, clients, plan, cohort: Cohort) -> ServerState:
        c_rows = (cohort.c_rows - server.c
                  + (server.theta - cohort.theta) / (cohort.epochs * plan.eta)[:, None])
        theta_new, c_new = server.theta.copy(), server.c.copy()
        if cohort.delivered:
            theta_new = server.theta + plan.eta_g * (cohort.mean_delivered() - server.theta)
            for cid, j in cohort.delivered:
                c_new += (c_rows[j] - clients[cid].c_i) / len(clients)
                clients[cid].c_i = c_rows[j].copy()
        return ServerState(theta=theta_new, c=c_new, round=server.round + 1)


class FedQVR:
    """Quantized variance reduction: every client starts from the broadcast
    point, takes geometric-weighted steps corrected by its control variate,
    and uploads its quantized model difference (``client_finish``)."""

    name = "fedqvr"
    quantized = True

    def mu(self, spec: ModelSpec) -> int:
        """Side bits of one upload: a (lo, hi) bound pair per layer."""
        return quantizer.side_bits(len(spec.layer_groups()))

    def payload_bits(self, spec: ModelSpec, bits: int) -> int:
        """Uplink bits of one upload: d(B+1) + mu at ``bits`` = B."""
        return quantizer.payload_bits(spec.dim, bits, self.mu(spec))

    def start(self, server: ServerState, plan: RoundPlan) -> np.ndarray:
        return broadcast_point(server, plan.gamma)

    def stepper(self, server, plan, start, c_rows):
        ge = plan.gamma * plan.eta
        anchor = (ge / (1.0 + ge)) * start

        def step(theta, g, k):
            # theta <- (theta - eta * (g - c_i)) / (1 + ge) + (ge / (1 + ge)) * theta0
            g -= c_rows[:k]
            g *= plan.eta
            theta -= g
            theta /= 1.0 + ge
            theta += anchor
        return step

    def aggregate(self, spec, server, clients, plan, cohort: Cohort) -> ServerState:
        groups = spec.layer_groups()
        uploads: list[tuple[ClientUpload, float]] = []
        for cid, j in cohort.delivered:  # each c_i is committed as soon as it is made
            upload, clients[cid].c_i = client_finish(
                cohort.theta[j], cohort.start, cohort.c_rows[j], cid, plan.bits[cid], plan.eta,
                e_tilde(plan.gamma, plan.eta, plan.local_epochs[cid]), plan.a, cohort.rngs[j],
                groups=groups)
            uploads.append((upload, clients[cid].p))
        m = plan.m_sampled if plan.m_sampled is not None else len(plan.active_set)
        return server_aggregate(server, cohort.start, uploads, m, len(clients))


FEDAVG, SCAFFOLD, FEDQVR = FedAvg(), Scaffold(), FedQVR()


def run_round(algo: FedAvg | FedQVR, spec: ModelSpec, server: ServerState,
              clients: list[ClientState], datasets: list[tuple[np.ndarray, np.ndarray]],
              plan: RoundPlan, master_seed: int) -> tuple[ServerState, RoundReport]:
    """One round of ``algo``: the cohort's local steps, its uploads, aggregation.

    ``algo`` gives the start point, the in-place local step, the aggregate
    and the upload cost; the round is otherwise the same for every algorithm.
    Inactive clients keep their control variates. Clients in ``plan.failed``
    compute, but their uploads are lost: the server skips them and their
    control variates stay as they were. Every row reproduces the
    single-client computation (``local_update`` for fedqvr) bit for bit.
    """
    ids, epochs = _cohort(plan)
    c_rows = _stack_controls(clients, ids, spec.dim)
    start = algo.start(server, plan)
    theta, rngs = _local_phase(spec, start, ids, epochs, datasets, plan.batch_size,
                               master_seed, server.round, algo.stepper(server, plan, start, c_rows))
    delivered = sorted((cid, j) for j, cid in enumerate(ids) if cid not in plan.failed)
    new_server = algo.aggregate(spec, server, clients, plan,
                                Cohort(epochs, start, theta, c_rows, rngs, delivered))
    bits = {cid: plan.bits[cid] for cid in plan.active_set} if algo.quantized else {}
    widths = Counter(bits.get(cid) for cid, _ in delivered)  # one cost per width, not per upload
    report = RoundReport(
        round=server.round,
        active_ids=list(plan.active_set),
        delivered_ids=[cid for cid, _ in delivered],
        epochs={cid: plan.local_epochs[cid] for cid in plan.active_set},
        bits=bits,
        uplink_bits=sum(n * algo.payload_bits(spec, b) for b, n in widths.items()),
    )
    return new_server, report


run_round_fedavg = partial(run_round, FEDAVG)
run_round_scaffold = partial(run_round, SCAFFOLD)
run_round_fedqvr = partial(run_round, FEDQVR)


def validate_stepsize_conditions(
    gamma: float,
    eta: float,
    a: float,
    e_tilde_max: float,
    omega_max: float,
    num_clients: int,
    m: int,
    smoothness: float,
) -> dict:
    """Advisory check of the convergence-analysis stepsize conditions.

    Evaluates the eta upper bound and the gamma lower bound with
    a_bar = a * (1 - a * omega_max) and reports per-condition margins.
    The simulator runs regardless of the outcome.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    N = num_clients
    a_bar = a * (1.0 - a * omega_max)
    eta_cap = min(
        1.0 / (2.0 * gamma * e_tilde_max * np.sqrt(N * (1.0 + omega_max))),
        m * a_bar * np.sqrt(m) / (3.0 * np.sqrt((1.0 + omega_max) * N * (2.0 * N - m * a_bar))),
    )
    gamma_floor = max(
        8.0 * smoothness,
        smoothness * np.sqrt(max(0.0, 30.0 * (a * omega_max + 3.0) / (1.0 - a * omega_max) - 4.0)),
        2.0 * smoothness * np.sqrt(N * (2.0 * N - m * a_bar)) / (m * a_bar),
    )
    return {
        "eta_condition_ok": eta <= eta_cap,
        "eta_cap": float(eta_cap),
        "eta_margin": float(eta_cap - eta),
        "gamma_condition_ok": gamma >= gamma_floor,
        "gamma_floor": float(gamma_floor),
        "gamma_margin": float(gamma - gamma_floor),
        "a_condition_ok": a < min(1.0, 1.0 / omega_max) if omega_max > 0 else True,
        "degenerate_eta": eta == 0.0,
    }


def estimate_smoothness(
    spec: ModelSpec,
    theta: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    iters: int = 30,
    seed: int = 0,
) -> float:
    """Power-iteration estimate of the Hessian spectral norm at theta."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=theta.size)
    v /= np.linalg.norm(v)
    eps = 1e-5
    lam = 0.0
    for _ in range(iters):
        hv = (learner.grad(spec, theta + eps * v, X, y)
              - learner.grad(spec, theta - eps * v, X, y)) / (2 * eps)
        lam = float(np.linalg.norm(hv))
        if lam == 0.0:
            break
        v = hv / lam
    return lam
