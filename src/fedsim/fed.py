"""Federated protocol state machines.

Implements the quantized variance-reduced protocol (control variates at
server and clients, geometric-weighted local updates, quantized uplink of
model differences) alongside plain federated averaging and the SCAFFOLD
baseline. The three share one round engine, ``run_round``; each algorithm is
an object with its start point, local step, aggregate and upload cost.
The engine steps the delivered clients a block at a time, in as few blocks
as keep each step's stacked gradient within ``learner.STEP_ROWS`` sample
rows, equal in size to within one client. Two buffers of the largest block,
the iterates and one gradient, serve every block and every step; the steps
read each client's control variate from its row of C in place. The aggregate folds each finished block into the server's theta and c
(fedqvr one quantized upload at a time) before the next block steps, so a
round's memory does not grow with the cohort. All randomness flows through
streams keyed by the five 32-bit words (seed low, seed high, label, round,
client), so results are independent of client scheduling order;
``stream_keys`` lays the keys out and ``stream_seeds`` hashes them, many keys
at a time. The caller counts the rounds and hands each round its streams;
the state is the server's theta and c and the clients' p and C.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import learner, quantizer
from .learner import ModelSpec

RAW_BITS_PER_ELEMENT = 32  # uncompressed float32 wire cost per parameter


@dataclass
class ServerState:
    theta: np.ndarray
    c: np.ndarray


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
    # uploads from these clients are lost in transit: the round does not
    # compute them, and their control variates stay as they were
    failed: frozenset[int] = frozenset()
    # original sampled-cohort size when active_set was thinned by allocation
    m_sampled: int | None = None


@dataclass
class RoundReport:
    active_ids: list[int]
    delivered_ids: list[int]
    uplink_bits: int


# Stream labels. A key is five 32-bit words [seed_lo, seed_hi, label, round,
# client], with a label that is never 0 and round = client = 0 for a stream
# drawn once per run (README, "Random streams"). Only this module knows the
# layout: every key is made by ``stream_keys``.
PARTITION, PLACEMENT, SAMPLING, CHANNEL, HLU, CLIENT, INIT, DATA = range(1, 9)
KEY_WORDS = 5

_MASK32 = 0xFFFFFFFF


def stream_keys(seed: int, label, rounds=0, clients=0) -> np.ndarray:
    """Keys [seed_lo, seed_hi, label, round, client] as the rows of an (n, 5)
    uint32 array; ``label``, ``rounds`` and ``clients`` are integers or 1-D
    arrays that broadcast to one key per row. An entry that does not fit its
    words (a label must also be >= 1) raises ValueError; none is wrapped."""
    key = np.atleast_2d(np.stack(np.broadcast_arrays(
        *map(np.asarray, (seed & _MASK32, seed >> 32, label, rounds, clients))), axis=-1))
    if not (np.all((key >= 0) & (key <= _MASK32)) and np.all(key[:, 2] >= 1)):
        raise ValueError("stream key entries must fit their 32-bit words: seed in [0, 2**64), "
                         "label in [1, 2**32), round and client in [0, 2**32)")
    return key.astype(np.uint32)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its default
# pool of four 32-bit words
_POOL = 4
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The constants of ``calls`` hashmix calls, one row per call and one more."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(calls + 1)],
                    dtype=np.uint32)[:, None]


# a key's hashmix calls: its four pool words, the 4 x 3 pool mixes, then its
# fifth word once per pool word; and the eight calls that draw the state
_HASH_A = _constants(0x43B0D7E5, 0x931E8875, _POOL + _POOL * (_POOL - 1) + _POOL)
_HASH_B = _constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)


def _hashmix(v: np.ndarray, consts: np.ndarray, k: int) -> np.ndarray:
    """SeedSequence's hashmix of each row i of ``v`` as its call k + i: an
    xor with constant k + i, then a product with constant k + i + 1."""
    v = v ^ consts[k:k + len(v)]
    v *= consts[k + 1:k + 1 + len(v)]
    return v ^ (v >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> np.uint32(16))


def stream_seeds(keys) -> np.ndarray:
    """The PCG64 seed words that ``np.random.default_rng(list(key))`` derives
    from each row of ``keys``, an (n, 5) array of 32-bit words such as
    ``stream_keys`` gives.

    Returns (n, 4) uint64: ``SeedSequence(key).generate_state(4, np.uint64)``
    for each row, computed with uint32 array operations over all rows at once.
    SeedSequence hashes the first four words into its pool, mixes each pool
    word into the three others, then the fifth word into every pool word, and
    draws the state from the pool; calls that do not depend on each other
    run as the rows of one operation.
    """
    words = np.asarray(keys, dtype=np.uint32)
    if words.ndim != 2 or words.shape[1] != KEY_WORDS:
        raise ValueError(f"keys must be an (n, {KEY_WORDS}) array, got shape {words.shape}")
    words = words.T
    pool = _hashmix(words[:_POOL], _HASH_A, 0)
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[[src] * len(dst)], _HASH_A, k))
        k += len(dst)
    pool = _mix(pool, _hashmix(words[[_POOL] * _POOL], _HASH_A, k))
    state = _hashmix(pool[[*range(_POOL)] * 2], _HASH_B, 0).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | (state[1::2] << np.uint64(32))).T)


class _SeedWords(ISeedSequence):
    """A seed sequence whose state words were computed by ``stream_seeds``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):  # all that PCG64 asks for
            raise ValueError("fixed seed words serve generate_state(4, np.uint64) only")
        return self.words


def generator(words: np.ndarray) -> np.random.Generator:
    """The generator ``np.random.default_rng(key)`` would give, from a row of
    ``stream_seeds(keys)``."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def generators(keys) -> list[np.random.Generator]:
    """One generator per row of ``keys``, as ``default_rng`` would build it."""
    return [generator(w) for w in stream_seeds(keys)]


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


def client_finish(
    theta_new: np.ndarray,
    theta0: np.ndarray,
    c_i: np.ndarray,
    bits: int,
    eta: float,
    e_tilde_val: float,
    a: float,
    rng: np.random.Generator,
    groups: list[tuple[int, int]] | None = None,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Quantize the model difference and advance the client control variate.

    Returns the dequantized difference delta_hat, the step scale
    a / (eta * E_tilde) and the new control variate. The control variate
    moves by the *quantized* difference, never the raw one; this is what
    keeps the server-side identity c = sum_i p_i c_i exact.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    step_scale = a / (eta * e_tilde_val)
    delta_hat = quantizer.dequantize(
        quantizer.quantize(theta_new - theta0, bits, rng=rng, groups=groups))
    return delta_hat, step_scale, c_i - step_scale * delta_hat


def _cohort(plan: RoundPlan) -> tuple[list[int], np.ndarray]:
    """The active clients whose uploads arrive, in id order, and their local
    steps."""
    if len(set(plan.active_set)) != len(plan.active_set):
        raise ValueError("duplicate client id in active set")
    if plan.batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    ids = sorted(cid for cid in plan.active_set if cid not in plan.failed)
    epochs = np.array([plan.local_epochs[cid] for cid in ids], dtype=np.int64)
    if np.any(epochs < 1):
        raise ValueError("epochs must be >= 1")
    return ids, epochs


class Block(NamedTuple):
    """A block of the cohort after its local steps, one row per client,
    longest local run first. ``theta`` is a view of the buffer that the next
    block overwrites; the aggregate may overwrite it too."""

    ids: list[int]                    # client id of each row
    epochs: np.ndarray                # local steps of each row
    theta: np.ndarray                 # final iterates, (k, dim)
    rngs: list[np.random.Generator]   # each row's stream after its draws
    by_id: list[tuple[int, int]]      # (client id, row) by id, the order of every reduction


def _local_phase(
    spec: ModelSpec,
    start: np.ndarray,
    ids: list[int],
    epochs: np.ndarray,
    datasets: list[tuple[np.ndarray, np.ndarray]],
    batch_size: int,
    rngs: list[np.random.Generator],
    step,
) -> Iterator[Block]:
    """Local iterations of the cohort as stacked arrays, a block of clients
    at a time; yields each block when its clients have taken all their steps.

    Client ``ids[j]`` starts at ``start`` and takes ``epochs[j]`` steps from
    its stream ``rngs[j]``. ``learner._row_blocks`` cuts ``ids``, in order,
    into as few consecutive blocks as keep one stacked gradient within
    ``learner.STEP_ROWS`` sample rows (or one minibatch, if that is larger),
    equal in size to within one client. Within a block, rows run longest
    first, ties in the order of ``ids``, so the clients still stepping at
    step t are a prefix of its rows. One buffer of iterates and one of
    gradients, the largest block in size, serve every block and every step,
    so memory does not grow with the cohort; a block must be consumed before
    the next is asked for.

    Each client of a block first draws all its minibatches from its own
    stream in one ``integers`` call of shape (epochs, batch). That call
    yields the same indices as one call per step and leaves the stream in
    the same state, since the bit generator keeps any spare 32-bit half
    between calls; ``test_fed.py::test_merged_minibatch_draw_keeps_the_stream``
    pins this. Step t gathers the features of the block's k clients still
    running, computes one stacked gradient ``g`` for them into the gradient
    buffer and calls ``step(theta, g, ids)``, which updates ``theta``, their
    iterates, in place from ``g`` (it may overwrite ``g``); ``ids`` are their
    client ids, for a step that reads their control variates.
    """
    bs = batch_size
    cuts = learner._row_blocks(len(ids), max(1, learner.STEP_ROWS // bs))
    rows = max((cut.stop - cut.start for cut in cuts), default=0)
    theta_buf, g_buf = np.empty((rows, start.size)), np.empty((rows, start.size))
    # one step's features of one block at a time, so memory stays at
    # block * batch * input
    xb = np.empty(learner.sized(rows, bs, spec.input_dim))
    for cut in cuts:
        order = sorted(range(cut.start, cut.stop), key=lambda j: -epochs[j])
        k, block_ids, block_epochs = len(order), [ids[j] for j in order], epochs[order]
        theta = theta_buf[:k]
        theta[...] = start
        feats: list[np.ndarray] = []  # per row, its client's features
        idx: list[np.ndarray] = []    # per row, its draws (epochs, batch)
        ys = np.empty(learner.sized(block_epochs[0], k, bs), dtype=np.intp)
        for row, j in enumerate(order):
            X, y = datasets[ids[j]]
            if X.shape[0] == 0:
                raise ValueError("empty client dataset")
            idx.append(rngs[j].integers(0, X.shape[0], size=(epochs[j], bs)))
            ys[:epochs[j], row] = y[idx[-1]]
            feats.append(X)
        # k at each step t: the rows still stepping, a prefix
        ks = np.count_nonzero(block_epochs > np.arange(block_epochs[0])[:, None], axis=1).tolist()
        # overflow surfaces as the non-finite iterate check below
        with np.errstate(over="ignore", invalid="ignore"):
            for t, n in enumerate(ks):
                for row in range(n):
                    feats[row].take(idx[row][t], axis=0, out=xb[row], mode="clip")
                g = learner.grad(spec, theta[:n], xb[:n], ys[t, :n], out=g_buf[:n])
                step(theta[:n], g, block_ids[:n])
                if not np.isfinite(theta[:n]).all():
                    raise FloatingPointError("local update diverged to non-finite iterate")
        yield Block(block_ids, block_epochs, theta, [rngs[j] for j in order],
                    sorted((cid, row) for row, cid in enumerate(block_ids)))


def _subtract_rows(g: np.ndarray, C: np.ndarray, ids: list[int]) -> None:
    """``g[r] -= C[ids[r]]`` for each row r, read from ``C`` in place."""
    for row, cid in enumerate(ids):
        g[row] -= C[cid]


def _add_rows(total: np.ndarray | None, block: Block) -> np.ndarray:
    """``total`` plus the block's iterates, added one at a time in client-id
    order, as ``np.sum(axis=0)`` adds the rows of a stack; a ``total`` of
    None starts at the first of them."""
    for _, j in block.by_id:
        if total is None:
            total = block.theta[j].copy()
        else:
            total += block.theta[j]
    return total


class FedAvg:
    """Local SGD; the server takes the unweighted mean of the delivered models."""

    name = "fedavg"
    quantized = False

    def payload_bits(self, spec: ModelSpec, bits: int | None) -> int:
        """Uplink bits of one upload: the model, uncompressed."""
        return RAW_BITS_PER_ELEMENT * spec.dim

    def start(self, server: ServerState, plan: RoundPlan) -> np.ndarray:
        return server.theta

    def stepper(self, server, plan, start, C):
        """The round's local step: ``step(theta, g, ids)`` updates ``theta``,
        the iterates of some rows, in place from their gradients ``g``;
        ``ids`` are the rows' client ids, whose control variates are their
        rows of ``C``. FedAvg reads none."""
        def step(theta, g, ids):
            g *= plan.eta
            theta -= g
        return step

    def aggregate(self, spec, server, p, C, plan, start, blocks) -> ServerState:
        """The mean of the delivered models: a running sum over ``blocks`` in
        client-id order, over the count. No upload keeps the model."""
        total, count = None, 0
        for block in blocks:
            total = _add_rows(total, block)
            count += len(block.ids)
        theta = total / count if count else server.theta.copy()
        return ServerState(theta=theta, c=server.c.copy())


class Scaffold(FedAvg):
    """SCAFFOLD: SGD corrected by c - c_i, control-variate refresh, and a
    server step ``plan.eta_g`` toward the mean of the delivered models."""

    name = "scaffold"

    def payload_bits(self, spec: ModelSpec, bits: int | None) -> int:
        """Uplink bits of one upload: the model and the control variate."""
        return 2 * RAW_BITS_PER_ELEMENT * spec.dim

    def stepper(self, server, plan, start, C):
        def step(theta, g, ids):
            # theta <- theta - eta * ((g + c) - c_i)
            g += server.c
            _subtract_rows(g, C, ids)
            g *= plan.eta
            theta -= g
        return step

    def aggregate(self, spec, server, p, C, plan, start, blocks) -> ServerState:
        """Each block's models join the running sum of the mean; then, in
        client-id order, each c_i <- (c_i - c) + (theta - theta_i) / (E_i * eta)
        is made from its row of ``C`` and of the block's iterates (which it
        overwrites), folded into c and committed."""
        total, count, c_new = None, 0, server.c.copy()
        for block in blocks:
            total = _add_rows(total, block)
            count += len(block.ids)
            for cid, j in block.by_id:
                diff = np.subtract(server.theta, block.theta[j], out=block.theta[j])
                diff /= block.epochs[j] * plan.eta
                c_i = C[cid] - server.c
                c_i += diff
                c_new += (c_i - C[cid]) / len(C)
                C[cid] = c_i
        theta_new = (server.theta + plan.eta_g * (total / count - server.theta) if count
                     else server.theta.copy())
        return ServerState(theta=theta_new, c=c_new)


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

    def stepper(self, server, plan, start, C):
        ge = plan.gamma * plan.eta
        anchor = (ge / (1.0 + ge)) * start

        def step(theta, g, ids):
            # theta <- (theta - eta * (g - c_i)) / (1 + ge) + (ge / (1 + ge)) * theta0
            _subtract_rows(g, C, ids)
            g *= plan.eta
            theta -= g
            theta /= 1.0 + ge
            theta += anchor
        return step

    def aggregate(self, spec, server, p, C, plan, start, blocks) -> ServerState:
        """Fold each upload into theta and c as it is made, in client-id order:

        theta <- theta0 + (N/m) * sum_i p_i * delta_hat_i
        c     <- c - sum_i p_i * step_scale_i * delta_hat_i

        Each c_i is committed at once and each upload is dropped once folded
        in, so the call's memory does not grow with the number of uploads. No
        upload leaves theta at theta0.
        """
        groups = spec.layer_groups()
        m = plan.m_sampled if plan.m_sampled is not None else len(plan.active_set)
        theta, c = start.copy(), server.c.copy()
        for block in blocks:
            for cid, j in block.by_id:
                delta_hat, step_scale, C[cid] = client_finish(
                    block.theta[j], start, C[cid], plan.bits[cid], plan.eta,
                    e_tilde(plan.gamma, plan.eta, plan.local_epochs[cid]), plan.a,
                    block.rngs[j], groups=groups)
                theta += (len(p) / m) * p[cid] * delta_hat
                c -= p[cid] * step_scale * delta_hat
        return ServerState(theta=theta, c=c)


FEDAVG, SCAFFOLD, FEDQVR = FedAvg(), Scaffold(), FedQVR()


def run_round(algo: FedAvg | FedQVR, spec: ModelSpec, server: ServerState, p: np.ndarray,
              C: np.ndarray, datasets: list[tuple[np.ndarray, np.ndarray]],
              plan: RoundPlan, rngs: dict[int, np.random.Generator],
              ) -> tuple[ServerState, RoundReport]:
    """One round of ``algo``: the cohort's local steps, its uploads, aggregation.

    Client i has weight ``p[i]`` and control variate ``C[i]``, a row that
    scaffold and fedqvr overwrite when its upload arrives. A lost upload (its
    client in ``plan.failed``) is not computed and keeps its row, as an
    inactive client does; divergence is checked on the iterates the server
    receives and on the server state it makes of them. ``rngs`` maps every
    other active client to its stream in this round, keyed [seed_lo, seed_hi,
    CLIENT, round, client]; fedqvr's quantizer draws from it after the
    minibatches.

    ``algo`` gives the start point, the in-place local step, the aggregate
    and the upload cost; the round is otherwise the same for every algorithm.
    The delivered clients step a block at a time (``_local_phase``), and the
    aggregate folds each block into the server's state, in client-id order,
    before the next block steps; so a round holds one block of iterates and
    one of gradients, whatever the cohort's size. A round that raises after
    its first block may have committed that block's control variates.
    This is the package's only local update. Every row equals the client's
    steps taken alone, one minibatch gradient at a time, bit for bit, so
    leaving a client out moves no other result.
    """
    ids, epochs = _cohort(plan)
    start = algo.start(server, plan)
    blocks = _local_phase(spec, start, ids, epochs, datasets, plan.batch_size,
                          [rngs[cid] for cid in ids], algo.stepper(server, plan, start, C))
    # a sum of finite iterates can overflow: that is divergence too
    with np.errstate(over="ignore", invalid="ignore"):
        new_server = algo.aggregate(spec, server, p, C, plan, start, blocks)
    if not (np.isfinite(new_server.theta).all() and np.isfinite(new_server.c).all()):
        raise FloatingPointError("aggregate diverged to non-finite server state")
    widths = Counter(plan.bits.get(cid) for cid in ids)  # one cost per width, not per upload
    report = RoundReport(
        active_ids=list(plan.active_set),
        delivered_ids=ids,
        uplink_bits=sum(n * algo.payload_bits(spec, b) for b, n in widths.items()),
    )
    return new_server, report


run_round_fedavg = partial(run_round, FEDAVG)
run_round_scaffold = partial(run_round, SCAFFOLD)
run_round_fedqvr = partial(run_round, FEDQVR)
