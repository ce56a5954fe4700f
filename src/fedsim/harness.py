"""Experiment orchestration: config, round planning, metrics, CSV output."""

from __future__ import annotations

import contextlib
import json
import numbers
import re
import sys
from dataclasses import dataclass, field, fields, asdict
from typing import Iterator, NamedTuple

import numpy as np

from . import alloc, data, fed, learner, quantizer, wireless
from .fed import RoundPlan, ServerState
from .learner import ModelSpec

# fedqvr_e runs fedqvr rounds on plans from the bandwidth/bit allocator
ALGORITHMS = {"fedavg": fed.FEDAVG, "scaffold": fed.SCAFFOLD,
              "fedqvr": fed.FEDQVR, "fedqvr_e": fed.FEDQVR}

# each dataset kind's keys with their declared types; all but the optional ones are required
_DATASET_KEYS = {
    "synthetic": {"num_classes": "int", "dim": "int", "samples_per_class": "int",
                  "test_samples_per_class": "int", "separation": "float"},
    "mnist": dict.fromkeys(
        ("images_path", "labels_path", "test_images_path", "test_labels_path"), "str"),
}
_OPTIONAL_DATASET_KEYS = ("test_samples_per_class",)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# The check each config field gets from its declared type (as written in the
# dataclass), with the phrase that names the type in an error.
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max, "a finite number"),  # ints too
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "a JSON object"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "tuple[int, int]": (lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_is_int, v)),
                        "a pair of integers"),
}


def _type_errors(values: dict, types: dict[str, str], prefix: str = "") -> list[str]:
    """One message per key of ``types`` whose value in ``values`` does not
    have the declared type; absent keys and other types are not checked."""
    return [f"{prefix}{k} must be {_TYPE_CHECKS[t][1]}, got {values[k]!r}"
            for k, t in types.items()
            if k in values and t in _TYPE_CHECKS and not _TYPE_CHECKS[t][0](values[k])]


def _field_type_errors(obj, prefix: str = "") -> list[str]:
    """_type_errors over the fields of the dataclass ``obj``, as declared."""
    return _type_errors(vars(obj), {f.name: f.type for f in fields(obj)}, prefix)


# a run of more digits than any float repr has: an echoed huge integer
_LONG_DIGITS = re.compile(r"\d{21,}")


class ConfigError(ValueError):
    """A config that cannot run. Each echoed integer of more than 20 digits
    is cut to its first 8 and its digit count."""

    def __init__(self, message: str):
        super().__init__(_LONG_DIGITS.sub(
            lambda d: f"{d[0][:8]}...({len(d[0])} digits)", message))


# Each range-checked field's interval, grouped by the condition under which it
# applies (its words in a message, its test). An end is a number, 2**k or a
# field, named as messages name it: "wireless x" is wireless_cfg.x, "dataset x"
# a synthetic dataset key, hlu_range[i] an end of hlu_range.
_DOMAINS = (
    ("", lambda cfg: True, {
        "sample_size": "[1, num_clients]", "rounds": "[0, inf)", "batch_size": "[1, inf)",
        "eta": "(0, inf)", "eta_g": "(0, inf)",
        "seed": "[0, 2**64)",  # every stream key holds the seed as two 32-bit words
        "eval_every": "[1, inf)", "labels_per_client": "[1, inf)",
        **dict.fromkeys(("dataset num_classes", "dataset dim", "dataset samples_per_class",
                         "dataset test_samples_per_class"), "[1, inf)"),
        "wireless total_bandwidth_hz": "[1, inf)",  # share * N0 > 0 in the equal split
        # placement stays finite: no device is nearer than the 1 m reference
        # distance of wireless.PATHLOSS_REF, and no radius squares past 1e200
        "wireless r_min": "[1, inf)", "wireless r_max": "[wireless r_min, 1e100]"}),
    ("for fedqvr and fedqvr_e", lambda cfg: cfg.algorithm in ("fedqvr", "fedqvr_e"),
     {"gamma": "(0, inf)", "a": "(0, 1)"}),
    ("for fedqvr", lambda cfg: cfg.algorithm == "fedqvr", {"bits": f"[1, {quantizer.MAX_BITS}]"}),
    ("for the MLP", lambda cfg: cfg.model_kind == learner.MLP, {"hidden_dim": "[1, inf)"}),
    ("with hlu off", lambda cfg: not cfg.hlu, {"local_epochs": "[1, 2**63)"}),
    ("with hlu on", lambda cfg: cfg.hlu,
     {"hlu_range[0]": "[1, inf)", "hlu_range[1]": "[hlu_range[0], 2**63)"}),
    ("with wireless enabled", lambda cfg: cfg.wireless_cfg.enabled, {
        # no path gain exceeds PATHLOSS_REF, and 10**(dBm/10) mW stays a
        # positive, finite float within +-3000 dBm
        "wireless pathloss_exponent": "[0, inf)",
        "wireless tx_power_dbm": "[-3000, 3000]", "wireless noise_psd_dbm_hz": "[-3000, 3000]",
        "wireless alpha": "[0, inf)", "wireless tau": "(0, inf)", "wireless b_lower": "[1, inf)",
        "wireless b_upper": f"[wireless b_lower, {quantizer.MAX_BITS}]"}),
)


def _domain_errors(cfg: ExperimentConfig) -> list[str]:
    """One message per field of ``_DOMAINS`` outside its interval where its
    condition holds; an absent dataset key is not checked."""
    values = {**vars(cfg), **{f"wireless {k}": v for k, v in vars(cfg.wireless_cfg).items()},
              **{f"dataset {k}": v for k, v in cfg.dataset.items()},
              "hlu_range[0]": cfg.hlu_range[0], "hlu_range[1]": cfg.hlu_range[1]}
    errors = []
    for when, holds, intervals in _DOMAINS:
        for name, interval in intervals.items() if holds(cfg) else ():
            if (v := values.get(name)) is None:
                continue
            low, high = (values[e] if e in values else 2 ** int(e[3:]) if e.startswith("2**")
                         else float(e) for e in interval[1:-1].split(", "))
            if not ((low <= v if interval[0] == "[" else low < v)
                    and (v <= high if interval[-1] == "]" else v < high)):
                errors.append(f"{name} must lie in {interval}{when and ' ' + when}, got {v!r}")
    return errors


@dataclass
class WirelessConfig:
    enabled: bool = False
    alpha: float = 0.5
    tau: float = 1.0
    b_lower: int = 1
    b_upper: int = 24
    tx_power_dbm: float = 30.0
    noise_psd_dbm_hz: float = -143.0
    total_bandwidth_hz: float = 1e8
    pathloss_exponent: float = 2.0
    r_min: float = 10.0
    r_max: float = 500.0
    trace_out: str | None = None  # JSON lines, one per channel draw

    @property
    def tx_power_w(self) -> float:
        return wireless.dbm_to_watts(self.tx_power_dbm)

    @property
    def noise_psd_w_hz(self) -> float:
        return wireless.dbm_to_watts(self.noise_psd_dbm_hz)


@dataclass
class ExperimentConfig:
    algorithm: str = "fedqvr"
    dataset: dict = field(default_factory=lambda: {
        "kind": "synthetic", "num_classes": 5, "dim": 20,
        "samples_per_class": 200, "test_samples_per_class": 100,
        "separation": 3.0,
    })
    model_kind: str = learner.LOGISTIC
    hidden_dim: int = 16
    num_clients: int = 20
    sample_size: int = 10
    rounds: int = 100
    batch_size: int = 50
    eta: float = 0.01
    eta_g: float = 1.0
    gamma: float = 0.3
    a: float = 0.3
    bits: int = 2
    hlu: bool = False
    hlu_range: tuple[int, int] = (1, 5)
    local_epochs: int = 2
    labels_per_client: int = 2
    seed: int = 0
    eval_every: int = 5
    wireless_cfg: WirelessConfig = field(default_factory=WirelessConfig)
    out: str | None = None
    trace_rounds_out: str | None = None

    def validate(self) -> None:
        errors = _field_type_errors(self) + _field_type_errors(self.wireless_cfg, "wireless ")
        if errors:  # the checks below assume the declared types
            raise ConfigError("; ".join(errors))
        ds = self.dataset
        if ds.get("kind") not in _DATASET_KEYS:
            errors.append(f"unknown dataset kind {ds.get('kind')!r}")
        else:
            keys = _DATASET_KEYS[ds["kind"]]
            if unknown := set(ds) - {"kind", *keys}:
                errors.append(f"unknown dataset fields: {sorted(unknown)}")
            if missing := [k for k in keys if k not in ds and k not in _OPTIONAL_DATASET_KEYS]:
                errors.append(f"{ds['kind']} dataset needs {missing}")
            errors += _type_errors(ds, keys, "dataset ")
        if not errors:  # the domains read the dataset's keys as declared
            errors = _domain_errors(self)
        if self.algorithm not in ALGORITHMS:
            errors.append(f"algorithm must be one of {tuple(ALGORITHMS)}, got {self.algorithm!r}")
        if self.model_kind not in (learner.LOGISTIC, learner.MLP):
            errors.append(f"model_kind must be {learner.LOGISTIC!r} or {learner.MLP!r}")
        # E_tilde would be 0; checked for a gamma and eta in their domains only
        vr = self.algorithm in ("fedqvr", "fedqvr_e")
        if vr and not errors and 1.0 + self.gamma * self.eta == 1.0:
            errors.append(f"gamma*eta must leave 1 + gamma*eta above 1 in float64, "
                          f"got {self.gamma * self.eta!r}")
        if self.algorithm == "fedqvr_e" and not self.wireless_cfg.enabled:
            errors.append("fedqvr_e requires wireless.enabled = true")
        for name, path in (("out", self.out), ("trace_rounds_out", self.trace_rounds_out),
                           ("wireless trace_out", self.wireless_cfg.trace_out)):
            if path is not None and "\x00" in path:
                errors.append(f"{name} must not contain a NUL character")
        if errors:
            raise ConfigError("; ".join(errors))

    def to_json(self) -> str:
        d = asdict(self)
        d["hlu_range"] = list(self.hlu_range)
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        wcfg = raw.pop("wireless_cfg", {})
        if not isinstance(wcfg, dict):
            raise ConfigError(f"wireless_cfg must be a JSON object, got {wcfg!r}")
        for kind, keys, what in ((cls, raw, "config"), (WirelessConfig, wcfg, "wireless_cfg")):
            if unknown := set(keys) - {f.name for f in fields(kind)}:
                raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.wireless_cfg = WirelessConfig(**wcfg)
        if isinstance(raw.get("hlu_range"), list):
            cfg.hlu_range = tuple(raw["hlu_range"])
        cfg.validate()
        return cfg


@dataclass(slots=True)  # a run returns one per evaluation: no __dict__ each
class MetricsRow:
    round: int
    train_loss: float
    test_accuracy: float
    cumulative_uplink_bits: int
    active_count: int
    dropped_count: int

    def csv_line(self) -> str:
        return (f"{self.round},{self.train_loss!r},{self.test_accuracy!r},"
                f"{self.cumulative_uplink_bits},{self.active_count},{self.dropped_count}")


CSV_HEADER = ",".join(f.name for f in fields(MetricsRow))


def evaluate(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Accuracy on a held-out set; argmax ties break to the lowest class."""
    return float((learner.predict(spec, theta, X) == y).mean())


def parse_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        return ExperimentConfig.from_json(f.read())


def _build_task(cfg: ExperimentConfig) -> tuple[data.Dataset, data.Dataset, list[np.ndarray]]:
    """Train and test sets and each client's sample indices; a dataset that
    cannot be built as configured, or a test set that cannot score the
    model, raises ConfigError."""
    data_rng, part_rng = fed.generators(fed.stream_keys(cfg.seed, [fed.DATA, fed.PARTITION]))
    ds = cfg.dataset
    try:
        if ds["kind"] == "synthetic":
            train, test = data.make_synth_task(
                num_classes=ds["num_classes"], dim=ds["dim"],
                samples_per_class=ds["samples_per_class"],
                test_samples_per_class=ds.get("test_samples_per_class", 100),
                separation=ds["separation"], rng=data_rng)
        else:
            train = data.load_mnist_idx(ds["images_path"], ds["labels_path"])
            test = data.load_mnist_idx(ds["test_images_path"], ds["test_labels_path"])
        if test.n == 0:
            raise ValueError("the test set is empty")
        if test.features.shape[1] != train.features.shape[1]:
            raise ValueError(f"test samples have {test.features.shape[1]} features, "
                             f"training samples {train.features.shape[1]}")
        shards = data.shard_partition(train, cfg.num_clients, cfg.labels_per_client, part_rng)
    except (ValueError, TypeError) as e:  # IdxFormatError is a ValueError
        raise ConfigError(f"dataset: {e}") from e
    return train, test, shards


def _client_order(train: data.Dataset, shards: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The partitioned samples' features and labels, client after client.
    The features are a view of ``train.features``, whose rows are moved
    into that order in place: the one copy of the training features a run
    keeps. The global training loss is evaluated over these rows only."""
    used = np.concatenate(shards)
    return data.take_rows_in_place(train.features, used), train.labels[used]


def _epochs_for(cfg: ExperimentConfig, active: list[int],
                rng: np.random.Generator | None) -> dict[int, int]:
    """Local steps per client: ``cfg.local_epochs``, or with HLU a draw from
    the round's HLU stream ``rng``."""
    if not cfg.hlu:
        return {cid: cfg.local_epochs for cid in active}
    lo, hi = cfg.hlu_range
    draws = rng.integers(lo, hi + 1, size=len(active))
    return {cid: int(e) for cid, e in zip(active, draws)}


# Stream keys hashed together; the schedule's memory does not grow with rounds.
_KEYS_PER_BLOCK = 1024


class _RoundStreams(NamedTuple):
    """One round's draws from its schedule, the sampled clients in order."""

    round: int
    sampled: list[int]
    epochs: dict[int, int]
    channel: np.ndarray | None  # seed words of each sampled client's channel stream
    client: np.ndarray          # seed words of each sampled client's own stream


def _schedule(cfg: ExperimentConfig) -> Iterator[_RoundStreams]:
    """Every round's cohort, local steps and stream seeds, made a block of
    rounds at a time: first the block's sampling and HLU streams of each
    round r, then its sampled sets and epochs, then the seed words of the
    channel (with the wireless layer on) and client streams of every (r,
    sampled client c). Each stream is the one ``default_rng`` gives its key."""
    m = cfg.sample_size
    labels = [fed.SAMPLING, fed.HLU] if cfg.hlu else [fed.SAMPLING]
    per_block = max(1, _KEYS_PER_BLOCK // (2 + 2 * m))
    for first in range(0, cfg.rounds, per_block):
        rounds = np.arange(first, min(first + per_block, cfg.rounds))
        keys = np.concatenate([fed.stream_keys(cfg.seed, label, rounds) for label in labels])
        seeds = fed.stream_seeds(keys).reshape(len(labels), len(rounds), 4)
        sampled = [fed.sample_clients(cfg.num_clients, m, fed.generator(w)) for w in seeds[0]]
        epochs = [_epochs_for(cfg, s, fed.generator(w) if cfg.hlu else None)
                  for s, w in zip(sampled, seeds[-1])]
        pairs = (np.repeat(rounds, m), np.concatenate(sampled))
        client = fed.stream_seeds(fed.stream_keys(cfg.seed, fed.CLIENT, *pairs)).reshape(-1, m, 4)
        chan = (fed.stream_seeds(fed.stream_keys(cfg.seed, fed.CHANNEL, *pairs)).reshape(-1, m, 4)
                if cfg.wireless_cfg.enabled else [None] * len(rounds))
        yield from map(_RoundStreams, rounds.tolist(), sampled, epochs, chan, client)


def _plan(cfg: ExperimentConfig, active: list[int], epochs: dict[int, int],
          bits: dict[int, int], **kw) -> RoundPlan:
    return RoundPlan(active_set=active, local_epochs={c: epochs[c] for c in active},
                     bits=bits, batch_size=cfg.batch_size, eta=cfg.eta, gamma=cfg.gamma,
                     a=cfg.a, eta_g=cfg.eta_g, **kw)


def _equal_split_plan(cfg, algo, spec, sampled, epochs, gains) -> tuple[RoundPlan, int]:
    """Every sampled device sends at ``cfg.bits`` over an equal bandwidth
    share; with the wireless layer on, an upload that misses the delay budget
    is lost. Returns the plan and the number of lost uploads."""
    failed: frozenset[int] = frozenset()
    w = cfg.wireless_cfg
    if w.enabled:
        bits = algo.payload_bits(spec, cfg.bits)
        w_each = w.total_bandwidth_hz / cfg.sample_size
        failed = frozenset(cid for cid in sampled if not wireless.transmission_ok(
            bits, w_each, w.tx_power_w * gains[cid], w.noise_psd_w_hz, w.tau))
    return _plan(cfg, sampled, epochs, {cid: cfg.bits for cid in sampled}, failed=failed), len(failed)


def _allocated_plan(cfg, algo, spec, sampled, epochs, gains) -> tuple[RoundPlan, int]:
    """fedqvr_e: the allocator gives each device its bandwidth and bits, and
    the devices it drops sit the round out, as do those whose received power
    underflows to zero. Returns the plan and the number of dropped devices."""
    w = cfg.wireless_cfg
    power = {c: w.tx_power_w * gains[c] for c in sampled}
    heard = [c for c in sampled if power[c] > 0]
    bits = {}
    if heard:
        sol = alloc.solve_alloc(alloc.AllocProblem(
            gains=np.array([power[c] for c in heard]),
            taus=np.full(len(heard), w.tau), w_total=w.total_bandwidth_hz,
            alpha=w.alpha, d=spec.dim, mu=algo.mu(spec),
            noise_psd=w.noise_psd_w_hz, b_lower=w.b_lower))
        bits = {heard[j]: min(int(sol.bits_floored[j]), w.b_upper)
                for j in range(len(heard)) if j not in sol.dropped}
    return (_plan(cfg, list(bits), epochs, bits, m_sampled=cfg.sample_size),
            len(sampled) - len(bits))


class RoundRecord(NamedTuple):
    """One round of a run. The first is round 0's evaluation: no plan, no report."""

    round: int
    channel: list[tuple[int, float, float]]  # (device, distance m, gain), wireless on
    plan: RoundPlan | None
    report: fed.RoundReport | None
    dropped: int  # devices the plan drops or loses
    row: MetricsRow | None  # on evaluation rounds


def rounds(cfg: ExperimentConfig) -> Iterator[RoundRecord]:
    """Validate ``cfg`` and build its run (task, client views, server, p and C,
    placement); return an iterator that runs a round as each record is taken."""
    cfg.validate()
    train, test, shards = _build_task(cfg)
    spec = ModelSpec(cfg.model_kind, train.features.shape[1], train.num_classes, cfg.hidden_dim)
    train_X, train_y = _client_order(train, shards)
    del train  # its features now hold the rows in client order
    # each client's shard is a view of its rows
    sizes = [a.size for a in shards]
    offsets = np.cumsum(sizes)[:-1]
    client_data = list(zip(np.split(train_X, offsets), np.split(train_y, offsets)))

    init_rng, place_rng = fed.generators(fed.stream_keys(cfg.seed, [fed.INIT, fed.PLACEMENT]))
    server = ServerState(theta=learner.init_params(spec, init_rng), c=np.zeros(spec.dim))
    # p_i = n_i / n over the partitioned samples; row i of C is client i's c_i
    p, C = np.array(sizes) / train_y.size, np.zeros((len(sizes), spec.dim))

    algo = ALGORITHMS[cfg.algorithm]
    plan_round = _allocated_plan if cfg.algorithm == "fedqvr_e" else _equal_split_plan
    wcfg = cfg.wireless_cfg
    distances = wireless.place_devices(cfg.num_clients, place_rng,
                                       r_min=wcfg.r_min, r_max=wcfg.r_max)

    def records(server: ServerState) -> Iterator[RoundRecord]:
        cumulative_bits = 0

        def evaluated(round_index: int, active: int, dropped: int) -> MetricsRow:
            return MetricsRow(round_index, learner.loss(spec, server.theta, train_X, train_y),
                              evaluate(spec, server.theta, test.features, test.labels),
                              cumulative_bits, active, dropped)

        yield RoundRecord(0, [], None, None, 0, evaluated(0, 0, 0))
        for r, sampled, epochs, channel_seeds, client_seeds in _schedule(cfg):
            channel = [(cid, d, wireless.sample_channel(d, wcfg.pathloss_exponent,
                                                        fed.generator(seeds)))
                       for cid, d, seeds in zip(sampled, distances[sampled].tolist(),
                                                channel_seeds)] if wcfg.enabled else []
            plan, dropped = plan_round(cfg, algo, spec, sampled, epochs,
                                       {cid: gain for cid, _, gain in channel})
            rngs = {cid: fed.generator(seeds) for cid, seeds in zip(sampled, client_seeds)
                    if cid in plan.active_set and cid not in plan.failed}
            server, report = getattr(fed, f"run_round_{algo.name}")(
                spec, server, p, C, client_data, plan, rngs)
            cumulative_bits += report.uplink_bits
            evaluating = (r + 1) % cfg.eval_every == 0 or r == cfg.rounds - 1
            yield RoundRecord(r, channel, plan, report, dropped, evaluated(
                r + 1, len(report.delivered_ids), dropped) if evaluating else None)

    return records(server)


def run_experiment(cfg: ExperimentConfig) -> list[MetricsRow]:
    """Run ``cfg`` and return its metrics rows. Once the run is built, the metrics
    CSV and both traces are opened and written a line per record, so a bad path
    fails before any round and a failed run keeps the lines it wrote."""
    records = rounds(cfg)
    quantized = ALGORITHMS[cfg.algorithm].quantized
    with contextlib.ExitStack() as files:
        write_row, write_channel, write_round = (
            files.enter_context(open(path, "w")).write if path else None
            for path in (cfg.out, cfg.wireless_cfg.trace_out, cfg.trace_rounds_out))
        if write_row:
            write_row(CSV_HEADER + "\n")
        rows: list[MetricsRow] = []
        for r, channel, plan, report, _, row in records:
            for cid, distance, gain in channel if write_channel else ():
                write_channel(json.dumps({"round": r, "device": cid,
                                          "distance_m": distance, "gain": gain}) + "\n")
            if write_round and plan:
                write_round(json.dumps({
                    "round": r, "active": plan.active_set, "delivered": report.delivered_ids,
                    "epochs": {str(k): v for k, v in plan.local_epochs.items()},
                    "bits": {str(k): v for k, v in plan.bits.items()} if quantized else {},
                    "uplink_bits": report.uplink_bits,
                }) + "\n")
            if row:
                rows.append(row)
                if write_row:
                    write_row(row.csv_line() + "\n")
    return rows
