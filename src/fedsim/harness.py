"""Experiment orchestration: config, round planning, metrics, CSV output."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import alloc, data, fed, learner, wireless
from .fed import ClientState, RoundPlan, ServerState
from .learner import ModelSpec

# fedqvr_e runs fedqvr rounds on plans from the bandwidth/bit allocator
ALGORITHMS = {"fedavg": fed.FEDAVG, "scaffold": fed.SCAFFOLD,
              "fedqvr": fed.FEDQVR, "fedqvr_e": fed.FEDQVR}

CSV_HEADER = "round,train_loss,test_accuracy,cumulative_uplink_bits,active_count,dropped_count"

# keys each dataset kind needs
_DATASET_KEYS = {
    "synthetic": ("num_classes", "dim", "samples_per_class", "separation"),
    "mnist": ("images_path", "labels_path", "test_images_path", "test_labels_path"),
}

# Stream labels for deriving independent RNG lineages from one master seed.
_SEED_PARTITION = 1
_SEED_PLACEMENT = 2
_SEED_SAMPLING = 3
_SEED_CHANNEL = 4
_SEED_HLU = 5


class ConfigError(ValueError):
    pass


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
    trace_out: str | None = None
    trace_in: str | None = None

    def budget(self) -> wireless.LinkBudget:
        return wireless.LinkBudget(
            tx_power_dbm=self.tx_power_dbm,
            noise_psd_dbm_hz=self.noise_psd_dbm_hz,
            total_bandwidth_hz=self.total_bandwidth_hz,
            pathloss_exponent=self.pathloss_exponent,
        )


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
        errors = []
        if self.algorithm not in ALGORITHMS:
            errors.append(f"algorithm must be one of {tuple(ALGORITHMS)}, got {self.algorithm!r}")
        if not 1 <= self.sample_size <= self.num_clients:
            errors.append("sample_size must satisfy 1 <= m <= num_clients")
        if self.rounds < 0:
            errors.append("rounds must be >= 0")
        if self.batch_size < 1:
            errors.append("batch_size must be >= 1")
        if self.eta <= 0:
            errors.append("eta must be positive")
        if self.eval_every < 1:
            errors.append("eval_every must be >= 1")
        ds = self.dataset
        if not isinstance(ds, dict):
            errors.append("dataset must be a JSON object")
        elif ds.get("kind") not in _DATASET_KEYS:
            errors.append(f"unknown dataset kind {ds.get('kind')!r}")
        elif missing := [k for k in _DATASET_KEYS[ds["kind"]] if k not in ds]:
            errors.append(f"{ds['kind']} dataset needs {missing}")
        if self.model_kind not in (learner.LOGISTIC, learner.MLP):
            errors.append(f"model_kind must be {learner.LOGISTIC!r} or {learner.MLP!r}")
        elif self.model_kind == learner.MLP and self.hidden_dim < 1:
            errors.append("hidden_dim must be >= 1")
        if self.labels_per_client < 1:
            errors.append("labels_per_client must be >= 1")
        if self.algorithm in ("fedqvr", "fedqvr_e"):
            if self.gamma is None or self.gamma <= 0:
                errors.append("gamma must be positive for variance-reduced algorithms")
            if self.a is None or not 0 < self.a < 1:
                errors.append("a must lie in (0, 1)")
        if self.algorithm == "fedqvr" and (self.bits is None or self.bits < 1):
            errors.append("bits must be >= 1 for fedqvr")
        if self.algorithm == "fedqvr_e" and not self.wireless_cfg.enabled:
            errors.append("fedqvr_e requires wireless.enabled = true")
        if self.hlu and not (len(self.hlu_range) == 2
                             and 1 <= self.hlu_range[0] <= self.hlu_range[1]):
            errors.append("hlu_range must be an increasing pair of positive ints")
        if not self.hlu and self.local_epochs < 1:
            errors.append("local_epochs must be >= 1")
        w = self.wireless_cfg
        if w.enabled:
            if not 0 <= w.alpha < math.inf:
                errors.append("wireless alpha must be finite and >= 0")
            if not 0 < w.tau < math.inf:
                errors.append("wireless tau must be positive and finite")
            if not w.b_lower >= 1:
                errors.append("wireless b_lower must be >= 1")
            if not w.b_upper >= w.b_lower:
                errors.append("wireless b_upper must be >= b_lower")
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
        wcfg = raw.pop("wireless_cfg", None) or {}
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**{k: v for k, v in raw.items() if k != "wireless_cfg"})
        cfg.wireless_cfg = WirelessConfig(**wcfg)
        if "hlu_range" in raw:
            cfg.hlu_range = tuple(raw["hlu_range"])
        cfg.validate()
        return cfg


@dataclass
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


def evaluate(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Accuracy on a held-out set; argmax ties break to the lowest class."""
    if X.shape[0] == 0:
        raise ValueError("empty evaluation set")
    return float((learner.predict(spec, theta, X) == y).mean())


def write_metrics_csv(rows: list[MetricsRow], path: str) -> None:
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for row in rows:
            f.write(row.csv_line() + "\n")


def parse_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        return ExperimentConfig.from_json(f.read())


def _build_task(cfg: ExperimentConfig) -> tuple[data.Dataset, data.Dataset, data.Partition]:
    """Train and test sets and the clients' shards; a dataset that cannot be
    built as configured raises ConfigError."""
    ds = cfg.dataset
    try:
        if ds["kind"] == "synthetic":
            train, test = data.make_synth_task(
                num_classes=ds["num_classes"], dim=ds["dim"],
                samples_per_class=ds["samples_per_class"],
                test_samples_per_class=ds.get("test_samples_per_class", 100),
                separation=ds["separation"], seed=cfg.seed)
        else:
            train = data.load_mnist_idx(ds["images_path"], ds["labels_path"])
            test = data.load_mnist_idx(ds["test_images_path"], ds["test_labels_path"])
        part = data.shard_partition(train, cfg.num_clients, cfg.labels_per_client,
                                    np.random.default_rng([cfg.seed, _SEED_PARTITION]))
    except (ValueError, TypeError) as e:  # IdxFormatError is a ValueError
        raise ConfigError(f"dataset: {e}") from e
    return train, test, part


def _model_spec(cfg: ExperimentConfig, input_dim: int, num_classes: int) -> ModelSpec:
    return ModelSpec(kind=cfg.model_kind, input_dim=input_dim,
                     num_classes=num_classes,
                     hidden_dim=cfg.hidden_dim if cfg.model_kind == learner.MLP else 0)


def _epochs_for(cfg: ExperimentConfig, active: list[int], round_index: int) -> dict[int, int]:
    if not cfg.hlu:
        return {cid: cfg.local_epochs for cid in active}
    lo, hi = cfg.hlu_range
    rng = np.random.default_rng([cfg.seed, _SEED_HLU, round_index])
    draws = rng.integers(lo, hi + 1, size=len(active))
    return {cid: int(e) for cid, e in zip(active, draws)}


def _plan(cfg: ExperimentConfig, active: list[int], epochs: dict[int, int],
          bits: dict[int, int], **kw) -> RoundPlan:
    return RoundPlan(active_set=active, local_epochs={c: epochs[c] for c in active},
                     bits=bits, batch_size=cfg.batch_size, eta=cfg.eta, gamma=cfg.gamma,
                     a=cfg.a, eta_g=cfg.eta_g, **kw)


def _equal_split_plan(cfg, algo, spec, budget, sampled, epochs, draws) -> tuple[RoundPlan, int]:
    """Every sampled device sends at ``cfg.bits`` over an equal bandwidth
    share; with the wireless layer on, an upload that misses the delay budget
    is lost. Returns the plan and the number of lost uploads."""
    failed: frozenset[int] = frozenset()
    if cfg.wireless_cfg.enabled:
        bits = algo.payload_bits(spec, cfg.bits)
        w_each = budget.total_bandwidth_hz / cfg.sample_size
        failed = frozenset(cid for cid in sampled if not wireless.transmission_ok(
            bits, w_each, budget, draws[cid].gain, cfg.wireless_cfg.tau))
    return _plan(cfg, sampled, epochs, {cid: cfg.bits for cid in sampled}, failed=failed), len(failed)


def _allocated_plan(cfg, algo, spec, budget, sampled, epochs, draws) -> tuple[RoundPlan, int]:
    """fedqvr_e: the allocator gives each device its bandwidth and bits, and
    the devices it drops sit the round out. Returns the plan and the number
    of dropped devices."""
    w = cfg.wireless_cfg
    sol = alloc.solve_alloc(alloc.AllocProblem(
        gains=np.array([budget.tx_power_w * draws[c].gain for c in sampled]),
        taus=np.full(len(sampled), w.tau), w_total=budget.total_bandwidth_hz,
        alpha=w.alpha, d=spec.dim, mu=algo.mu(spec),
        noise_psd=budget.noise_psd_w_hz, b_lower=w.b_lower))
    bits = {sampled[j]: min(int(sol.bits_floored[j]), w.b_upper)
            for j in range(len(sampled)) if j not in sol.dropped}
    return _plan(cfg, list(bits), epochs, bits, m_sampled=cfg.sample_size), len(sol.dropped)


def run_experiment(cfg: ExperimentConfig) -> list[MetricsRow]:
    cfg.validate()
    train, test, part = _build_task(cfg)
    spec = _model_spec(cfg, train.features.shape[1], train.num_classes)
    client_data = [(train.features[a], train.labels[a]) for a in part.assignments]
    # global training loss is evaluated over the partitioned samples only
    used = np.concatenate(part.assignments)
    train_X, train_y = train.features[used], train.labels[used]

    theta0 = learner.init_params(spec, cfg.seed)
    server = ServerState(theta=theta0.copy(), c=np.zeros(spec.dim))
    clients = [ClientState(id=i, p=float(part.weights[i]), c_i=np.zeros(spec.dim))
               for i in range(cfg.num_clients)]

    algo = ALGORITHMS[cfg.algorithm]
    run_round = getattr(fed, f"run_round_{algo.name}")
    plan_round = _allocated_plan if cfg.algorithm == "fedqvr_e" else _equal_split_plan

    wcfg = cfg.wireless_cfg
    budget = wcfg.budget()
    distances = wireless.place_devices(
        cfg.num_clients, np.random.default_rng([cfg.seed, _SEED_PLACEMENT]),
        r_min=wcfg.r_min, r_max=wcfg.r_max)
    replay = wireless.read_channel_trace(wcfg.trace_in) if wcfg.trace_in else None
    trace_records: list[dict] = []
    round_trace: list[dict] = []

    rows: list[MetricsRow] = []
    cumulative_bits = 0

    def snapshot(round_index: int, active: int, dropped: int) -> None:
        rows.append(MetricsRow(
            round=round_index,
            train_loss=learner.loss(spec, server.theta, train_X, train_y),
            test_accuracy=evaluate(spec, server.theta, test.features, test.labels),
            cumulative_uplink_bits=cumulative_bits,
            active_count=active, dropped_count=dropped))

    snapshot(0, 0, 0)

    for r in range(cfg.rounds):
        rng_sample = np.random.default_rng([cfg.seed, _SEED_SAMPLING, r])
        sampled = fed.sample_clients(cfg.num_clients, cfg.sample_size, rng_sample)
        epochs = _epochs_for(cfg, sampled, r)

        draws: dict[int, wireless.ChannelDraw] = {}
        if wcfg.enabled:
            for cid in sampled:
                if replay is not None:
                    draws[cid] = replay[(r, cid)]
                else:
                    rng_ch = np.random.default_rng([cfg.seed, _SEED_CHANNEL, r, cid])
                    draws[cid] = wireless.sample_channel(
                        float(distances[cid]), budget, rng_ch)
                trace_records.append({
                    "round": r, "device": cid,
                    "distance_m": draws[cid].distance_m, "gain": draws[cid].gain})

        plan, dropped_count = plan_round(cfg, algo, spec, budget, sampled, epochs, draws)
        server, report = run_round(spec, server, clients, client_data, plan, cfg.seed)

        cumulative_bits += report.uplink_bits
        round_trace.append({
            "round": r, "active": report.active_ids,
            "delivered": report.delivered_ids,
            "epochs": {str(k): v for k, v in report.epochs.items()},
            "bits": {str(k): v for k, v in report.bits.items()},
            "uplink_bits": report.uplink_bits,
        })
        if (r + 1) % cfg.eval_every == 0 or r == cfg.rounds - 1:
            snapshot(r + 1, len(report.delivered_ids), dropped_count)

    if cfg.out:
        write_metrics_csv(rows, cfg.out)
    if wcfg.trace_out and replay is None:
        wireless.write_channel_trace(wcfg.trace_out, trace_records)
    if cfg.trace_rounds_out:
        with open(cfg.trace_rounds_out, "w") as f:
            for rec in round_trace:
                f.write(json.dumps(rec) + "\n")
    return rows
