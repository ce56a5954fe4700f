"""Experiment orchestration: config, algorithm dispatch, metrics, CSV output."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import alloc, data, fed, learner, wireless
from .fed import ClientState, RoundPlan, ServerState
from .learner import ModelSpec
from .quantizer import QuantizerConfig, payload_bits

ALGORITHMS = ("fedavg", "scaffold", "fedqvr", "fedqvr_e")

CSV_HEADER = "round,train_loss,test_accuracy,cumulative_uplink_bits,active_count,dropped_count"

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
            errors.append(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
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
        if self.algorithm in ("fedqvr", "fedqvr_e"):
            if self.gamma is None or self.gamma <= 0:
                errors.append("gamma must be positive for variance-reduced algorithms")
            if self.a is None or not 0 < self.a < 1:
                errors.append("a must lie in (0, 1)")
        if self.algorithm == "fedqvr" and (self.bits is None or self.bits < 1):
            errors.append("bits must be >= 1 for fedqvr")
        if self.algorithm == "fedqvr_e" and not self.wireless_cfg.enabled:
            errors.append("fedqvr_e requires wireless.enabled = true")
        if self.hlu and not (1 <= self.hlu_range[0] <= self.hlu_range[1]):
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
        wcfg = raw.pop("wireless_cfg", None) or raw.pop("wireless", None) or {}
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
    wall_seconds: float = 0.0

    def csv_line(self) -> str:
        return (f"{self.round},{self.train_loss!r},{self.test_accuracy!r},"
                f"{self.cumulative_uplink_bits},{self.active_count},{self.dropped_count}")


def evaluate(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(accuracy, loss) on a held-out set; argmax ties break to the lowest class."""
    if X.shape[0] == 0:
        raise ValueError("empty evaluation set")
    pred, loss = learner.predict_and_loss(spec, theta, X, y)
    return float((pred == y).mean()), loss


def write_metrics_csv(rows: list[MetricsRow], path: str) -> None:
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for row in rows:
            f.write(row.csv_line() + "\n")


def parse_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        return ExperimentConfig.from_json(f.read())


def _build_task(cfg: ExperimentConfig):
    ds = cfg.dataset
    if ds["kind"] == "synthetic":
        return data.make_synth_task(
            num_classes=ds["num_classes"], dim=ds["dim"],
            samples_per_class=ds["samples_per_class"],
            test_samples_per_class=ds.get("test_samples_per_class", 100),
            separation=ds["separation"], seed=cfg.seed)
    if ds["kind"] == "mnist":
        train = data.load_mnist_idx(ds["images_path"], ds["labels_path"])
        test = data.load_mnist_idx(ds["test_images_path"], ds["test_labels_path"])
        return train, test
    raise ConfigError(f"unknown dataset kind {ds['kind']!r}")


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


def run_experiment(cfg: ExperimentConfig) -> list[MetricsRow]:
    cfg.validate()
    train, test = _build_task(cfg)
    spec = _model_spec(cfg, train.features.shape[1], train.num_classes)
    part = data.shard_partition(
        train, cfg.num_clients, cfg.labels_per_client,
        np.random.default_rng([cfg.seed, _SEED_PARTITION]))
    client_data = [(train.features[a], train.labels[a]) for a in part.assignments]
    weights = part.weights
    # global training loss is evaluated over the partitioned samples only
    used = np.concatenate(part.assignments)
    train_X, train_y = train.features[used], train.labels[used]

    theta0 = learner.init_params(spec, cfg.seed)
    server = ServerState(theta=theta0.copy(), c=np.zeros(spec.dim))
    clients = [ClientState(id=i, p=float(weights[i]), c_i=np.zeros(spec.dim))
               for i in range(cfg.num_clients)]

    qcfg = QuantizerConfig()
    groups = spec.layer_groups()
    mu = 2 * qcfg.bits_per_bound * len(groups)

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

    def snapshot(round_index: int, active: int, dropped: int, wall: float) -> None:
        acc, _ = evaluate(spec, server.theta, test.features, test.labels)
        tloss = learner.loss(spec, server.theta, train_X, train_y)
        rows.append(MetricsRow(round=round_index, train_loss=tloss,
                               test_accuracy=acc,
                               cumulative_uplink_bits=cumulative_bits,
                               active_count=active, dropped_count=dropped,
                               wall_seconds=wall))

    snapshot(0, 0, 0, 0.0)

    for r in range(cfg.rounds):
        t_start = time.perf_counter()
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

        dropped_count = 0
        if cfg.algorithm == "fedqvr_e":
            problem = alloc.AllocProblem(
                gains=np.array([budget.tx_power_w * draws[c].gain for c in sampled]),
                taus=np.full(len(sampled), wcfg.tau),
                w_total=budget.total_bandwidth_hz,
                alpha=wcfg.alpha, d=spec.dim, mu=mu,
                noise_psd=budget.noise_psd_w_hz, b_lower=wcfg.b_lower)
            sol = alloc.solve_alloc(problem)
            kept = [sampled[j] for j in range(len(sampled)) if j not in sol.dropped]
            bits_map = {sampled[j]: min(int(sol.bits_floored[j]), wcfg.b_upper)
                        for j in range(len(sampled)) if j not in sol.dropped}
            dropped_count = len(sol.dropped)
            plan = RoundPlan(active_set=kept,
                             local_epochs={c: epochs[c] for c in kept},
                             bits=bits_map, batch_size=cfg.batch_size,
                             eta=cfg.eta, gamma=cfg.gamma, a=cfg.a,
                             m_sampled=cfg.sample_size)
            server, report = fed.run_round_fedqvr(
                spec, server, clients, client_data, plan, cfg.seed, qcfg)
        else:
            failed = set()
            if wcfg.enabled:
                w_each = budget.total_bandwidth_hz / cfg.sample_size
                for cid in sampled:
                    if cfg.algorithm == "fedqvr":
                        bits = payload_bits(spec.dim, cfg.bits, mu)
                    elif cfg.algorithm == "fedavg":
                        bits = fed.RAW_BITS_PER_ELEMENT * spec.dim
                    else:
                        bits = 2 * fed.RAW_BITS_PER_ELEMENT * spec.dim
                    if not wireless.transmission_ok(
                            bits, w_each, budget, draws[cid].gain, wcfg.tau):
                        failed.add(cid)
            plan = RoundPlan(active_set=sampled, local_epochs=epochs,
                             bits={cid: cfg.bits for cid in sampled},
                             batch_size=cfg.batch_size, eta=cfg.eta,
                             gamma=cfg.gamma, a=cfg.a,
                             failed=frozenset(failed))
            if cfg.algorithm == "fedqvr":
                server, report = fed.run_round_fedqvr(
                    spec, server, clients, client_data, plan, cfg.seed, qcfg)
            elif cfg.algorithm == "fedavg":
                server, report = fed.run_round_fedavg(
                    spec, server, client_data, plan, cfg.seed)
            elif cfg.algorithm == "scaffold":
                server, report = fed.run_round_scaffold(
                    spec, server, clients, client_data, plan, cfg.seed,
                    eta_g=cfg.eta_g)
            else:
                raise ConfigError(f"unhandled algorithm {cfg.algorithm!r}")
            dropped_count = len(failed)

        cumulative_bits += report.uplink_bits
        round_trace.append({
            "round": r, "active": report.active_ids,
            "delivered": report.delivered_ids,
            "epochs": {str(k): v for k, v in report.epochs.items()},
            "bits": {str(k): v for k, v in report.bits.items()},
            "uplink_bits": report.uplink_bits,
        })
        wall = time.perf_counter() - t_start
        if (r + 1) % cfg.eval_every == 0 or r == cfg.rounds - 1:
            snapshot(r + 1, len(report.delivered_ids), dropped_count, wall)

    if cfg.out:
        write_metrics_csv(rows, cfg.out)
    if wcfg.trace_out and replay is None:
        wireless.write_channel_trace(wcfg.trace_out, trace_records)
    if cfg.trace_rounds_out:
        with open(cfg.trace_rounds_out, "w") as f:
            for rec in round_trace:
                f.write(json.dumps(rec) + "\n")
    return rows
