import contextlib
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedsim import alloc, fed, harness, learner, wireless
from fedsim.harness import (ConfigError, ExperimentConfig, MetricsRow,
                            WirelessConfig)


def small_config(**kw):
    cfg = ExperimentConfig(
        dataset={"kind": "synthetic", "num_classes": 3, "dim": 8,
                 "samples_per_class": 40, "test_samples_per_class": 20,
                 "separation": 3.0},
        num_clients=6, sample_size=3, rounds=4, batch_size=10,
        labels_per_client=1, eval_every=2, seed=11)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def wireless_on(**kw):
    kw.setdefault("tau", 4e-6)
    return WirelessConfig(enabled=True, **kw)


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_json_roundtrip(self):
        cfg = small_config(algorithm="scaffold", eta=0.05, hlu=True,
                           hlu_range=(1, 3))
        restored = ExperimentConfig.from_json(cfg.to_json())
        assert restored == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_json('{"learning_rate": 0.1}')

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="algorithm"):
            ExperimentConfig.from_json('{"algorithm": "sgd"}')

    @pytest.mark.parametrize("field,value,msg", [
        ("sample_size", 99, "sample_size"),
        ("rounds", -1, "rounds"),
        ("batch_size", 0, "batch_size"),
        ("eta", 0.0, "eta"),
        ("eta_g", 0.0, "eta_g must lie in"),
        ("eta_g", -3.0, "eta_g must lie in"),
        ("seed", -3, "seed must lie in"),
        ("seed", 2**64, "seed must lie in"),
        ("eval_every", 0, "eval_every"),
        ("gamma", -1.0, "gamma"),
        ("a", 1.5, "a must lie"),
        ("bits", 0, "bits"),
        ("bits", 53, r"bits must lie in \[1, 52\]"),
        ("local_epochs", 0, "local_epochs"),
        ("seed", 1.5, "seed must be an integer"),
        ("out", 3, "out must be a string or null"),  # open() would take 3 as a descriptor
    ])
    def test_field_validation(self, field, value, msg):
        cfg = small_config(**{field: value})
        with pytest.raises(ConfigError, match=msg):
            cfg.validate()

    def test_hidden_dim_is_checked_for_the_mlp_only(self):
        with pytest.raises(ConfigError,
                           match=r"^hidden_dim must lie in \[1, inf\) for the MLP, got 0$"):
            small_config(model_kind=learner.MLP, hidden_dim=0).validate()
        cfg = small_config(model_kind=learner.LOGISTIC, hidden_dim=0, rounds=1)
        cfg.validate()
        assert [row.round for row in harness.run_experiment(cfg)] == [0, 1]

    def test_multiple_errors_are_joined(self):
        cfg = small_config(eta=0.0, rounds=-1)
        with pytest.raises(ConfigError, match="rounds.*eta|eta.*rounds"):
            cfg.validate()

    def test_fedqvr_e_requires_wireless(self):
        cfg = small_config(algorithm="fedqvr_e")
        with pytest.raises(ConfigError, match="wireless"):
            cfg.validate()
        cfg.wireless_cfg = wireless_on()
        cfg.validate()

    def test_wireless_block_parsed_from_json(self):
        raw = json.loads(small_config().to_json())
        raw["algorithm"] = "fedqvr_e"
        raw["wireless_cfg"]["enabled"] = True
        raw["wireless_cfg"]["tau"] = 2e-6
        cfg = ExperimentConfig.from_json(json.dumps(raw))
        assert cfg.wireless_cfg.enabled and cfg.wireless_cfg.tau == 2e-6


def named(cfg, name):
    """The value of the field that ``harness._DOMAINS`` calls ``name``."""
    if name.startswith("hlu_range["):
        return cfg.hlu_range[int(name[10])]
    block, _, key = name.rpartition(" ")
    return {"": vars(cfg), "wireless": vars(cfg.wireless_cfg), "dataset": cfg.dataset}[block][key]


def set_named(cfg, name, value):
    if name.startswith("hlu_range["):
        ends = list(cfg.hlu_range)
        ends[int(name[10])] = value
        cfg.hlu_range = tuple(ends)
    elif name.startswith("dataset "):
        cfg.dataset = {**cfg.dataset, name[8:]: value}
    else:
        block, _, key = name.rpartition(" ")
        setattr(cfg.wireless_cfg if block else cfg, key, value)


# Settings that turn each condition of harness._DOMAINS on, and off.
_CONDITIONS = {
    "": ({}, None),
    "for fedqvr and fedqvr_e": ({"algorithm": "fedqvr"}, {"algorithm": "fedavg"}),
    "for fedqvr": ({"algorithm": "fedqvr"}, {"algorithm": "fedavg"}),
    "for the MLP": ({"model_kind": learner.MLP}, {"model_kind": learner.LOGISTIC}),
    "with hlu off": ({"hlu": False}, {"hlu": True}),
    "with hlu on": ({"hlu": True}, {"hlu": False}),
    "with wireless enabled": ({"wireless enabled": True}, {"wireless enabled": False}),
}
_DOMAIN_CASES = [(name, interval, when) for when, _, intervals in harness._DOMAINS
                 for name, interval in intervals.items()]


@pytest.mark.parametrize("name,interval,when", _DOMAIN_CASES,
                         ids=[name for name, _, _ in _DOMAIN_CASES])
def test_each_domain_holds_at_its_ends(name, interval, when):
    """Generated from the table. At each finite end: the end itself, if
    closed, is accepted; a value just outside (the end itself if open, else
    one step out: 1 for an integer field, one ulp for a float field) is
    rejected by one message naming the field, and accepted with the domain's
    condition off. An end that names a field is that field's value."""
    on, off = _CONDITIONS[when]

    def config(settings):
        cfg = small_config()
        cfg.wireless_cfg = wireless_on()
        for key, value in settings.items():
            set_named(cfg, key, value)
        return cfg

    base = config(on)
    integral = isinstance(named(base, name), int)
    for end, bracket, outward in zip(interval[1:-1].split(", "), (interval[0], interval[-1]),
                                     (-math.inf, math.inf)):
        if end.endswith("inf"):
            continue
        if end.startswith("2**"):
            at = 2 ** int(end[3:])
        else:
            try:
                at = float(end)
            except ValueError:  # another field
                at = named(base, end)
        at = int(at) if integral else at
        if bracket in "()":
            outside = at
        else:
            config({**on, name: at}).validate()
            outside = (at + (1 if outward > 0 else -1) if integral
                       else math.nextafter(at, outward))
        with pytest.raises(ConfigError) as rejected:
            config({**on, name: outside}).validate()
        assert str(rejected.value) == (
            f"{name} must lie in {interval}{when and ' ' + when}, got {outside!r}")
        if off is not None:
            config({**off, name: outside}).validate()


def test_readme_domain_table_is_the_code_table():
    """README's domain table lists exactly the fields of harness._DOMAINS,
    in its order, each with its interval and condition."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| field | domain | condition |") + 2
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    assert rows == [f"| `{name}` | `{interval}` | {when or 'always'} |"
                    for name, interval, when in _DOMAIN_CASES]


@pytest.mark.parametrize("r_min,r_max", [(1, 1), (1, 1e100), (1e100, 1e100)])
def test_received_power_is_finite_at_the_placement_and_path_loss_corners(
        monkeypatch, r_min, r_max):
    """At each corner of the r_min, r_max domains, a path-loss exponent of 0
    and 3000 dBm, the most a config allows, every received power the
    allocator is given is finite. The allocation itself may fail, in one
    line."""
    powers, solve_alloc = [], alloc.solve_alloc
    monkeypatch.setattr(alloc, "solve_alloc",
                        lambda problem: powers.append(problem.gains) or solve_alloc(problem))
    cfg = small_config(algorithm="fedqvr_e", rounds=1)
    cfg.wireless_cfg = wireless_on(tx_power_dbm=3000, pathloss_exponent=0, r_min=r_min,
                                   r_max=r_max)
    with contextlib.suppress(alloc.AllocationError):
        harness.run_experiment(cfg)
    assert powers and all(np.isfinite(p).all() for p in powers)


class TestMetrics:
    def test_csv_line_has_no_wall_time(self):
        row = MetricsRow(round=3, train_loss=0.5, test_accuracy=0.75,
                         cumulative_uplink_bits=1024, active_count=5,
                         dropped_count=1)
        assert row.csv_line() == "3,0.5,0.75,1024,5,1"

    def test_write_metrics_csv(self, tmp_path):
        """A run's CSV is the header, then one line per row it returns."""
        path = tmp_path / "m.csv"
        header = "round,train_loss,test_accuracy,cumulative_uplink_bits,active_count,dropped_count"
        for rounds in (0, 5):
            rows = harness.run_experiment(small_config(rounds=rounds, out=str(path)))
            assert path.read_text().splitlines() == [header] + [r.csv_line() for r in rows]

    def test_write_json_lines_round_trips(self, tmp_path):
        """Both traces are JSON lines: one per channel draw, one per round;
        a run of 0 rounds leaves them empty."""
        channel, rounds_out = tmp_path / "channel.jsonl", tmp_path / "rounds.jsonl"
        for rounds in (0, 3):
            cfg = small_config(rounds=rounds, trace_rounds_out=str(rounds_out))
            cfg.wireless_cfg = wireless_on(trace_out=str(channel))
            harness.run_experiment(cfg)
            draws = [json.loads(line) for line in channel.read_text().splitlines()]
            per_round = [json.loads(line) for line in rounds_out.read_text().splitlines()]
            assert [d["round"] for d in draws] == [r for r in range(rounds)
                                                   for _ in range(cfg.sample_size)]
            assert all(set(d) == {"round", "device", "distance_m", "gain"} for d in draws)
            assert [rec["round"] for rec in per_round] == list(range(rounds))

    def test_evaluate_accuracy_and_loss(self):
        spec = learner.ModelSpec(kind=learner.LOGISTIC, input_dim=2,
                                 num_classes=2)
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        acc = harness.evaluate(spec, np.zeros(spec.dim), X, y)
        assert acc == 0.5  # argmax ties break to class 0
        with pytest.raises(ValueError):
            harness.evaluate(spec, np.zeros(spec.dim), X[:0], y[:0])


class TestRunExperiment:
    def test_zero_rounds_yields_single_baseline_row(self):
        rows = harness.run_experiment(small_config(rounds=0))
        assert len(rows) == 1
        assert rows[0].round == 0
        assert rows[0].cumulative_uplink_bits == 0

    def test_eval_cadence_and_final_round(self):
        rows = harness.run_experiment(small_config(rounds=5, eval_every=2))
        assert [r.round for r in rows] == [0, 2, 4, 5]

    def test_metrics_are_deterministic_in_seed(self, tmp_path):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        harness.run_experiment(small_config(out=out_a))
        harness.run_experiment(small_config(out=out_b))
        assert Path(out_a).read_bytes() == Path(out_b).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        rows_a = harness.run_experiment(small_config())
        rows_b = harness.run_experiment(small_config(seed=12))
        assert rows_a[-1].train_loss != rows_b[-1].train_loss

    @pytest.mark.parametrize("algorithm", ["fedavg", "scaffold", "fedqvr"])
    def test_all_algorithms_run_and_improve(self, algorithm):
        cfg = small_config(algorithm=algorithm, rounds=10, eval_every=5)
        rows = harness.run_experiment(cfg)
        assert rows[-1].train_loss < rows[0].train_loss
        assert rows[-1].cumulative_uplink_bits > 0

    def test_quantized_uplink_is_cheaper_than_raw(self):
        qvr = harness.run_experiment(small_config(algorithm="fedqvr"))
        avg = harness.run_experiment(small_config(algorithm="fedavg"))
        assert qvr[-1].cumulative_uplink_bits < avg[-1].cumulative_uplink_bits / 4

    @pytest.mark.parametrize("output", ["out", "trace_rounds_out", "trace_out"])
    def test_unwritable_output_fails_before_round_0(self, tmp_path, monkeypatch, output):
        """Every output opens before the first round, so a path in a missing
        directory ends the run before any local step or evaluation."""
        def no_work(*args):
            raise AssertionError("the run got to work before opening its outputs")

        monkeypatch.setattr(learner, "grad", no_work)
        monkeypatch.setattr(learner, "loss", no_work)
        cfg = small_config()
        cfg.wireless_cfg = wireless_on()
        target = cfg.wireless_cfg if output == "trace_out" else cfg
        setattr(target, output, str(tmp_path / "missing" / "file"))
        with pytest.raises(FileNotFoundError):
            harness.run_experiment(cfg)

    def test_unbuildable_dataset_leaves_no_output_file(self, tmp_path):
        """The run is built before its outputs open: a dataset too small to
        shard for its clients ends the run with none of the three files."""
        paths = [tmp_path / name for name in ("m.csv", "rounds.jsonl", "channel.jsonl")]
        cfg = small_config(num_clients=2000, sample_size=3, out=str(paths[0]),
                           trace_rounds_out=str(paths[1]))
        cfg.wireless_cfg = wireless_on(trace_out=str(paths[2]))
        with pytest.raises(ConfigError, match="cannot build 2000 shards"):
            harness.run_experiment(cfg)
        assert not any(path.exists() for path in paths)

    def test_a_round_runs_only_when_its_record_is_taken(self, monkeypatch):
        """Round 0's evaluation is the first record, and each later record
        is one round: taking 3 records of a billion-round run runs 2."""
        run_round, calls = fed.run_round_fedqvr, []
        monkeypatch.setattr(fed, "run_round_fedqvr",
                            lambda *args: calls.append(None) or run_round(*args))
        records = list(itertools.islice(harness.rounds(small_config(rounds=10**9)), 3))
        assert len(calls) == 2
        assert [(rec.round, rec.plan is None, rec.row and rec.row.round) for rec in records] == [
            (0, True, 0), (0, False, None), (1, False, 2)]

    def test_failed_run_keeps_the_lines_it_wrote(self, tmp_path, monkeypatch):
        """A run that diverges in round 3 (of 0..5) keeps its CSV rows up to
        the last evaluation before it, at round 2, and its round trace up to
        round 2."""
        run_round, calls = fed.run_round_fedqvr, []

        def diverging(*args):
            calls.append(None)
            if len(calls) == 4:
                raise FloatingPointError("local update diverged to non-finite iterate")
            return run_round(*args)

        monkeypatch.setattr(fed, "run_round_fedqvr", diverging)
        out, rounds_out = tmp_path / "m.csv", tmp_path / "rounds.jsonl"
        with pytest.raises(FloatingPointError):
            harness.run_experiment(small_config(rounds=6, out=str(out),
                                                trace_rounds_out=str(rounds_out)))
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["0", "2"]
        assert [json.loads(line)["round"] for line in rounds_out.read_text().splitlines()] == [
            0, 1, 2]

    def test_memory_does_not_grow_with_rounds(self, tmp_path):
        """With the metrics CSV and both traces on, 1,000 rounds peak within
        1 MiB of 50: each line is written as it is made. Holding them until
        the end costs about 3 KiB per round."""
        def peak(rounds):
            cfg = small_config(rounds=rounds, out=str(tmp_path / "m.csv"),
                               trace_rounds_out=str(tmp_path / "rounds.jsonl"))
            cfg.wireless_cfg = wireless_on(trace_out=str(tmp_path / "channel.jsonl"))
            tracemalloc.start()
            try:
                harness.run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1000) - peak(50) < 2**20

    def test_hlu_draws_epochs_within_range(self):
        seen = set()
        for rec in harness.rounds(small_config(hlu=True, hlu_range=(1, 5))):
            if rec.plan:
                seen.update(rec.plan.local_epochs.values())
        assert seen <= set(range(1, 6))
        assert len(seen) > 1

    def test_wireless_failures_reported(self):
        cfg = small_config(rounds=6, eval_every=1)
        cfg.wireless_cfg = wireless_on(tau=1e-9)  # hopeless delay budget
        rows = harness.run_experiment(cfg)
        assert all(r.dropped_count == cfg.sample_size for r in rows[1:])
        assert rows[-1].cumulative_uplink_bits == 0

    def test_fedqvr_e_runs_and_respects_bit_cap(self):
        cfg = small_config(algorithm="fedqvr_e", rounds=5, eval_every=5)
        cfg.wireless_cfg = wireless_on(b_upper=6)
        records = list(harness.rounds(cfg))
        assert records[-1].row.cumulative_uplink_bits > 0
        assert all(1 <= b <= 6 for rec in records[1:] for b in rec.plan.bits.values())

    @pytest.mark.parametrize("reach", [300.0, 0.0])
    def test_zero_gain_devices_are_dropped_before_allocation(self, monkeypatch, reach):
        """A device whose gain underflows to 0 (here: every one beyond
        ``reach`` metres) sits the round out and counts in dropped_count; the
        allocator plans for the others. With every gain 0 the rounds run empty."""
        sample_channel = wireless.sample_channel
        monkeypatch.setattr(wireless, "sample_channel", lambda distance, exponent, rng: (
            0.0 if distance > reach else sample_channel(distance, exponent, rng)))
        cfg = small_config(algorithm="fedqvr_e", rounds=8, eval_every=1)
        cfg.wireless_cfg = wireless_on()
        records = list(harness.rounds(cfg))[1:]
        mixed = 0
        for rec in records:
            zero = {cid for cid, _, gain in rec.channel if gain == 0.0}
            assert not zero & set(rec.plan.active_set)
            assert rec.row.dropped_count == cfg.sample_size - len(rec.plan.active_set)
            mixed += bool(zero) and bool(rec.plan.active_set)
        if reach:
            assert mixed
        else:
            assert all(not rec.plan.active_set for rec in records)
            assert records[-1].row.cumulative_uplink_bits == 0

    @pytest.mark.parametrize("algorithm,tau", [
        ("fedavg", 8e-6), ("scaffold", 1.6e-5), ("fedqvr", 2e-6), ("fedqvr_e", 2e-6)])
    def test_uplink_cost_is_defined_once(self, monkeypatch, algorithm, tau):
        """The algorithm's ``payload_bits`` is the cost the delay check tests,
        the payload d(B+1) + mu the allocator plans with, and the cost each
        round reports for its delivered uploads. In seven rounds every
        algorithm loses or drops some upload; fedqvr_e's first is in round 6
        (found from the round records)."""
        algo = harness.ALGORITHMS[algorithm]
        spec = learner.ModelSpec(kind=learner.LOGISTIC, input_dim=8, num_classes=3)
        checked, problems = [], []
        transmission_ok, solve_alloc = wireless.transmission_ok, alloc.solve_alloc
        monkeypatch.setattr(wireless, "transmission_ok",
                            lambda bits, *a: checked.append(bits) or transmission_ok(bits, *a))
        monkeypatch.setattr(alloc, "solve_alloc",
                            lambda problem: problems.append(problem) or solve_alloc(problem))
        cfg = small_config(algorithm=algorithm, rounds=7)
        cfg.wireless_cfg = wireless_on(tau=tau)
        records = list(harness.rounds(cfg))[1:]
        if algorithm == "fedqvr_e":
            assert len(problems) == cfg.rounds and not checked
            for problem in problems:
                assert (problem.d, problem.mu) == (spec.dim, algo.mu(spec))
                for B in range(1, 25):
                    assert problem.d * (B + 1) + problem.mu == algo.payload_bits(spec, B)
        else:
            assert checked == [algo.payload_bits(spec, cfg.bits)] * (cfg.rounds * cfg.sample_size)
        for rec in records:
            assert rec.report.uplink_bits == sum(
                algo.payload_bits(spec, rec.plan.bits[cid]) for cid in rec.report.delivered_ids)
        delivered = sum(len(rec.report.delivered_ids) for rec in records)
        assert 0 < delivered < cfg.rounds * cfg.sample_size  # some uploads lost or dropped

    def test_unknown_dataset_kind_rejected(self):
        cfg = small_config()
        cfg.dataset = {"kind": "cifar"}
        with pytest.raises(ConfigError, match="dataset kind"):
            harness.run_experiment(cfg)
