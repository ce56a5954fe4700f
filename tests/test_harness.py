import json
from pathlib import Path

import numpy as np
import pytest

from fedsim import alloc, harness, learner, wireless
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
        ("eval_every", 0, "eval_every"),
        ("gamma", -1.0, "gamma"),
        ("a", 1.5, "a must lie"),
        ("bits", 0, "bits"),
        ("local_epochs", 0, "local_epochs"),
    ])
    def test_field_validation(self, field, value, msg):
        cfg = small_config(**{field: value})
        with pytest.raises(ConfigError, match=msg):
            cfg.validate()

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


class TestMetrics:
    def test_csv_line_has_no_wall_time(self):
        row = MetricsRow(round=3, train_loss=0.5, test_accuracy=0.75,
                         cumulative_uplink_bits=1024, active_count=5,
                         dropped_count=1)
        assert row.csv_line() == "3,0.5,0.75,1024,5,1"

    def test_write_metrics_csv(self, tmp_path):
        path = str(tmp_path / "m.csv")
        harness.write_metrics_csv(
            [MetricsRow(0, 1.0986, 0.33, 0, 0, 0)], path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == harness.CSV_HEADER
        assert lines[1].startswith("0,1.0986,0.33,0,0,0")
        harness.write_metrics_csv([], path)
        assert Path(path).read_text().splitlines() == [harness.CSV_HEADER]

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

    def test_hlu_draws_epochs_within_range(self, tmp_path):
        trace = str(tmp_path / "rounds.jsonl")
        cfg = small_config(hlu=True, hlu_range=(1, 5), trace_rounds_out=trace)
        harness.run_experiment(cfg)
        seen = set()
        for line in Path(trace).read_text().splitlines():
            rec = json.loads(line)
            seen.update(rec["epochs"].values())
        assert seen <= set(range(1, 6))
        assert len(seen) > 1

    def test_wireless_failures_reported(self):
        cfg = small_config(rounds=6, eval_every=1)
        cfg.wireless_cfg = wireless_on(tau=1e-9)  # hopeless delay budget
        rows = harness.run_experiment(cfg)
        assert all(r.dropped_count == cfg.sample_size for r in rows[1:])
        assert rows[-1].cumulative_uplink_bits == 0

    def test_fedqvr_e_runs_and_respects_bit_cap(self, tmp_path):
        trace = str(tmp_path / "rounds.jsonl")
        cfg = small_config(algorithm="fedqvr_e", rounds=5, eval_every=5,
                           trace_rounds_out=trace)
        cfg.wireless_cfg = wireless_on(b_upper=6)
        rows = harness.run_experiment(cfg)
        assert rows[-1].cumulative_uplink_bits > 0
        for line in Path(trace).read_text().splitlines():
            for b in json.loads(line)["bits"].values():
                assert 1 <= b <= 6

    def test_channel_trace_replay_reproduces_run(self, tmp_path):
        trace = str(tmp_path / "chan.jsonl")
        cfg = small_config(algorithm="fedqvr_e", rounds=4)
        cfg.wireless_cfg = wireless_on(trace_out=trace)
        rows_record = harness.run_experiment(cfg)

        cfg2 = small_config(algorithm="fedqvr_e", rounds=4)
        cfg2.wireless_cfg = wireless_on(trace_in=trace)
        rows_replay = harness.run_experiment(cfg2)
        for a, b in zip(rows_record, rows_replay):
            assert a.csv_line() == b.csv_line()

    @pytest.mark.parametrize("algorithm,tau", [
        ("fedavg", 8e-6), ("scaffold", 1.6e-5), ("fedqvr", 2e-6), ("fedqvr_e", 2e-6)])
    def test_uplink_cost_is_defined_once(self, tmp_path, monkeypatch, algorithm, tau):
        """The algorithm's ``payload_bits`` is the cost the delay check tests,
        the payload d(B+1) + mu the allocator plans with, and the cost each
        round reports for its delivered uploads."""
        algo = harness.ALGORITHMS[algorithm]
        spec = learner.ModelSpec(kind=learner.LOGISTIC, input_dim=8, num_classes=3)
        checked, problems = [], []
        transmission_ok, solve_alloc = wireless.transmission_ok, alloc.solve_alloc
        monkeypatch.setattr(wireless, "transmission_ok",
                            lambda bits, *a: checked.append(bits) or transmission_ok(bits, *a))
        monkeypatch.setattr(alloc, "solve_alloc",
                            lambda problem: problems.append(problem) or solve_alloc(problem))
        trace = tmp_path / "rounds.jsonl"
        cfg = small_config(algorithm=algorithm, rounds=6, trace_rounds_out=str(trace))
        cfg.wireless_cfg = wireless_on(tau=tau)
        harness.run_experiment(cfg)
        if algorithm == "fedqvr_e":
            assert len(problems) == cfg.rounds and not checked
            for problem in problems:
                assert (problem.d, problem.mu) == (spec.dim, algo.mu(spec))
                for B in range(1, 25):
                    assert problem.d * (B + 1) + problem.mu == algo.payload_bits(spec, B)
        else:
            assert checked == [algo.payload_bits(spec, cfg.bits)] * (cfg.rounds * cfg.sample_size)
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        for rec in records:
            assert rec["uplink_bits"] == sum(
                algo.payload_bits(spec, rec["bits"].get(str(cid))) for cid in rec["delivered"])
        delivered = sum(len(rec["delivered"]) for rec in records)
        assert 0 < delivered < cfg.rounds * cfg.sample_size  # some uploads lost or dropped

    def test_unknown_dataset_kind_rejected(self):
        cfg = small_config()
        cfg.dataset = {"kind": "cifar"}
        with pytest.raises(ConfigError, match="dataset kind"):
            harness.run_experiment(cfg)
