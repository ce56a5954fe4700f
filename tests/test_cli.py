import json
import statistics
from pathlib import Path

import numpy as np
import pytest

from fedsim import alloc, cli
from fedsim.alloc import AllocProblem, AllocSolution


BASE_CONFIG = {
    "dataset": {"kind": "synthetic", "num_classes": 3, "dim": 8,
                "samples_per_class": 40, "test_samples_per_class": 20,
                "separation": 3.0},
    "num_clients": 6, "sample_size": 3, "rounds": 3, "batch_size": 10,
    "labels_per_client": 1, "eval_every": 2, "seed": 11,
}


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, **extra):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE_CONFIG, **extra}))
    return str(path)


class TestRun:
    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "metrics.csv")
        assert cli.main(["run", "--config", cfg, "--out", out]) == 0
        assert "accuracy=" in capsys.readouterr().out
        assert Path(out).read_text().startswith("round,")

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 3

    def test_invalid_config_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, eta=-1.0)
        assert cli.main(["run", "--config", cfg]) == 1
        assert "invalid config" in capsys.readouterr().err

    def test_unknown_field_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, momentum=0.9)
        assert cli.main(["run", "--config", cfg]) == 1

    def test_seed_override_changes_result(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cli.main(["run", "--config", cfg, "--seed", "1"])
        first = capsys.readouterr().out
        cli.main(["run", "--config", cfg, "--seed", "2"])
        assert capsys.readouterr().out != first

    @pytest.mark.parametrize("field,value", [
        ("alpha", -1), ("tau", 0), ("tau", -1), ("b_lower", 0), ("b_upper", 0),
    ])
    def test_out_of_range_wireless_field_is_validation_error(
            self, tmp_path, capsys, field, value):
        raw = json.loads((CONFIGS / "wireless_fedqvr_e.json").read_text())
        raw["wireless_cfg"][field] = value
        raw["rounds"] = 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: invalid config: wireless {field}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("extra,message", [
        ({"dataset": {"kind": "synthetic", "num_classes": 3, "samples_per_class": 40,
                      "separation": 3.0}}, "synthetic dataset needs ['dim']"),
        ({"dataset": [3, 8]}, "dataset must be a JSON object"),
        ({"dataset": {**BASE_CONFIG["dataset"], "dim": 0}}, "must be positive"),
        ({"dataset": {**BASE_CONFIG["dataset"], "num_classes": 0}}, "must be positive"),
        ({"dataset": {**BASE_CONFIG["dataset"], "test_samples_per_class": 0}},
         "must be positive"),
        ({"model_kind": "cnn"}, "model_kind"),
        ({"hlu": True, "hlu_range": [3]}, "hlu_range"),
        ({"labels_per_client": 0}, "labels_per_client"),
        ({"num_clients": 2000}, "cannot build 2000 shards from 120 samples"),
        ({"dataset": "idx"}, "bad image magic"),
        ('"abc"', "config must be a JSON object, got str"),
        ("null", "config must be a JSON object, got NoneType"),
        ("3", "config must be a JSON object, got int"),
    ], ids=["no-dim", "dataset-list", "dim-0", "classes-0", "test-samples-0", "model-kind",
            "hlu-range-of-one", "labels-0", "too-many-clients", "non-idx-file",
            "string-config", "null-config", "number-config"])
    def test_setup_defect_is_one_line_validation_error(self, tmp_path, capsys, extra, message):
        if isinstance(extra, str):  # the whole config file is this JSON text
            path = tmp_path / "cfg.json"
            path.write_text(extra)
            config = str(path)
        elif extra.get("dataset") == "idx":  # files that are not in IDX format
            (tmp_path / "junk").write_bytes(b"not an idx file")
            junk = str(tmp_path / "junk")
            config = write_config(tmp_path, dataset={
                "kind": "mnist", "images_path": junk, "labels_path": junk,
                "test_images_path": junk, "test_labels_path": junk})
        else:
            config = write_config(tmp_path, **extra)
        assert cli.main(["run", "--config", config]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("algorithm", ["scaffold", "fedavg"])
    def test_overflowing_iterate_is_divergence(self, tmp_path, capsys, algorithm):
        cfg = write_config(tmp_path, algorithm=algorithm, eta=1e308)
        assert cli.main(["run", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: divergence: local update diverged to non-finite iterate\n"


class TestSweep:
    def test_grid_produces_one_csv_per_combo(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", cfg,
                       "--grid", '{"eta": [0.01, 0.1], "bits": [1, 2]}',
                       "--out-dir", str(out_dir)])
        assert rc == 0
        assert len(list(out_dir.glob("metrics_*.csv"))) == 4

    def test_diverging_combo_is_reported_and_the_rest_still_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, algorithm="scaffold")
        out_dir = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", cfg, "--grid", '{"eta": [1e308, 0.01]}',
                       "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "[eta-1e+308] divergence: local update diverged to non-finite iterate\n"
        assert [p.name for p in out_dir.glob("metrics_*.csv")] == ["metrics_eta-0.01.csv"]

    def test_invalid_combo_is_one_line_and_the_rest_still_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = cli.main(["sweep", "--config", cfg, "--grid", '{"labels_per_client": [0, 1]}',
                       "--out-dir", str(tmp_path / "sweep")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == "[labels_per_client-0] invalid config: labels_per_client must be >= 1\n"
        assert out.startswith("[labels_per_client-1] accuracy=")

    def test_wrongly_typed_value_is_one_line_and_the_rest_still_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = cli.main(["sweep", "--config", cfg, "--grid", '{"eta": ["x", 0.01]}',
                       "--out-dir", str(tmp_path / "sweep")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err.startswith("[eta-x] invalid config: ") and err.count("\n") == 1
        assert out.startswith("[eta-0.01] accuracy=")

    def test_missing_data_files_are_one_io_line_per_combination(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        cfg = write_config(tmp_path, dataset={
            "kind": "mnist", "images_path": missing, "labels_path": missing,
            "test_images_path": missing, "test_labels_path": missing})
        rc = cli.main(["sweep", "--config", cfg, "--grid", '{"seed": [1, 2]}',
                       "--out-dir", str(tmp_path / "sweep")])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert [line.split(": ")[0] for line in err.splitlines()] == [
            "[seed-1] I/O", "[seed-2] I/O"]
        assert cli.main(["run", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith("error: I/O: ")

    @pytest.mark.parametrize("text", ["not json", "[1, 2]"])
    def test_config_that_is_not_an_object_is_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        rc = cli.main(["sweep", "--config", str(path), "--grid", '{"seed": [1]}',
                       "--out-dir", str(tmp_path / "sweep")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invalid config: ") and err.count("\n") == 1

    def test_seed_key_prints_medians_of_the_per_run_csvs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", cfg, "--out-dir", str(out_dir), "--grid",
                       '{"algorithm": ["fedavg", "fedqvr"], "seed": [1, 2, 3, 4]}'])
        assert rc == 0
        medians = [line for line in capsys.readouterr().out.splitlines() if "median" in line]
        expected = []
        for algorithm in ("fedavg", "fedqvr"):
            finals = [(out_dir / f"metrics_algorithm-{algorithm}_seed-{seed}.csv")
                      .read_text().splitlines()[-1].split(",") for seed in (1, 2, 3, 4)]
            acc = statistics.median(float(f[2]) for f in finals)
            bits = statistics.median(int(f[3]) for f in finals)
            expected.append(f"[algorithm-{algorithm}] median over 4 seeds: "
                            f"accuracy={acc:.4f} uplink_bits={bits:.0f}")
        assert medians == expected

    def test_bad_grid_json(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["sweep", "--config", cfg, "--grid", "not json",
                         "--out-dir", str(tmp_path)]) == 1
        assert cli.main(["sweep", "--config", cfg, "--grid", "[]",
                         "--out-dir", str(tmp_path)]) == 1


class TestAlloc:
    def test_solves_problem_file(self, tmp_path, capsys):
        problem = AllocProblem(
            gains=np.array([1e-6, 2e-7]), taus=np.array([1e-3, 1e-3]),
            w_total=1e8, alpha=0.5, d=10_000, mu=384,
            noise_psd=10 ** (-14.3) / 1e3)
        path = tmp_path / "problem.json"
        path.write_text(problem.to_json())
        assert cli.main(["alloc", "--problem", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["feasible"] is True
        assert sum(out["bandwidths"]) > 0

    def test_bad_problem_file(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text('{"gains": []}')
        assert cli.main(["alloc", "--problem", str(path)]) == 1
        assert cli.main(["alloc", "--problem", str(tmp_path / "nope")]) == 3

    PROBLEM = AllocProblem(
        gains=np.array([1e-6, 2e-7]), taus=np.array([1e-3, 1e-3]),
        w_total=1e8, alpha=0.5, d=10_000, mu=384,
        noise_psd=10 ** (-14.3) / 1e3)

    def assert_one_line_rejection(self, tmp_path, capsys, **fields):
        problem = json.loads(self.PROBLEM.to_json())
        problem.update(fields)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert cli.main(["alloc", "--problem", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_null_alpha_is_validation_error(self, tmp_path, capsys):
        self.assert_one_line_rejection(tmp_path, capsys, alpha=None)

    def test_nan_gain_is_validation_error(self, tmp_path, capsys):
        self.assert_one_line_rejection(tmp_path, capsys, gains=[float("nan"), 2e-7])

    def test_failed_delay_recheck_is_validation_error(self, tmp_path, capsys,
                                                      monkeypatch):
        def overspent(p):
            sol = AllocSolution(bandwidths=np.full(p.num_devices, 1e3),
                                bits_continuous=np.full(p.num_devices, 50.0),
                                bits_floored=np.zeros(p.num_devices, dtype=np.int64))
            return alloc.floor_and_drop(p, sol)

        monkeypatch.setattr(alloc, "solve_alloc", overspent)
        self.assert_one_line_rejection(tmp_path, capsys)


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
