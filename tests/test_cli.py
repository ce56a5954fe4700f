import json
import math
import os
import statistics
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fedsim import alloc, cli, fed, harness, quantizer, verify
from fedsim.alloc import AllocProblem, AllocSolution
from fedsim.harness import ExperimentConfig, WirelessConfig


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

    def test_integer_too_long_to_parse_is_one_line(self, tmp_path, capsys):
        """json refuses an integer literal of more than 4,300 digits with a
        ValueError that is not a JSONDecodeError."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_CONFIG)[:-1] + ', "seed": ' + "1" * 5000 + "}")
        assert cli.main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ") and err.count("\n") == 1

    @pytest.mark.parametrize("extra,flags", [({"seed": -3}, []), ({}, ["--seed", "-1"])],
                             ids=["config", "flag"])
    def test_negative_seed_is_one_line_naming_seed(self, tmp_path, capsys, extra, flags):
        cfg = write_config(tmp_path, **extra)
        assert cli.main(["run", "--config", cfg, *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invalid config: seed must lie in [0, 2**64)")
        assert err.count("\n") == 1

    def test_seed_override_changes_result(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cli.main(["run", "--config", cfg, "--seed", "1"])
        first = capsys.readouterr().out
        cli.main(["run", "--config", cfg, "--seed", "2"])
        assert capsys.readouterr().out != first

    @pytest.mark.parametrize("field,value", [
        ("alpha", -1), ("tau", 0), ("tau", -1), ("b_lower", 0), ("b_upper", 0), ("b_upper", 53),
        ("b_lower", 1.5), ("b_upper", 24.5), ("tau", "x"), ("enabled", 1),
        ("total_bandwidth_hz", 0), ("total_bandwidth_hz", -1),
        # beyond +-3000 dBm, 10**(dBm/10) mW is no longer a positive, finite float
        ("noise_psd_dbm_hz", -1e308), ("noise_psd_dbm_hz", 3000.5), ("tx_power_dbm", 1e300),
        ("tx_power_dbm", -3001),
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

    @pytest.mark.parametrize("field,value,message", [
        ("total_bandwidth_hz", 1e200, "allocation failed: numerical breakdown"),
        ("tau", 1e250, "allocation failed: device 0: bit count 1.89e+256 at the whole "
                       "bandwidth is not a finite number below 2**63"),
    ])
    def test_failed_allocation_is_one_line_validation_error(
            self, tmp_path, capsys, field, value, message):
        """The bit count quoted at tau = 1e250 is that of round 0's first
        sampled device, at the gain its channel stream draws at the shipped
        config's seed."""
        raw = json.loads((CONFIGS / "wireless_fedqvr_e.json").read_text())
        raw["wireless_cfg"][field] = value
        raw["rounds"] = 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not caught
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    def test_allocation_at_1e30_hz_runs(self, tmp_path, capsys):
        """x = P/(w N0) falls to about 1e-26 there; the slope's series keeps
        the solve accurate where its two-term difference rounded to zero."""
        raw = json.loads((CONFIGS / "wireless_fedqvr_e.json").read_text())
        raw["wireless_cfg"]["total_bandwidth_hz"] = 1e30
        raw["rounds"] = 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("rounds=2 ") and err == "" and not caught

    def test_allocation_at_alpha_1000_runs(self, tmp_path, capsys):
        """The bandwidth price exp(t) overflows a float at alpha = 1000, and
        so does a utility x^(1 - alpha) with x < 1; the solve keeps the log
        price, and the objective takes the utility's limit, -inf."""
        raw = json.loads((CONFIGS / "wireless_fedqvr_e.json").read_text())
        raw["wireless_cfg"]["alpha"] = 1000.0
        raw["rounds"] = 30
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("rounds=30 ") and err == "" and not caught

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(log_w=st.floats(-30, 308))
    def test_any_bandwidth_runs_or_is_one_allocation_line(self, tmp_path, capsys, log_w):
        raw = json.loads((CONFIGS / "wireless_fedqvr_e.json").read_text())
        raw["wireless_cfg"]["total_bandwidth_hz"] = 10.0 ** log_w
        raw["rounds"] = 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["run", "--config", str(path)])
        out, err = capsys.readouterr()
        assert not caught
        if 10.0 ** log_w < 1:
            assert (code, out) == (1, "")
            assert err == ("error: invalid config: wireless total_bandwidth_hz must lie in "
                           f"[1, inf), got {10.0 ** log_w!r}\n")
        elif code == 0:
            assert err == "" and out.count("\n") == 1
        else:
            assert code == 1 and out == ""
            assert err.startswith("error: allocation failed: ") and err.count("\n") == 1

    @pytest.mark.parametrize("wireless_cfg", [
        {"enabled": True, "total_bandwidth_hz": 5e-324},
        {"enabled": True, "total_bandwidth_hz": 1e-300, "noise_psd_dbm_hz": -3000},
    ], ids=["subnormal-share", "share-times-noise-underflows"])
    def test_bandwidth_below_1_hz_is_one_line(self, tmp_path, wireless_cfg):
        """An equal split of less than 1 Hz could make a share, or a share
        times N0, underflow to 0 in the rate. Run in a subprocess, to see all
        of stderr."""
        raw = json.loads((CONFIGS / "synthetic_fedqvr.json").read_text())
        raw.update(rounds=1, wireless_cfg=wireless_cfg)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "fedsim.cli", "run", "--config", str(cfg)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == ("error: invalid config: wireless total_bandwidth_hz must lie in "
                               f"[1, inf), got {wireless_cfg['total_bandwidth_hz']!r}\n")

    @pytest.mark.parametrize("bits", [53, 64])
    def test_bit_width_beyond_float64_levels_is_one_line(self, tmp_path, capsys, bits):
        raw = json.loads((CONFIGS / "synthetic_fedqvr.json").read_text())
        raw.update(rounds=1, bits=bits)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not caught
        assert err == f"error: invalid config: bits must lie in [1, 52] for fedqvr, got {bits}\n"

    def test_out_of_memory_is_one_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")
        monkeypatch.setattr(harness, "run_experiment", exhausted)
        assert cli.main(["run", "--config", write_config(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 74.5 GiB for an array\n"

    @pytest.mark.parametrize("field,value", [
        ("sample_size", 5.0), ("rounds", 2.5), ("rounds", True), ("num_clients", 20.0),
        ("eta", float("nan")), ("local_epochs", 1.5), ("hlu", 1), ("hlu_range", [1, 2.5]),
        ("algorithm", ["fedqvr"]),
    ])
    def test_wrongly_typed_field_is_one_line_validation_error(
            self, tmp_path, capsys, field, value):
        raw = json.loads((CONFIGS / "synthetic_fedqvr.json").read_text())
        raw.update({"rounds": 3, field: value})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: invalid config: {field} must be ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("extra,message", [
        ({"dataset": {"kind": "synthetic", "num_classes": 3, "samples_per_class": 40,
                      "separation": 3.0}}, "synthetic dataset needs ['dim']"),
        ({"dataset": [3, 8]}, "dataset must be a JSON object"),
        ({"dataset": {**BASE_CONFIG["dataset"], "dim": 0}},
         "invalid config: dataset dim must lie in [1, inf), got 0\n"),
        ({"dataset": {**BASE_CONFIG["dataset"], "num_classes": 0}},
         "invalid config: dataset num_classes must lie in [1, inf), got 0\n"),
        ({"dataset": {**BASE_CONFIG["dataset"], "test_samples_per_class": 0}},
         "invalid config: dataset test_samples_per_class must lie in [1, inf), got 0\n"),
        *[({"dataset": {**BASE_CONFIG["dataset"], key: value}},
           f"invalid config: dataset {key} must be {kind}")
          for key, value, kind in [
              ("separation", True, "a finite number"),
              ("separation", float("nan"), "a finite number"),
              ("dim", True, "an integer"), ("dim", "x", "an integer"),
              ("dim", 8.0, "an integer"), ("test_samples_per_class", True, "an integer"),
              ("num_classes", None, "an integer")]],
        ({"dataset": {"kind": "mnist", "images_path": ["x"], "labels_path": "y",
                      "test_images_path": "y", "test_labels_path": "y"}},
         "invalid config: dataset images_path must be a string"),
        *[({"wireless_cfg": value}, "invalid config: wireless_cfg must be a JSON object")
          for value in (0, [], "", False, None, [1])],
        ({"model_kind": "cnn"}, "model_kind"),
        ({"hlu": True, "hlu_range": [3]}, "hlu_range"),
        ({"hlu": True, "hlu_range": [3, 1]},
         "invalid config: hlu_range[1] must lie in [hlu_range[0], 2**63) with hlu on, got 1\n"),
        ({"labels_per_client": 0}, "labels_per_client"),
        ({"num_clients": 2000}, "cannot build 2000 shards from 120 samples"),
        ({"wireless_cfg": {"total_bandwidth_hz": 0}},
         "invalid config: wireless total_bandwidth_hz must lie in [1, inf), got 0\n"),
        ({"wireless_cfg": {"trace_in": "chan.jsonl"}},
         "invalid config: unknown wireless_cfg fields: ['trace_in']"),
        ({"dataset": {**BASE_CONFIG["dataset"], "test_samples_per_clas": 7}},
         "invalid config: unknown dataset fields: ['test_samples_per_clas']"),
        ({"wireless_cfg": {"r_min": -5}},
         "invalid config: wireless r_min must lie in [1, inf), got -5\n"),
        ({"wireless_cfg": {"r_min": 600}},
         "invalid config: wireless r_max must lie in [wireless r_min, 1e100], got 500.0\n"),
        ({"wireless_cfg": {"r_max": 5}},
         "invalid config: wireless r_max must lie in [wireless r_min, 1e100], got 5\n"),
        ({"algorithm": "fedqvr_e", "wireless_cfg": {"enabled": True, "tau": 4e-6, "r_min": 0}},
         "invalid config: wireless r_min must lie in [1, inf), got 0\n"),
        # 1 + gamma*eta rounds to 1, so E_tilde, the divisor of each step scale, is 0
        ({"gamma": 1e-14, "eta": 1e-3},
         "invalid config: gamma*eta must leave 1 + gamma*eta above 1 in float64, got 1e-17"),
        ({"algorithm": "fedqvr_e", "gamma": 1e-14, "eta": 1e-3,
          "wireless_cfg": {"enabled": True, "tau": 4e-6}},
         "invalid config: gamma*eta must leave 1 + gamma*eta above 1 in float64, got 1e-17"),
        # 3000 dBm through a path gain of d**100 would be more power than a float holds
        ({"algorithm": "fedqvr_e", "wireless_cfg": {
            "enabled": True, "tau": 4e-6, "tx_power_dbm": 3000, "pathloss_exponent": -100}},
         "error: invalid config: wireless pathloss_exponent must lie in [0, inf) with wireless "
         "enabled, got -100\n"),
        ({"dataset": "idx"}, "bad image magic"),
        ('"abc"', "config must be a JSON object, got str"),
        ("null", "config must be a JSON object, got NoneType"),
        ("3", "config must be a JSON object, got int"),
    ], ids=["no-dim", "dataset-list", "dim-0", "classes-0", "test-samples-0",
            "separation-true", "separation-nan", "dim-true", "dim-str", "dim-float",
            "test-samples-true", "classes-null", "mnist-path-list",
            "wireless-cfg-0", "wireless-cfg-empty-list", "wireless-cfg-empty-str",
            "wireless-cfg-false", "wireless-cfg-null", "wireless-cfg-list", "model-kind",
            "hlu-range-of-one", "hlu-range-decreasing", "labels-0", "too-many-clients", "bandwidth-0-layer-off",
            "channel-replay-option", "dataset-misspelled-key", "r-min-negative",
            "r-min-beyond-r-max", "r-max-inside-r-min", "r-min-0",
            "gamma-eta-below-ulp", "gamma-eta-below-ulp-fedqvr-e", "infinite-received-power",
            "non-idx-file", "string-config", "null-config", "number-config"])
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

    @pytest.mark.parametrize("extra,name", [
        ({"out": "a\x00b.csv"}, "out"),
        ({"trace_rounds_out": "a\x00b.jsonl"}, "trace_rounds_out"),
        ({"wireless_cfg": {"trace_out": "a\x00b.jsonl"}}, "wireless trace_out"),
    ], ids=["out", "trace-rounds-out", "channel-trace-out"])
    def test_nul_in_a_path_is_one_line_before_the_run(
            self, tmp_path, capsys, monkeypatch, extra, name):
        def no_run(cfg):
            raise AssertionError("the run started")

        monkeypatch.setattr(harness, "_build_task", no_run)
        assert cli.main(["run", "--config", write_config(tmp_path, **extra)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: invalid config: {name} must not contain a NUL character\n"

    @pytest.mark.parametrize("algorithm", ["scaffold", "fedavg", "fedqvr_e"])
    def test_overflowing_iterate_is_divergence(self, tmp_path, capsys, algorithm):
        """Exit 2, though FloatingPointError is an ArithmeticError, which a
        failed allocation raises too."""
        wireless = {"enabled": True, "tau": 4e-6} if algorithm == "fedqvr_e" else {}
        cfg = write_config(tmp_path, algorithm=algorithm, eta=1e308, wireless_cfg=wireless)
        assert cli.main(["run", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: divergence: local update diverged to non-finite iterate\n"


    @pytest.mark.parametrize("rounds", [1, 3])
    @pytest.mark.parametrize("algorithm", ["fedavg", "scaffold"])
    def test_overflowing_aggregate_is_one_line_divergence(self, tmp_path, algorithm, rounds):
        """At eta = 1e308 the MLP's iterates stay finite, but their sum
        overflows: exit 2 and one stderr line, no RuntimeWarning. Run in a
        subprocess, since pytest takes warnings before stderr sees them."""
        raw = json.loads((CONFIGS / "synthetic_fedqvr.json").read_text())
        raw.update(algorithm=algorithm, eta=1e308, rounds=rounds,
                   model_kind="one-hidden-layer-mlp")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "fedsim.cli", "run", "--config", str(cfg)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: divergence: aggregate diverged to non-finite server state\n"

    @pytest.mark.parametrize("separation", [1e308, -1e308])
    def test_overflowing_class_means_are_one_line(self, tmp_path, separation):
        """No RuntimeWarning before the error line. Run in a subprocess, since
        pytest takes warnings before stderr sees them."""
        raw = json.loads((CONFIGS / "synthetic_fedqvr.json").read_text())
        raw["rounds"] = 1
        raw["dataset"]["separation"] = separation
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "fedsim.cli", "run", "--config", str(cfg)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (f"error: invalid config: dataset: separation {separation!r} "
                               "makes non-finite class means\n")

    def test_overflow_outside_the_allocator_is_not_an_allocation_failure(
            self, tmp_path, capsys, monkeypatch):
        """An overflow in the device placement, on a config that runs no
        allocator. No config reaches one since r_max is bounded, so it is put
        there by hand."""
        def overflowing(*args, **kw):
            raise OverflowError(34, "Numerical result out of range")

        monkeypatch.setattr(harness.wireless, "place_devices", overflowing)
        raw = json.loads((CONFIGS / "synthetic_fedqvr.json").read_text())
        raw.update(rounds=1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: arithmetic error: OverflowError(34, 'Numerical result out of range')\n")

    @pytest.mark.parametrize("key,value,message", [
        ("eta", 10**400, "eta must be a finite number, got 10000000...(401 digits)"),
        ("eta", -10**400, "eta must be a finite number, got -10000000...(401 digits)"),
        ("seed", 2**100, "seed must lie in [0, 2**64), got 12676506...(31 digits)")])
    def test_huge_integer_is_echoed_cut(self, tmp_path, capsys, key, value, message):
        """An integer of more than 20 digits is echoed as its first 8 and its
        digit count."""
        assert cli.main(["run", "--config", write_config(tmp_path, **{key: value})]) == 1
        assert capsys.readouterr().err == f"error: invalid config: {message}\n"


# Fields a run opens as files; a drawn value there would name a file or a
# descriptor, which is not what this fuzzing is about.
_PATH_FIELDS = {"out", "trace_rounds_out", "trace_out"}
_FUZZ_FIELDS = (
    [(None, f.name) for f in fields(ExperimentConfig) if f.name not in _PATH_FIELDS]
    + [("wireless_cfg", f.name) for f in fields(WirelessConfig) if f.name not in _PATH_FIELDS]
    + [("dataset", k) for k in BASE_CONFIG["dataset"]])
_SCALARS = (st.booleans() | st.sampled_from([math.nan, math.inf, -math.inf])
            | st.integers(-3, 3) | st.text(max_size=3) | st.none())
_FUZZ_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3)
# the wireless fields are read only with the wireless layer on
_WIRELESS_ON = {"algorithm": "fedqvr_e", "wireless_cfg": {
    "enabled": True, "tau": 4e-6, "alpha": 0.5, "b_lower": 1, "b_upper": 24}}


@pytest.mark.parametrize("base", [{}, _WIRELESS_ON], ids=["plain", "wireless"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.sampled_from(_FUZZ_FIELDS), value=_FUZZ_VALUES)
def test_run_with_one_mutated_field_is_one_line_and_a_documented_code(
        tmp_path, monkeypatch, capsys, base, where, value):
    monkeypatch.chdir(tmp_path)
    raw = json.loads(json.dumps({**BASE_CONFIG, **base, "rounds": 2}))
    block, name = where
    target = raw if block is None else raw.setdefault(block, {})
    target[name] = value
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    code = cli.main(["run", "--config", "cfg.json"])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1 and "Traceback" not in err
    assert out.count("\n") == (code == 0)


# Every numeric key of a run but ``rounds`` (a huge count is a legal, endless
# run): (block, key, what else the key needs to be read).
_NUMERIC_KEYS = (
    [(None, f.name, {"model_kind": "one-hidden-layer-mlp"} if f.name == "hidden_dim" else {})
     for f in fields(ExperimentConfig) if f.type in ("int", "float") and f.name != "rounds"]
    + [("dataset", k, {}) for k in harness._DATASET_KEYS["synthetic"]]
    + [("wireless_cfg", f.name, {}) for f in fields(WirelessConfig) if f.type in ("int", "float")]
    + [(None, "hlu_range", {"hlu": True})])


@pytest.mark.parametrize("config", ["synthetic_fedqvr", "wireless_fedqvr_e"])
@pytest.mark.parametrize("block,key,needs", _NUMERIC_KEYS,
                         ids=[f"{b or 'top'}.{k}" for b, k, _ in _NUMERIC_KEYS])
def test_huge_number_in_a_numeric_key_is_one_line(tmp_path, capsys, config, block, key, needs):
    """Integers beyond int64 and beyond the float range, in each numeric key
    of each shipped config (for hlu_range, its upper end), end in at most one
    stderr line and a documented exit code, never an exception."""
    for value in (2**63 - 1, 2**63, 10**400, -10**400):
        raw = {**json.loads((CONFIGS / f"{config}.json").read_text()), "rounds": 1, **needs}
        if key == "hlu_range":
            raw[key] = [1, value]
        else:
            (raw if block is None else raw.setdefault(block, {}))[key] = value
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        code = cli.main(["run", "--config", str(tmp_path / "cfg.json")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3) and err.count("\n") <= 1, (value, err)


# A valid IDX pair: 12 images of 2 x 2 pixels, three labels.
_IMAGES = bytes.fromhex("00000803") + (12).to_bytes(4, "big") + bytes.fromhex(
    "0000000200000002") + bytes(range(0, 240, 5))
_LABELS = bytes.fromhex("00000801") + (12).to_bytes(4, "big") + bytes(i % 3 for i in range(12))
_SMALL = st.integers(0, 16)
# Three of these claim at least 2**63 bytes, a read CPython refuses before it
# allocates; so no example asks a read for a size it would allocate.
_HUGE = st.integers(2**21, 2**32 - 1)


@st.composite
def _broken_idx(draw, valid: bytes):
    """``valid`` with one defect: random bytes under another magic, a cut
    anywhere, or a header whose sizes the body does not match."""
    kind = draw(st.sampled_from(["random", "truncated", "claim"]))
    if kind == "random":
        return draw(st.binary(max_size=64).filter(lambda b: b[:4] != valid[:4]))
    if kind == "truncated":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    counts = draw(st.tuples(_SMALL, _SMALL, _SMALL) | st.tuples(_HUGE, _HUGE, _HUGE)
                  if valid is _IMAGES else st.tuples(_SMALL))
    body = draw(st.binary(max_size=64).filter(lambda b: len(b) != math.prod(counts)))
    return valid[:4] + b"".join(c.to_bytes(4, "big") for c in counts) + body


_IDX_PATHS = ("images_path", "labels_path", "test_images_path", "test_labels_path")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(broken=st.sampled_from(_IDX_PATHS).flatmap(lambda key: st.tuples(
    st.just(key), _broken_idx(_LABELS if "labels" in key else _IMAGES))))
def test_run_on_a_broken_idx_file_is_one_line(tmp_path, capsys, broken):
    """One IDX file of an otherwise valid MNIST config is random, cut short
    or sized unlike its header: ``fedsim run`` ends in one line, exit 1."""
    key, content = broken
    paths = {}
    for name in _IDX_PATHS:
        paths[name] = str(tmp_path / name)
        Path(paths[name]).write_bytes(
            content if name == key else _LABELS if "labels" in name else _IMAGES)
    config = write_config(tmp_path, dataset={"kind": "mnist", **paths}, rounds=2)
    assert cli.main(["run", "--config", config]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: invalid config: dataset: ") and err.count("\n") == 1


def _idx_images(n: int, rows: int, cols: int) -> bytes:
    return (bytes.fromhex("00000803") + b"".join(v.to_bytes(4, "big") for v in (n, rows, cols))
            + bytes(range(n * rows * cols)))


@pytest.mark.parametrize("test_images,test_labels,message", [
    (_idx_images(12, 3, 3), _LABELS, "test samples have 9 features, training samples 4"),
    (_idx_images(0, 2, 2), bytes.fromhex("0000080100000000"), "the test set is empty"),
], ids=["test-width-differs", "empty-test-set"])
def test_test_set_that_cannot_score_the_model_is_one_line(
        tmp_path, capsys, test_images, test_labels, message):
    """Valid IDX files whose test set is empty, or whose test images are not
    as wide as the training images: one line, exit 1."""
    paths = {name: str(tmp_path / name) for name in _IDX_PATHS}
    for name, content in zip(_IDX_PATHS, (_IMAGES, _LABELS, test_images, test_labels)):
        Path(paths[name]).write_bytes(content)
    config = write_config(tmp_path, dataset={"kind": "mnist", **paths}, rounds=2)
    assert cli.main(["run", "--config", config]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: invalid config: dataset: {message}\n"


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
        assert sorted(p.name for p in out_dir.glob("metrics_*.csv")) == [
            "metrics_eta-0.01.csv", "metrics_eta-1e+308.csv"]
        # the diverged run keeps the lines it wrote: the header and round 0
        lines = (out_dir / "metrics_eta-1e+308.csv").read_text().splitlines()
        assert lines[0] == harness.CSV_HEADER and [line.split(",")[0] for line in lines[1:]] == ["0"]

    def test_invalid_combo_is_one_line_and_the_rest_still_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = cli.main(["sweep", "--config", cfg, "--grid", '{"labels_per_client": [0, 1]}',
                       "--out-dir", str(tmp_path / "sweep")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == ("[labels_per_client-0] invalid config: labels_per_client must lie in "
                       "[1, inf), got 0\n")
        assert out.startswith("[labels_per_client-1] accuracy=")

    def test_nul_in_a_path_is_one_line_and_the_rest_still_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        good = str(tmp_path / "rounds.jsonl")
        rc = cli.main(["sweep", "--config", cfg,
                       "--grid", json.dumps({"trace_rounds_out": ["x\x00y", good]}),
                       "--out-dir", str(tmp_path / "sweep")])
        assert rc == 1
        out, err = capsys.readouterr()
        # the combination's CSV name escapes the NUL, so only the field set is named
        assert err == ("[trace_rounds_out-x\x00y] invalid config: trace_rounds_out must not "
                       "contain a NUL character\n")
        assert out.startswith(f"[trace_rounds_out-{good}] accuracy=")
        assert Path(good).exists()

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

    @pytest.mark.parametrize("text", ["not json", "[1, 2]", pytest.param(
        '{"seed": ' + "1" * 5000 + "}", id="integer-too-long")])
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

    def test_out_of_memory_is_one_line_per_combination(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError()
        monkeypatch.setattr(harness, "run_experiment", exhausted)
        rc = cli.main(["sweep", "--config", write_config(tmp_path),
                       "--grid", '{"eta": [0.01, 0.05]}', "--out-dir", str(tmp_path / "s")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "[eta-0.01] out of memory\n[eta-0.05] out of memory\n"

    def test_grid_values_with_a_path_separator_write_inside_out_dir(self, tmp_path, capsys):
        """A trace path in the grid puts '/' into the combination's tag; its
        CSV still lands in --out-dir, and two trace paths that differ only in
        '/' against '%2F' give two files."""
        (tmp_path / "t").mkdir()
        traces = [str(tmp_path / "t" / "a.jsonl"), str(tmp_path / "t%2Fa.jsonl")]
        out_dir = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", write_config(tmp_path), "--out-dir", str(out_dir),
                       "--grid", json.dumps({"rounds": [2], "trace_rounds_out": traces})])
        assert rc == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [line.split("]")[0][1:] for line in out.splitlines()] == [
            f"rounds-2_trace_rounds_out-{trace}" for trace in traces]
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == sorted(
            "metrics_rounds-2_trace_rounds_out-"
            + trace.replace("%", "%25").replace("/", "%2F") + ".csv" for trace in traces)
        assert all(Path(trace).is_file() for trace in traces)

    def test_out_in_the_grid_is_one_line(self, tmp_path, capsys):
        """The sweep sets each combination's out itself, so a grid that sets
        it is rejected instead of being overridden in silence."""
        out_dir = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", write_config(tmp_path), "--out-dir", str(out_dir),
                       "--grid", json.dumps({"out": [str(tmp_path / "m.csv")]})])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: grid must not set out") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_bad_grid_json(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["sweep", "--config", cfg, "--grid", "not json",
                         "--out-dir", str(tmp_path)]) == 1
        assert cli.main(["sweep", "--config", cfg, "--grid", "[]",
                         "--out-dir", str(tmp_path)]) == 1
        assert cli.main(["sweep", "--config", cfg, "--grid", '{"seed": [' + "1" * 5000 + "]}",
                         "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("grid", ['{"eta": 0.1}', '{"eta": []}', '{"eta": [0.1], "bits": 2}'])
    def test_grid_value_that_is_not_a_non_empty_list_is_one_line(self, tmp_path, capsys, grid):
        out_dir = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", write_config(tmp_path), "--grid", grid,
                       "--out-dir", str(out_dir)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: grid must be ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_out_dir_that_is_a_file_is_one_io_line(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = cli.main(["sweep", "--config", write_config(tmp_path), "--grid", '{"eta": [0.01]}',
                       "--out-dir", str(taken)])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot create out-dir: ") and err.count("\n") == 1


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

    def test_every_device_dropped_prints_standard_json(self, tmp_path, capsys):
        """Both devices are pre-dropped, so the log price and the objective
        are -inf; the output is still JSON that a strict parser reads, with
        null in those fields."""
        def strict(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        problem = json.loads(self.PROBLEM.to_json())
        problem.update(gains=[1e-20, 2e-20], w_total=1e6)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert cli.main(["alloc", "--problem", str(path)]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=strict)
        assert out["feasible"] is False and out["dropped"] == [0, 1]
        assert out["log_price"] is None and out["objective"] is None

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
        return err

    def test_unknown_key_is_validation_error(self, tmp_path, capsys):
        """A key the problem does not have is not dropped in silence."""
        err = self.assert_one_line_rejection(tmp_path, capsys, b_upper=3)
        assert err == "error: invalid problem: unknown problem keys: ['b_upper']\n"

    def test_missing_key_is_validation_error(self, tmp_path, capsys):
        problem = json.loads(self.PROBLEM.to_json())
        del problem["b_lower"]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert cli.main(["alloc", "--problem", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: invalid problem: missing problem keys: ['b_lower']\n"

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null"])
    def test_problem_that_is_not_an_object_is_validation_error(self, tmp_path, capsys, text):
        path = tmp_path / "problem.json"
        path.write_text(text)
        assert cli.main(["alloc", "--problem", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invalid problem: problem must be a JSON object, got ")
        assert err.count("\n") == 1

    def test_null_alpha_is_validation_error(self, tmp_path, capsys):
        self.assert_one_line_rejection(tmp_path, capsys, alpha=None)

    def test_nan_gain_is_validation_error(self, tmp_path, capsys):
        self.assert_one_line_rejection(tmp_path, capsys, gains=[float("nan"), 2e-7])

    @pytest.mark.parametrize("field,value", [
        ("d", 105.5), ("mu", 128.25), ("b_lower", 1.5), ("d", True),
    ])
    def test_non_integer_size_is_validation_error(self, tmp_path, capsys, field, value):
        err = self.assert_one_line_rejection(tmp_path, capsys, **{field: value})
        assert f"{field} must be an integer" in err

    @pytest.mark.parametrize("fields", [
        {"taus": [1e300, 0.001]}, {"gains": [1e306, 2e-7]}, {"taus": [1e250, 1e250]}])
    def test_unfloorable_bit_count_is_validation_error(self, tmp_path, capsys, fields):
        """A bit count that is infinite, or finite but beyond int64, fails
        the solve with one line and no numpy warning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.assert_one_line_rejection(tmp_path, capsys, **fields)
        assert not caught
        assert err.startswith("error: allocation failed: device 0: bit count ")

    def test_failed_delay_recheck_is_validation_error(self, tmp_path, capsys,
                                                      monkeypatch):
        def overspent(p):
            sol = AllocSolution(bandwidths=np.full(p.num_devices, 1e3),
                                bits_continuous=np.full(p.num_devices, 50.0),
                                bits_floored=np.zeros(p.num_devices, dtype=np.int64))
            return alloc.floor_and_drop(p, sol)

        monkeypatch.setattr(alloc, "solve_alloc", overspent)
        self.assert_one_line_rejection(tmp_path, capsys)


_ALLOC_FIELDS = ("gains", "taus", "w_total", "alpha", "d", "mu", "noise_psd", "b_lower")
_ALLOC_SCALARS = (st.booleans() | st.sampled_from([math.nan, math.inf, -math.inf])
                  | st.integers(10**15, 10**400) | st.text(max_size=3) | st.none()
                  | st.integers(-10**400, -1) | st.floats(max_value=-1e-300, allow_nan=False,
                                                            allow_infinity=False))
_ALLOC_VALUES = _ALLOC_SCALARS | st.lists(_ALLOC_SCALARS, max_size=3)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(_ALLOC_FIELDS), value=_ALLOC_VALUES)
def test_alloc_with_one_mutated_field_is_one_line_and_a_documented_code(
        tmp_path, capsys, name, value):
    """A bool, a non-finite value, a huge or negative number, a short string,
    null or a list in any one field of a valid problem: ``fedsim alloc``
    solves it or rejects it with one line, and never shows a traceback.
    Warnings count as lines, since a user's terminal shows them too."""
    problem = json.loads(TestAlloc.PROBLEM.to_json())
    problem[name] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["alloc", "--problem", str(path)])
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert err.count("\n") + len(caught) <= 1 and "Traceback" not in err
    assert out.count("\n") == (code == 0)


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_closed_form_check_runs_the_engine_step(self, monkeypatch):
        """With fedqvr's step adding half its anchor, the closed-form check
        fails: it checks the step a run takes, not a copy of it."""
        def halved_anchor(server, plan, start):
            ge = plan.gamma * plan.eta
            anchor = (ge / (1.0 + ge)) * start

            def step(theta, g, c):
                g -= c
                g *= plan.eta
                theta -= g
                theta /= 1.0 + ge
                theta += 0.5 * anchor
            return step

        monkeypatch.setattr(fed.FEDQVR, "stepper", halved_anchor)
        ok, detail = verify.check_closed_form_update()
        assert not ok, detail

    def test_identity_check_samples_from_the_sampling_stream(self, monkeypatch):
        """Round r's cohort comes from the key [seed_lo, seed_hi, SAMPLING, r, 0],
        as in a run, built here by numpy itself."""
        states = []
        sample_clients = fed.sample_clients

        def capture(num_clients, m, rng):
            states.append(rng.bit_generator.state)
            return sample_clients(num_clients, m, rng)

        monkeypatch.setattr(fed, "sample_clients", capture)
        ok, _ = verify.check_control_variate_identity(seed=2)
        assert ok
        assert states == [np.random.default_rng([2, 0, fed.SAMPLING, r, 0]).bit_generator.state
                          for r in range(15)]

    def test_unbiasedness_check_fails_biased_rounding(self, monkeypatch):
        """Rounding up with probability 0.99 of the grid remainder, not all of
        it, pulls every mean down by about 1% of a step."""
        draw_levels = quantizer._draw_levels
        monkeypatch.setattr(quantizer, "_draw_levels", lambda mags, lo, scale, k, u:
                            draw_levels(mags, lo, scale, k, u / 0.99))
        ok, detail = verify.check_quantizer_unbiased()
        assert not ok, detail

    def test_identity_check_fails_a_fold_weighted_by_one_over_n(self, monkeypatch):
        """With the server's c moved by each upload's c_i step weighted 1/N
        instead of p_i, c = sum p_i c_i breaks, since the weights differ."""
        aggregate = fed.FedQVR.aggregate

        def one_over_n(self, spec, server, p, C, plan, start, blocks):
            before = C.copy()
            out = aggregate(self, spec, server, p, C, plan, start, blocks)
            out.c = server.c + (C - before).sum(axis=0) / len(p)
            return out

        monkeypatch.setattr(fed.FedQVR, "aggregate", one_over_n)
        ok, detail = verify.check_control_variate_identity()
        assert not ok, detail
