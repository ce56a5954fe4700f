"""Smoke tests of the scripts under scripts/."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import load_script

ROOT = Path(__file__).resolve().parents[1]


ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                   os.environ.get("PYTHONPATH")]))}


def test_claims_writes_each_criterion_margin_per_seed(tmp_path):
    out = tmp_path / "claims.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "claims.py"), "--seeds", "1", "--rounds", "3",
         "--out", str(out)], capture_output=True, text=True, env=ENV, timeout=120)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == [out]
    claims = json.loads(out.read_text())
    assert claims["command"] == f"python3 scripts/claims.py --seeds 1 --rounds 3 --out {out}"
    assert (claims["seeds"], claims["rounds"]) == (1, 3)
    assert set(claims["summary"]) == {"9_holds", "10_holds", "11_wins", "11_drop_fraction"}
    [seed] = claims["per_seed"]
    assert seed["seed"] == 0
    assert {"target", "fedqvr_rounds", "fedavg_rounds"} <= set(seed["9"])
    assert seed["10"]["margin"] == seed["10"]["accuracy_b4"] - (seed["10"]["accuracy_b1"] - 0.01)
    assert seed["11"]["margin"] == (seed["11"]["train_loss_equal"]
                                    - seed["11"]["train_loss_allocated"])
    assert seed["11"]["sent"] == 3 * 5  # rounds x sampled clients
    assert len(done.stdout.splitlines()) == 2  # one line per seed, one summary


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="extracting the parent tree needs a git checkout")
def test_bench_pairs_writes_one_alternating_pair(tmp_path):
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--parent", "HEAD",
         "--pairs", "1", "--seconds", "0", "--workloads", "wireless_alloc", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    bench = json.loads(out.read_text())
    assert list(bench) == ["description", "command", "parent", "machine", "runs"]
    assert bench["command"] == ("python3 perfbench/run.py --workload <name> --seed 1000 "
                                "--seconds 0 --trace 0")
    assert len(bench["parent"]) == 40
    assert [(r["workload"], r["pair"], r["first"], r["tree"]) for r in bench["runs"]] == [
        ("wireless_alloc", 1, "parent", "parent"), ("wireless_alloc", 1, "parent", "change")]
    for run in bench["runs"]:
        assert run["result"]["correct"]
        assert set(run["result"]["metrics"]) == {"run_s", "steps_per_s", "setup_s", "peak_rss_mb"}
        assert run["info"]["workload"] == "wireless_alloc" and run["info"]["seed"] == 1000
    assert len(done.stdout.splitlines()) == 4  # one summary line per end-to-end metric


def synthetic_runs(values: dict[str, tuple[list[float], list[float]]]) -> list[dict]:
    """bench_pairs runs of one workload: per metric, the parent's and the
    change's value in each pair."""
    pairs = len(next(iter(values.values()))[0])
    return [{"workload": "w", "pair": pair + 1, "tree": tree,
             "result": {"metrics": {name: {"value": by_tree[side][pair]}
                                    for name, by_tree in values.items()}}}
            for pair in range(pairs) for side, tree in enumerate(("parent", "change"))]


def test_bench_pairs_summary_states_each_verdict():
    """Synthetic pairs, no benchmark process: one metric per verdict, read
    against BENCHMARK.json's directions and bounds (run_s 25%, lower is
    better; steps_per_s 25%, higher; setup_s 25%, lower; peak_rss_mb 5%,
    lower)."""
    bench_pairs = load_script("bench_pairs")
    steady = [0.01 * i for i in range(10)]
    runs = synthetic_runs({
        # 20% faster in every pair, far beyond the parent's spread
        "run_s": ([1.0 + d for d in steady], [0.8 + d for d in steady]),
        # half the throughput: worse by more than the bound
        "steps_per_s": ([100.0 + d for d in steady], [50.0 + d for d in steady]),
        # the parent's own runs spread over twice the bound, and the change
        # is no better
        "setup_s": ([0.5, 1.5] * 5, [1.5, 0.5] * 5),
        # 0.2% more memory, inside the bound, with a tight spread
        "peak_rss_mb": ([60.0 + d for d in steady], [60.12 + d for d in steady]),
    })
    verdicts = {line.split(":")[0]: line.rsplit(": ", 1)[1]
                for line in bench_pairs.summary(runs)}
    assert verdicts == {"w run_s": "gain", "w steps_per_s": "regressed",
                        "w setup_s": "unresolved", "w peak_rss_mb": "within bound"}


def test_bench_pairs_verdict_counts_wins_and_the_spread():
    bench_pairs = load_script("bench_pairs")
    wide = dict(enumerate([1.0, 2.0] * 5))
    # every change run beats every parent run, by less than the parent's
    # interquartile range: resolved, but no gain
    assert bench_pairs.verdict(wide, dict.fromkeys(wide, 0.99), "lower", 0.25) == (
        10, 1.0, "within bound")
    # better by far in 8 of 10 pairs: short of nine tenths
    parent = dict.fromkeys(range(10), 1.0)
    change = {p: 0.5 if p < 8 else 1.0 for p in parent}
    assert bench_pairs.verdict(parent, change, "lower", 0.25)[::2] == (8, "within bound")
    change[8] = 0.5
    assert bench_pairs.verdict(parent, change, "lower", 0.25)[::2] == (9, "gain")


@pytest.mark.parametrize("config,block,key,value,code,line", [
    ("synthetic_fedqvr", None, "seed", 0, 0, ""),
    ("synthetic_fedqvr", None, "eta", 0, 1,
     "error: invalid config: eta must lie in (0, inf), got 0"),
    ("synthetic_fedqvr", "wireless_cfg", "r_max", 1e300, 1,
     "error: invalid config: wireless r_max must lie in [wireless r_min, 1e100], got 1e+300"),
    ("wireless_fedqvr_e", "wireless_cfg", "pathloss_exponent", -1e308, 1,
     "error: invalid config: wireless pathloss_exponent must lie in [0, inf) with wireless "
     "enabled, got -1e+308"),
    ("wireless_fedqvr_e+fedqvr", "wireless_cfg", "total_bandwidth_hz", 5e-324, 1,
     "error: invalid config: wireless total_bandwidth_hz must lie in [1, inf), got 5e-324"),
])
def test_fuzz_config_runs_one_case_as_a_subprocess(config, block, key, value, code, line):
    fuzz = load_script("fuzz_config")
    assert len(fuzz.cases()) == 3 * 34 * 15
    run = fuzz.run_case(config, block, key, value)
    assert (run["exit"], run["stderr_lines"], run["stderr"], run["flags"]) == (
        code, int(bool(line)), line, [])
    assert run["value"] == json.dumps(value)


def test_fuzz_config_flags_what_is_more_than_one_documented_line():
    flags = load_script("fuzz_config").flags
    assert flags({"algorithm": "fedqvr"}, "error: invalid config: x\n") == []
    assert flags({"algorithm": "fedqvr"}, "Traceback (most recent call last):\n  ...\n") == [
        "traceback", "second stderr line"]
    assert flags({"algorithm": "fedqvr_e"}, "error: arithmetic error: OverflowError()\n") == [
        "arithmetic error"]
    assert flags({"algorithm": "fedqvr_e"}, "error: allocation failed: x\n") == []
    assert flags({"algorithm": "fedavg"}, "error: allocation failed: x\n") == [
        "allocation failed without an allocator"]
