#!/usr/bin/env python3
"""Run ``fedsim run`` on configs with one key set to one odd value, as one JSON file.

Each case takes a base, sets ``rounds`` to 2 and sets one key to one of 15
values: null, "x", -1, 0, 0.5, [], {}, true, NaN, +-1e308, 1e300, 2**63,
-0.0 and 5e-324. The bases are the shipped configs (``configs/*.json``) and
``wireless_fedqvr_e+fedqvr``, the equal split with its delay check. The keys
are every top-level key but ``rounds``, the output paths and the two nested
objects; every key of the synthetic dataset object, ``kind`` included; and
every ``wireless_cfg`` key but ``trace_out``. Each case runs as its own
subprocess, in its own temporary directory, with this checkout's ``src/``
on the path.

    python3 scripts/fuzz_config.py --workers 2 --out FUZZ.json

Each case records its config, key, value (as JSON text), exit code, number
of stderr lines, first stderr line, and its flags: ``traceback``,
``second stderr line``, ``arithmetic error``, and ``allocation failed`` on a
config that runs no allocator. At the end it prints the count of each exit
code and of each flag; it exits 1 if any case is flagged.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# each base: a shipped config, or one with "+<algorithm>" run under that algorithm
CONFIGS = ("synthetic_fedqvr", "wireless_fedqvr_e", "wireless_fedqvr_e+fedqvr")
VALUES = (None, "x", -1, 0, 0.5, [], {}, True, float("nan"), 1e308, -1e308, 1e300, 2**63, -0.0,
          5e-324)
TOP_KEYS = ("algorithm", "model_kind", "hidden_dim", "num_clients", "sample_size",
            "batch_size", "eta", "eta_g", "gamma", "a", "bits", "hlu", "hlu_range",
            "local_epochs", "labels_per_client", "seed", "eval_every")
DATASET_KEYS = ("kind", "num_classes", "dim", "samples_per_class", "test_samples_per_class",
                "separation")
WIRELESS_KEYS = ("enabled", "alpha", "tau", "b_lower", "b_upper", "tx_power_dbm",
                 "noise_psd_dbm_hz", "total_bandwidth_hz", "pathloss_exponent", "r_min",
                 "r_max")
KEYS = ([(None, k) for k in TOP_KEYS] + [("dataset", k) for k in DATASET_KEYS]
        + [("wireless_cfg", k) for k in WIRELESS_KEYS])


def cases() -> list[tuple[str, str | None, str, object]]:
    """Every (config, block, key, value), in the order the output lists them."""
    return [(config, block, key, value) for config in CONFIGS for block, key in KEYS
            for value in VALUES]


def mutated(config: str, block: str | None, key: str, value) -> dict:
    shipped, _, algorithm = config.partition("+")
    raw = json.loads((ROOT / "configs" / f"{shipped}.json").read_text())
    raw["rounds"] = 2
    if algorithm:
        raw["algorithm"] = algorithm
    (raw if block is None else raw.setdefault(block, {}))[key] = value
    return raw


def flags(raw: dict, stderr: str) -> list[str]:
    """What a case's stderr shows beyond one documented line."""
    lines = stderr.splitlines()
    found = []
    if "Traceback" in stderr:
        found.append("traceback")
    if len(lines) > 1:
        found.append("second stderr line")
    if any(line.startswith("error: arithmetic error") for line in lines):
        found.append("arithmetic error")
    if (raw.get("algorithm") != "fedqvr_e"
            and any(line.startswith("error: allocation failed") for line in lines)):
        found.append("allocation failed without an allocator")
    return found


def run_case(config: str, block: str | None, key: str, value) -> dict:
    """One ``fedsim run`` subprocess on ``config`` with ``key`` set to ``value``."""
    raw = mutated(config, block, key, value)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "cfg.json").write_text(json.dumps(raw))
        done = subprocess.run([sys.executable, "-m", "fedsim.cli", "run", "--config", "cfg.json"],
                              cwd=tmp, env=env, capture_output=True, text=True, timeout=300)
    lines = done.stderr.splitlines()
    return {"config": config, "key": key if block is None else f"{block}.{key}",
            "value": json.dumps(value), "exit": done.returncode, "stderr_lines": len(lines),
            "stderr": lines[0][:200] if lines else "", "flags": flags(raw, done.stderr)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        runs = list(pool.map(lambda case: run_case(*case), cases()))
    exits = collections.Counter(run["exit"] for run in runs)
    flagged = collections.Counter(f for run in runs for f in run["flags"])
    head = json.dumps({
        "description": __doc__.split("\n")[0],
        "command": f"python3 scripts/fuzz_config.py --workers {args.workers} --out {args.out}",
        "summary": {"cases": len(runs), "exit": {str(k): v for k, v in sorted(exits.items())},
                    "flags": dict(sorted(flagged.items()))}}, indent=1)
    # one line per case, so two runs' files compare line by line
    Path(args.out).write_text(head[:-2] + ',\n "runs": [\n'
                              + ",\n".join(json.dumps(run) for run in runs) + "\n ]\n}\n")
    print(f"{len(runs)} cases; exit " + ", ".join(f"{k}: {v}" for k, v in sorted(exits.items())))
    for flag, count in sorted(flagged.items()):
        print(f"{flag}: {count}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
