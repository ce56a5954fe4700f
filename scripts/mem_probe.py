#!/usr/bin/env python3
"""Peak memory and run times of one config under several source trees.

Runs ``fedsim run`` on ``--config`` in fresh processes, ``--runs`` per source
tree, alternating which tree goes first: odd runs take the trees in the order
given, even runs in reverse. Each child imports fedsim from its tree's
``src`` directory, runs the config once (the cold first run), reads its own
``VmHWM`` from ``/proc/self/status``, then runs it ``WARM_RUNS`` more times
in the same process (warm runs). The peak is read inside the child because a
child's ``ru_maxrss`` starts from its parent's high-water mark at exec.

    python3 scripts/mem_probe.py --config wide.json --src parent/src \\
        --src change/src --runs 5 --out MEM_31.json

The output has ``description``, ``command``, ``config`` (its parsed JSON),
``machine``, ``runs`` and ``summary``. Each run records ``run``, ``src``,
``first``, ``process_s`` (the child's wall time, seen by this script),
``first_run_s``, ``warm_run_s``, ``vmhwm_kib`` and ``csv_sha256``, the hash
of the metrics CSV the first run wrote. The summary gives, per tree, the
median and quartiles of ``vmhwm_mib``, ``first_run_s``, ``process_s`` and
the per-process median of ``warm_run_s``, and whether every run of every
tree wrote the same CSV. It is also printed, one line per tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WARM_RUNS = 3  # in-process runs after the first, per child

# The child: one cold run, its own peak, then the warm runs. argv: config, CSV.
CHILD = """
import json, sys, time
import numpy as np
from fedsim import cli
config, csv = sys.argv[1:]
args = ["run", "--config", config, "--out", csv]

def timed():
    start = time.perf_counter()
    if cli.main(args) != 0:
        sys.exit("fedsim run failed")
    return time.perf_counter() - start

first = timed()
with open("/proc/self/status") as f:
    hwm = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
warm = [timed() for _ in range({warm})]
print(json.dumps({{"first_run_s": first, "warm_run_s": warm, "vmhwm_kib": hwm,
                  "numpy": np.__version__}}))
"""


def probe(src: Path, config: Path) -> dict:
    """One fresh child of ``src`` on ``config``: its CHILD record plus
    ``process_s`` and ``csv_sha256``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(src.resolve())
    with tempfile.TemporaryDirectory(prefix="mem-probe-") as work:
        csv = Path(work) / "metrics.csv"
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", CHILD.format(warm=WARM_RUNS), str(config.resolve()), str(csv)],
            cwd=work, env=env, capture_output=True, text=True)
        process_s = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"child of {src} exited {done.returncode}: "
                               f"{done.stderr.strip()[-500:]}")
        record = json.loads(done.stdout.splitlines()[-1])
        record["csv_sha256"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    record["process_s"] = process_s
    return record


def quartiles(values: list[float]) -> dict[str, float]:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"q1": q[0], "median": statistics.median(values), "q3": q[2]}


def summary(runs: list[dict]) -> dict:
    """Per tree, the quartiles of each measure; and whether every run wrote
    the same metrics CSV."""
    trees: dict[str, dict] = {}
    for run in runs:
        tree = trees.setdefault(run["src"], {})
        for name, value in (("vmhwm_mib", run["vmhwm_kib"] / 1024),
                            ("first_run_s", run["first_run_s"]),
                            ("warm_run_s", statistics.median(run["warm_run_s"])),
                            ("process_s", run["process_s"])):
            tree.setdefault(name, []).append(value)
    return {"same_csv": len({run["csv_sha256"] for run in runs}) == 1,
            "trees": {src: {name: quartiles(v) for name, v in measures.items()}
                      for src, measures in trees.items()}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path, help="fedsim run config")
    parser.add_argument("--src", required=True, action="append", type=Path,
                        help="a source tree's src directory; give it once per tree")
    parser.add_argument("--runs", type=int, default=5, help="fresh processes per tree")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if not Path("/proc/self/status").is_file():
        parser.error("the child reads its peak from /proc/self/status, which this system lacks")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    config = json.loads(args.config.read_text())
    runs = []
    for run in range(1, args.runs + 1):
        order = args.src if run % 2 else args.src[::-1]
        for src in order:
            record = probe(src, args.config)
            runs.append({"run": run, "src": str(src), "first": str(order[0]), **record})
            print(f"run {run} {src}: VmHWM {record['vmhwm_kib']} kB, "
                  f"first {record['first_run_s']:.3f} s", file=sys.stderr, flush=True)
    result = summary(runs)
    out = {
        "description": (
            f"fedsim run of one config in fresh processes, {args.runs} per source tree, "
            f"alternating which tree runs first; VmHWM read inside each child after its "
            f"first run, then {WARM_RUNS} warm in-process runs"),
        "command": "python3 scripts/mem_probe.py " + " ".join(
            [f"--config {args.config}", *(f"--src {s}" for s in args.src),
             f"--runs {args.runs}", f"--out {args.out}"]),
        "config": config,
        "machine": (f"{os.cpu_count()}-CPU {platform.system()}, Python "
                    f"{platform.python_version()}, numpy {runs[0]['numpy']}"),
        "runs": runs,
        "summary": result,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for src, measures in result["trees"].items():
        print(f"{src}: " + ", ".join(f"{name} {m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"
                                     for name, m in measures.items()))
    print(f"same_csv: {result['same_csv']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
