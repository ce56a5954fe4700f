#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written as one JSON file.

For each workload, runs ``perfbench/run.py`` at the held-out seed 1000 on a
parent commit and on this checkout's working tree, ``--pairs`` times; odd
pairs run the parent first, even pairs the change. Both trees run from clean
temporary directories: the parent is extracted with ``git archive``, and the
change is a copy of the working-tree files git lists (tracked or untracked,
not ignored), so neither carries caches the other lacks and the repository's
``.git`` is not touched. With ``--trace-workload``, it then runs one traced
pair of that workload the same way.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 10 \\
        --trace-workload scaffold_hlu --out BENCH_10.json

The output has ``description``, ``command``, ``parent``, ``machine`` and
``runs`` (plus ``trace_command`` and ``trace_runs`` when tracing). Each run
records ``workload``, ``pair``, ``first``, ``tree``, ``result`` (the
benchmark's last output line) and ``info`` (the line before it). At the end
it prints, per workload and end-to-end metric, both medians, the parent's
interquartile range, the number of pairs the change did better in, and a
verdict: ``gain``, ``regressed``, ``unresolved`` or ``within bound`` (see
``verdict``).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("wireless_alloc", "cohort_mlp", "scaffold_hlu")
SEED = 1000  # the benchmark's held-out seed, used for confirming claims


def extract(rev: str, dest: Path) -> str:
    """Write the files of commit ``rev`` into ``dest``; returns its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return sha


def copy_worktree(dest: Path) -> None:
    """Copy into ``dest`` the working-tree files that git tracks or would
    track (untracked, not ignored); tracked files deleted from the tree are
    skipped."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def bench_args(workload: str, seconds: float, trace: int) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def run_bench(tree: Path, args: list[str]) -> tuple[dict, dict]:
    """One benchmark run in ``tree``: (info line, result line)."""
    # each tree imports fedsim from its own src/
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(args)} in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def pairs(trees: dict[str, Path], workloads, n: int, args_of) -> list[dict]:
    """``n`` alternating pairs per workload; odd pairs run the parent first."""
    runs = []
    for workload in workloads:
        for pair in range(1, n + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for tree in order:
                info, result = run_bench(trees[tree], args_of(workload))
                runs.append({"workload": workload, "pair": pair, "first": order[0],
                             "tree": tree, "result": result, "info": info})
                print(f"{workload} pair {pair} {tree}: correct={result['correct']}",
                      file=sys.stderr, flush=True)
    return runs


def machine(info: dict) -> str:
    env = info["environment"]
    return (f"{env['nproc']}-CPU {platform.system()}, Python {env['python']}, "
            f"numpy {env['numpy']}, {env['blas']} ({env['blas_threads']} BLAS threads)")


def verdict(parent: dict[int, float], change: dict[int, float], better: str,
            bound: float) -> tuple[int, float, str]:
    """One metric compared over paired runs, each tree's values by pair:
    the pairs the change did better in, the parent's interquartile range,
    and the verdict. ``better`` and ``bound`` are the metric's entries in
    BENCHMARK.json; the bound is a fraction of the parent's median.

    - ``regressed``: the change's median is worse than the parent's by more
      than the bound;
    - ``gain``: the change did better in at least nine tenths of the pairs
      (ties count for neither), and its median is better by more than the
      parent's interquartile range;
    - ``unresolved``: the parent's interquartile range is wider than the
      bound, and not every run of the change beats every run of the parent;
    - ``within bound`` otherwise.
    """
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (change[p] - parent[p]) > 0 for p in parent)
    q = statistics.quantiles(parent.values(), n=4) if len(parent) > 1 else [0, 0, 0]
    iqr = q[2] - q[0]
    base = statistics.median(parent.values())
    gap = sign * (statistics.median(change.values()) - base)  # > 0: the change is better
    beats_all = min(sign * v for v in change.values()) > max(sign * v for v in parent.values())
    if -gap > bound * abs(base):
        return wins, iqr, "regressed"
    if wins >= 0.9 * len(parent) and gap > iqr:
        return wins, iqr, "gain"
    if iqr > bound * abs(base) and not beats_all:
        return wins, iqr, "unresolved"
    return wins, iqr, "within bound"


def summary(runs: list[dict]) -> list[str]:
    """Per workload and end-to-end metric: each tree's median, the parent's
    interquartile range, in how many pairs the change did better, and the
    ``verdict``."""
    metrics = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), {}).setdefault(
                run["tree"], {})[run["pair"]] = metric["value"]
    lines = []
    for (workload, name), by_tree in values.items():
        parent, change = by_tree["parent"], by_tree["change"]
        wins, iqr, word = verdict(parent, change, metrics[name]["better"], metrics[name]["bound"])
        lines.append(f"{workload} {name}: parent {statistics.median(parent.values()):.6g} "
                     f"(IQR {iqr:.3g}), change {statistics.median(change.values()):.6g}, "
                     f"change better in {wins} of {len(parent)} pairs: {word}")
    return lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against, e.g. HEAD~1")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--trace-workload", choices=WORKLOADS)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with (tempfile.TemporaryDirectory(prefix="bench-parent-") as parent,
          tempfile.TemporaryDirectory(prefix="bench-change-") as change):
        sha = extract(args.parent, Path(parent))
        copy_worktree(Path(change))
        trees = {"parent": Path(parent), "change": Path(change)}
        runs = pairs(trees, args.workloads, args.pairs,
                     lambda w: bench_args(w, args.seconds, 0))
        traced = (pairs(trees, [args.trace_workload], 1,
                        lambda w: bench_args(w, args.seconds, 1))
                  if args.trace_workload else [])
    out = {
        "description": (
            f"perfbench output at seed {SEED} for the parent commit and this change, "
            f"{args.pairs} alternating pairs per workload (odd pairs run the parent first)"
            + (f", plus one traced pair for {args.trace_workload}" if traced else "")
            + "; info is perfbench's environment-and-samples line, result its final line"),
        "command": "python3 " + " ".join(bench_args("<name>", args.seconds, 0)),
        **({"trace_command": "python3 " + " ".join(
            bench_args(args.trace_workload, args.seconds, 1))} if traced else {}),
        "parent": sha,
        "machine": machine(runs[0]["info"]),
        "runs": runs,
        **({"trace_runs": traced} if traced else {}),
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print("\n".join(summary(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
