"""fedsim benchmark: end-to-end run time, set-up time and memory per workload,
or per-layer self time from a separate traced run.

Usage, from the root of a fedsim checkout:

    python3 perfbench/run.py --workload cohort_mlp --seed 3 --seconds 30 --trace 0

The seed generates the workload's config; the program only receives that
config file. Every run's metrics CSV is checked (see ``check_csv``). The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and the raw samples. See README.md in this directory for the
metrics, workloads and what each layer should move.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYER_UNITS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Copy of configs/wireless_fedqvr_e.json as shipped when the benchmark was
# defined, so that later edits to the shipped config do not move the workload.
WIRELESS_ALLOC = {
    "algorithm": "fedqvr_e",
    "dataset": {"kind": "synthetic", "num_classes": 5, "dim": 20,
                "samples_per_class": 200, "test_samples_per_class": 100,
                "separation": 3.0},
    "num_clients": 20, "sample_size": 5, "rounds": 150, "batch_size": 50,
    "eta": 0.01, "gamma": 0.3, "a": 0.3, "labels_per_client": 1,
    "eval_every": 10,
    "wireless_cfg": {"enabled": True, "tau": 4e-6, "alpha": 0.5,
                     "b_lower": 1, "b_upper": 24},
}

COHORT_MLP = {
    "algorithm": "fedqvr",
    "model_kind": "one-hidden-layer-mlp", "hidden_dim": 64,
    "dataset": {"kind": "synthetic", "num_classes": 10, "dim": 50,
                "samples_per_class": 1000, "test_samples_per_class": 200,
                "separation": 3.0},
    "num_clients": 200, "sample_size": 50, "rounds": 80, "batch_size": 50,
    "local_epochs": 2, "bits": 2, "labels_per_client": 2,
}

SCAFFOLD_HLU = {
    "algorithm": "scaffold",
    "dataset": {"kind": "synthetic", "num_classes": 10, "dim": 30,
                "samples_per_class": 500, "test_samples_per_class": 100,
                "separation": 3.0},
    "num_clients": 100, "sample_size": 10, "rounds": 600,
    "hlu": True, "hlu_range": [1, 10], "labels_per_client": 2,
    "wireless_cfg": {"enabled": True, "tau": 3e-4},
}

WORKLOADS = {
    "wireless_alloc": WIRELESS_ALLOC,
    "cohort_mlp": COHORT_MLP,
    "scaffold_hlu": SCAFFOLD_HLU,
}

END_TO_END_UNITS = {
    "run_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

MIN_RUNS = 3        # timed runs per invocation, even if they overrun --seconds
SETUP_REPEATS = 7   # fresh processes whose median is setup_s


def workload_config(name: str, seed: int, rounds: int | None = None) -> dict:
    cfg = copy.deepcopy(WORKLOADS[name])
    cfg["seed"] = seed
    if rounds is not None:
        cfg["rounds"] = rounds
    return cfg


def load_reference() -> dict:
    with open(HERE / "reference.json") as f:
        return json.load(f)


class Outcome:
    """Counts attempted and failed operations; each failure goes to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"FAILED {label}: {problem}", file=sys.stderr)

    def attempt(self, label: str, fn, check):
        """Run ``fn``; record a failure if it or ``check(result)`` raises, or
        if the check returns a problem. Returns the result, or None if
        either raised."""
        try:
            result = fn()
            problem = check(result)
        except Exception as e:  # any exception is a failed operation
            self.record(label, f"raised {e!r}")
            return None
        self.record(label, problem)
        return result


def final_row(csv_text: str) -> dict[str, str]:
    lines = csv_text.strip().splitlines()
    return dict(zip(lines[0].split(","), lines[-1].split(",")))


def check_csv(csv_text: str, reference: str | None, band: dict) -> str | None:
    """The problem with a run's metrics CSV, or None if it is correct.

    A CSV must equal the reference CSV byte for byte (rerun determinism, and
    traced equal to untraced), and its final test accuracy and cumulative
    uplink bits must lie inside the workload's reference band.
    """
    if reference is not None and csv_text != reference:
        return "metrics CSV differs from the reference run"
    row = final_row(csv_text)
    for key in ("test_accuracy", "cumulative_uplink_bits"):
        lo, hi = band[key]
        value = float(row[key])
        if not lo <= value <= hi:
            return f"final {key} {value} outside [{lo}, {hi}]"
    return None


def blas_threads() -> int:
    """Thread count of the OpenBLAS that numpy ships with; 0 if not found."""
    import numpy
    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return 0


def environment() -> dict:
    import numpy
    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Bench:
    """Runs one workload at one seed inside a scratch directory."""

    def __init__(self, workload: str, seed: int, work: Path, src: Path) -> None:
        from fedsim import harness
        self.harness = harness
        self.work = work
        self.src = src
        self.band = load_reference()[workload]["band"]
        self.outcome = Outcome()
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(workload_config(workload, seed)))
        self.setup_path = work / "setup.json"
        self.setup_path.write_text(json.dumps(workload_config(workload, seed, rounds=0)))
        self.reference: str | None = None
        self.steps = 0
        self.samples: dict[str, list[float]] = {}

    def _run(self, rounds_out: Path | None = None) -> tuple[float, float, str]:
        """One in-process run: (wall seconds, process CPU seconds, CSV)."""
        cfg = self.harness.parse_config(str(self.config_path))
        cfg.out = str(self.work / "metrics.csv")
        cfg.trace_rounds_out = str(rounds_out) if rounds_out else None
        gc.collect()
        cpu, start = time.process_time(), time.perf_counter()
        self.harness.run_experiment(cfg)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        return wall, cpu, Path(cfg.out).read_text()

    def run(self, label: str) -> tuple[float, float, str] | None:
        return self.outcome.attempt(
            label, self._run, lambda r: check_csv(r[2], self.reference, self.band))

    def warm_up(self) -> bool:
        """First run: fills caches and gives the reference CSV and step count.

        The step count is the sum over rounds of the local epochs of the
        active clients, read from the round trace the program writes.
        """
        rounds_out = self.work / "rounds.jsonl"
        result = self.outcome.attempt(
            "warm-up run", lambda: self._run(rounds_out),
            lambda r: check_csv(r[2], None, self.band))
        if result is None:
            return False
        self.reference = result[2]
        with open(rounds_out) as f:
            self.steps = sum(sum(json.loads(line)["epochs"].values()) for line in f)
        return True

    def _child(self, config: Path, csv: Path) -> tuple[float, int, str]:
        """``fedsim run`` in a fresh process: (wall seconds, peak RSS KiB, CSV)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.src), env.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "fedsim.cli", "run", "--config", str(config), "--out", str(csv)]
        with open(self.work / "child.log", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, cwd=self.work, stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {(self.work / 'child.log').read_text()[-300:]}")
        return wall, usage.ru_maxrss, csv.read_text()

    def setup(self) -> float | None:
        """setup_s: ``fedsim run`` with rounds=0 in a fresh process. Its CSV
        must equal the header and round-0 row of the reference CSV."""
        head = "".join(self.reference.splitlines(keepends=True)[:2])
        result = self.outcome.attempt(
            "set-up process", lambda: self._child(self.setup_path, self.work / "setup.csv"),
            lambda r: None if r[2] == head else "round-0 CSV differs from the reference run")
        return None if result is None else result[0]

    def peak_rss_mb(self) -> float | None:
        result = self.outcome.attempt(
            "fresh-process run", lambda: self._child(self.config_path, self.work / "child.csv"),
            lambda r: check_csv(r[2], self.reference, self.band))
        return None if result is None else result[1] / 1024.0

    def timed(self, seconds: float, step) -> None:
        """Call ``step`` until ``seconds`` have passed, at least MIN_RUNS times."""
        deadline = time.perf_counter() + seconds
        calls = 0
        while calls < MIN_RUNS or time.perf_counter() < deadline:
            step()
            calls += 1

    def end_to_end(self, seconds: float) -> dict[str, float]:
        runs: list[float] = []

        def step():
            result = self.run("timed run")
            if result is not None:
                runs.append(result[0])

        setups: list[float] = []
        rss = None
        if self.warm_up():
            self.timed(seconds, step)
            setups = [t for t in (self.setup() for _ in range(SETUP_REPEATS)) if t is not None]
            rss = self.peak_rss_mb()
        self.samples = {"run_s": runs, "setup_s": setups}
        run_s = statistics.median(runs) if runs else 0.0
        return {
            "run_s": run_s,
            "steps_per_s": self.steps / run_s if run_s else 0.0,
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": rss or 0.0,
        }

    def per_layer(self, seconds: float) -> dict[str, float]:
        """Alternate untraced and traced runs; trace.overhead_ratio is the
        median traced run time over the median untraced one."""
        tracer = Tracer()
        plain: list[tuple[float, float]] = []
        traced: list[float] = []

        def step():
            result = self.run("untraced run")
            if result is not None:
                plain.append(result[:2])
            with tracer.installed():
                tracer.begin_run()
                result = self.run("traced run")
            if result is not None:
                traced.append(result[0])

        if self.warm_up():
            self.timed(seconds, step)
        out = layer_metrics(tracer.spans, tracer.counters, tracer.run + 1)
        walls = [w for w, _ in plain]
        self.samples = {"run_s": walls, "traced_run_s": traced}
        out["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(walls)
                                       if traced and walls else 0.0)
        out["trace.runs"] = len(traced)
        out["env.nproc"] = os.cpu_count() or 0
        out["env.blas_threads"] = blas_threads()
        out["env.cpu_over_wall"] = sum(c for _, c in plain) / sum(walls) if walls else 0.0
        return out


PER_LAYER_UNITS = {
    **LAYER_UNITS,
    "trace.overhead_ratio": "ratio",
    "trace.runs": "count",
    "env.nproc": "count",
    "env.blas_threads": "count",
    "env.cpu_over_wall": "ratio",
}


def result_line(outcome: Outcome, metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "fedsim" / "__init__.py").is_file():
        print(f"error: no fedsim sources at {src}; run from a fedsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(args.workload, args.seed, work, src)
        if args.trace:
            metrics, units = bench.per_layer(args.seconds), PER_LAYER_UNITS
        else:
            metrics, units = bench.end_to_end(args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "steps": bench.steps, "samples": bench.samples,
                      "environment": environment()}))
    print(json.dumps(result_line(bench.outcome, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
