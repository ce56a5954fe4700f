"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 runtime divergence, 3 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
from pathlib import Path

from . import alloc, harness, verify

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_IO = 3


def _run_config(text: str, **overrides) -> tuple[int, str | harness.MetricsRow]:
    """Parse the config in ``text``, set the ``overrides`` that are not None
    on it and run it.

    Returns (EXIT_OK, the final metrics row), or for each documented failure
    its exit code and a one-line reason.
    """
    try:
        cfg = harness.ExperimentConfig.from_json(text)
    except (ValueError, TypeError) as e:  # ConfigError and JSONDecodeError among them
        return EXIT_VALIDATION, f"invalid config: {e}"
    for name, value in overrides.items():
        if value is not None:
            setattr(cfg, name, value)
    try:
        return EXIT_OK, harness.run_experiment(cfg)[-1]
    except harness.ConfigError as e:
        return EXIT_VALIDATION, f"invalid config: {e}"
    except FloatingPointError as e:  # before ArithmeticError, its base class
        return EXIT_DIVERGENCE, f"divergence: {e}"
    except alloc.AllocationError as e:  # raised by the allocator only
        return EXIT_VALIDATION, f"allocation failed: {e}"
    except ArithmeticError as e:  # an overflow outside the allocator
        return EXIT_VALIDATION, f"arithmetic error: {e!r}"
    except MemoryError as e:
        return EXIT_VALIDATION, f"out of memory: {e}" if str(e) else "out of memory"
    except OSError as e:
        return EXIT_IO, f"I/O: {e}"


def _cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return EXIT_IO
    status, result = _run_config(text, seed=args.seed, out=args.out)
    if status != EXIT_OK:
        print(f"error: {result}", file=sys.stderr)
        return status
    print(f"rounds={result.round} accuracy={result.test_accuracy:.4f} "
          f"loss={result.train_loss:.4f} uplink_bits={result.cumulative_uplink_bits}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        base = json.loads(Path(args.config).read_text())
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:  # JSONDecodeError, or an integer too long to parse
        print(f"error: invalid config: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    if not isinstance(base, dict):
        print("error: invalid config: config must be a JSON object", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        grid = json.loads(args.grid)
    except ValueError as e:
        print(f"error: bad grid JSON: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    if (not isinstance(grid, dict) or not grid
            or not all(isinstance(v, list) and v for v in grid.values())):
        print("error: grid must be a non-empty JSON object of field -> non-empty list "
              "of values", file=sys.stderr)
        return EXIT_VALIDATION
    if "out" in grid:
        print("error: grid must not set out: the sweep writes each combination's "
              "metrics CSV in --out-dir", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create out-dir: {e}", file=sys.stderr)
        return EXIT_IO
    keys = sorted(grid)
    status = EXIT_OK
    finals: dict[str, list[harness.MetricsRow]] = {}  # final rows by the non-seed values
    for combo in itertools.product(*(grid[k] for k in keys)):
        tag = "_".join(f"{k}-{v}" for k, v in zip(keys, combo))
        rest = "_".join(f"{k}-{v}" for k, v in zip(keys, combo) if k != "seed")
        # '%', '/' and NUL percent-escaped: each CSV lands in --out-dir, under its
        # own name, and a NUL in a grid value is reported only for its own field
        name = tag.replace("%", "%25").replace("/", "%2F").replace("\x00", "%00")
        raw = {**base, **dict(zip(keys, combo)),
               "out": os.path.join(args.out_dir, f"metrics_{name}.csv")}
        code, result = _run_config(json.dumps(raw))
        if code != EXIT_OK:
            print(f"[{tag}] {result}", file=sys.stderr)
            status = code
            continue
        print(f"[{tag}] accuracy={result.test_accuracy:.4f} "
              f"uplink_bits={result.cumulative_uplink_bits}")
        finals.setdefault(rest, []).append(result)
    if "seed" in grid:
        for rest, rows in finals.items():
            acc = statistics.median(r.test_accuracy for r in rows)
            bits = statistics.median(r.cumulative_uplink_bits for r in rows)
            print(f"[{rest or 'all'}] median over {len(rows)} seeds: "
                  f"accuracy={acc:.4f} uplink_bits={bits:.0f}")
    return status


def _cmd_verify(args) -> int:
    return EXIT_OK if verify.run_all() else EXIT_VALIDATION


def _cmd_alloc(args) -> int:
    try:
        text = Path(args.problem).read_text()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    try:
        problem = alloc.AllocProblem.from_json(text)
    except (ValueError, TypeError) as e:
        print(f"error: invalid problem: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        sol = alloc.solve_alloc(problem)
    except alloc.AllocationError as e:
        print(f"error: allocation failed: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    print(sol.to_json())
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Federated learning simulator with quantized uplinks and "
                    "wireless-aware bandwidth/bit allocation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", help="metrics CSV path (overrides config)")
    p_run.add_argument("--seed", type=int, help="seed override")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid sweep over config fields")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--grid", required=True,
                         help='JSON object, e.g. \'{"eta": [0.01, 0.1]}\'')
    p_sweep.add_argument("--out-dir", required=True)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the built-in invariant checks")
    p_verify.set_defaults(fn=_cmd_verify)

    p_alloc = sub.add_parser("alloc", help="one-shot allocation solve from JSON")
    p_alloc.add_argument("--problem", required=True)
    p_alloc.set_defaults(fn=_cmd_alloc)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
