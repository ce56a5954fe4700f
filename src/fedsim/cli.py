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

from . import alloc, harness, verify

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_IO = 3


def _cmd_run(args) -> int:
    try:
        cfg = harness.parse_config(args.config)
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return EXIT_IO
    except (harness.ConfigError, json.JSONDecodeError, TypeError) as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    try:
        rows = harness.run_experiment(cfg)
    except harness.ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as e:
        print(f"error: divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as e:
        print(f"error: I/O: {e}", file=sys.stderr)
        return EXIT_IO
    final = rows[-1]
    print(f"rounds={final.round} accuracy={final.test_accuracy:.4f} "
          f"loss={final.train_loss:.4f} uplink_bits={final.cumulative_uplink_bits}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        cfg_text = open(args.config).read()
        grid = json.loads(args.grid)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as e:
        print(f"error: bad grid JSON: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    if not isinstance(grid, dict) or not grid:
        print("error: grid must be a non-empty JSON object of field -> values",
              file=sys.stderr)
        return EXIT_VALIDATION
    os.makedirs(args.out_dir, exist_ok=True)
    keys = sorted(grid)
    status = EXIT_OK
    finals: dict[str, list[harness.MetricsRow]] = {}  # final rows by the non-seed values
    for combo in itertools.product(*(grid[k] for k in keys)):
        raw = json.loads(cfg_text)
        for k, v in zip(keys, combo):
            raw[k] = v
        tag = "_".join(f"{k}-{v}" for k, v in zip(keys, combo))
        rest = "_".join(f"{k}-{v}" for k, v in zip(keys, combo) if k != "seed")
        raw["out"] = os.path.join(args.out_dir, f"metrics_{tag}.csv")
        try:
            cfg = harness.ExperimentConfig.from_json(json.dumps(raw))
            rows = harness.run_experiment(cfg)
        except harness.ConfigError as e:
            print(f"[{tag}] invalid: {e}", file=sys.stderr)
            status = EXIT_VALIDATION
            continue
        except FloatingPointError as e:
            print(f"[{tag}] divergence: {e}", file=sys.stderr)
            status = EXIT_DIVERGENCE
            continue
        print(f"[{tag}] accuracy={rows[-1].test_accuracy:.4f} "
              f"uplink_bits={rows[-1].cumulative_uplink_bits}")
        finals.setdefault(rest, []).append(rows[-1])
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
        text = open(args.problem).read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    try:
        problem = alloc.AllocProblem.from_json(text)
    except (ValueError, KeyError, TypeError) as e:
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
