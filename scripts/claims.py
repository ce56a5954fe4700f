#!/usr/bin/env python3
"""Per-seed margins of the claim criteria 9, 10 and 11, written as one JSON file.

This file is the one definition of the claim experiments: each is a shipped
config (``configs/synthetic_fedqvr.json`` for criteria 9 and 10,
``configs/wireless_fedqvr_e.json`` for criterion 11) with only its
algorithm, seed, rounds, ``eval_every`` and bits set, and
``tests/test_acceptance.py`` checks its criteria on the records of the
functions below. For each seed it records how far each claim holds:

- criterion 9: the rounds fedqvr and fedavg take to reach 90% of the
  centralized accuracy (``null`` if never), and fedqvr's uplink bits there
  as a fraction of 32-bit uploads of the same rounds (the claim is < 0.25);
- criterion 10: fedqvr's final test accuracy and training loss at B = 4 and
  at B = 1 (the claim is acc(B=4) >= acc(B=1) - 0.01);
- criterion 11: the final training loss of the equal split and of the
  allocation at the config's delay budget (the claim is that the allocation
  is lower), and the equal split's lost and sent uploads.

A margin is positive where the claim holds at that seed. The file lets a
change that moves the random streams show each criterion's margin before
and after it:

    PYTHONPATH=src python3 scripts/claims.py --out CLAIMS.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from fedsim import fed, harness, learner
from fedsim.learner import ModelSpec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SYNTHETIC = CONFIGS / "synthetic_fedqvr.json"  # criteria 9 and 10
WIRELESS = CONFIGS / "wireless_fedqvr_e.json"  # criteria 11 and 12


def criterion_9(seed: int, rounds: int) -> dict:
    cfg = dataclasses.replace(harness.parse_config(SYNTHETIC), seed=seed, rounds=rounds,
                              eval_every=1)
    # the run's dataset and initial model
    train, test, _ = harness._build_task(cfg)
    spec = ModelSpec(cfg.model_kind, train.features.shape[1], train.num_classes, cfg.hidden_dim)
    theta = learner.init_params(spec, fed.generators(fed.stream_keys(seed, fed.INIT))[0])
    for _ in range(400):
        theta -= 0.5 * learner.grad(spec, theta, train.features, train.labels)
    target = 0.9 * harness.evaluate(spec, theta, test.features, test.labels)

    def milestone(algorithm: str):  # runs no round past the first row at the target
        rows = (rec.row for rec in harness.rounds(dataclasses.replace(cfg, algorithm=algorithm))
                if rec.row)
        return next(((row.round, row.cumulative_uplink_bits) for row in rows
                     if row.test_accuracy >= target), None)

    qvr, avg = milestone("fedqvr"), milestone("fedavg")
    out = {"target": target, "fedqvr_rounds": qvr and qvr[0], "fedavg_rounds": avg and avg[0]}
    if qvr:
        raw_bits_per_round = fed.FEDAVG.payload_bits(spec, None) * cfg.sample_size
        ratio = qvr[1] / (raw_bits_per_round * qvr[0])
        out.update(bit_ratio=ratio, bit_margin=0.25 - ratio,
                   round_margin=(avg[0] if avg else rounds + 1) - qvr[0])
    return out


def criterion_10(seed: int, rounds: int) -> dict:
    cfg = harness.parse_config(SYNTHETIC)
    out = {}
    for B in (1, 4):
        last = harness.run_experiment(dataclasses.replace(
            cfg, algorithm="fedqvr", seed=seed, rounds=rounds, eval_every=50, bits=B))[-1]
        out[f"accuracy_b{B}"], out[f"train_loss_b{B}"] = last.test_accuracy, last.train_loss
    out["margin"] = out["accuracy_b4"] - (out["accuracy_b1"] - 0.01)
    return out


def criterion_11(seed: int, rounds: int) -> dict:
    cfg = dataclasses.replace(harness.parse_config(WIRELESS), seed=seed, rounds=rounds,
                              eval_every=50)
    sent = lost = 0
    for rec in harness.rounds(dataclasses.replace(cfg, algorithm="fedqvr")):
        if rec.plan:
            sent, lost = sent + len(rec.plan.active_set), lost + len(rec.plan.failed)
        equal = rec.row or equal
    allocated = harness.run_experiment(cfg)[-1]  # the shipped algorithm, fedqvr_e
    return {"train_loss_equal": equal.train_loss, "train_loss_allocated": allocated.train_loss,
            "accuracy_equal": equal.test_accuracy, "accuracy_allocated": allocated.test_accuracy,
            "margin": equal.train_loss - allocated.train_loss, "lost": lost, "sent": sent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="seeds 0 .. SEEDS-1")
    parser.add_argument("--rounds", type=int, default=150)
    parser.add_argument("--out", required=True, help="JSON file to write")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    per_seed = []
    for seed in range(args.seeds):
        row = {"seed": seed, "9": criterion_9(seed, args.rounds),
               "10": criterion_10(seed, args.rounds), "11": criterion_11(seed, args.rounds)}
        per_seed.append(row)
        print(f"seed {seed}: 9 rounds {row['9']['fedqvr_rounds']} vs "
              f"{row['9']['fedavg_rounds']}, 10 margin {row['10']['margin']:+.3f}, "
              f"11 margin {row['11']['margin']:+.4f}", flush=True)
    wins = sum(row["11"]["margin"] > 0 for row in per_seed)
    lost = sum(row["11"]["lost"] for row in per_seed)
    sent = sum(row["11"]["sent"] for row in per_seed)
    summary = {
        "9_holds": sum(row["9"].get("round_margin", 0) > 0 and row["9"].get("bit_margin", 0) > 0
                       for row in per_seed),
        "10_holds": sum(row["10"]["margin"] >= 0 for row in per_seed),
        "11_wins": wins, "11_drop_fraction": lost / sent if sent else None,
    }
    Path(args.out).write_text(json.dumps({
        "description": __doc__.splitlines()[0],
        "command": " ".join(["python3", "scripts/claims.py", *argv]),
        "seeds": args.seeds, "rounds": args.rounds,
        "summary": summary, "per_seed": per_seed}, indent=1) + "\n")
    print(f"of {args.seeds} seeds: 9 holds at {summary['9_holds']}, 10 at "
          f"{summary['10_holds']}, 11 won at {wins} (drop fraction "
          f"{summary['11_drop_fraction']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
