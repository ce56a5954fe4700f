#!/usr/bin/env python3
"""Equal-split vs allocated uplinks under a shared delay budget.

Runs the quantized variance-reduced algorithm twice per seed: once with the
bandwidth split equally (uploads that miss the delay budget are lost) and
once with the joint bandwidth/bit allocation deciding per-device bandwidth
and precision. Both runs see identical channel realizations, since the
seed's stream keys, not the algorithm, give the cohorts and the fading.
"""

import argparse
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from fedsim import harness
from fedsim.harness import ExperimentConfig, WirelessConfig


def make_config(algorithm, seed, args, wireless):
    return ExperimentConfig(
        algorithm=algorithm,
        dataset={"kind": "synthetic", "num_classes": 5, "dim": 20,
                 "samples_per_class": 200, "test_samples_per_class": 100,
                 "separation": 3.0},
        num_clients=args.clients, sample_size=args.sample_size,
        rounds=args.rounds, batch_size=50, eta=0.01, bits=args.bits,
        labels_per_client=1, eval_every=args.eval_every, seed=seed,
        wireless_cfg=wireless)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=150)
    parser.add_argument("--clients", type=int, default=20)
    parser.add_argument("--sample-size", type=int, default=5)
    parser.add_argument("--bits", type=int, default=2)
    parser.add_argument("--tau", type=float, default=4e-6,
                        help="per-upload delay budget in seconds")
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="fairness coefficient for the allocation")
    parser.add_argument("--eval-every", type=int, default=25)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()

    equal_finals, alloc_finals = [], []
    with tempfile.TemporaryDirectory() as td:
        for seed in args.seeds:
            rounds_log = os.path.join(td, f"rounds_{seed}.jsonl")
            cfg = make_config("fedqvr", seed, args, WirelessConfig(
                enabled=True, tau=args.tau))
            cfg.trace_rounds_out = rounds_log
            row = harness.run_experiment(cfg)[-1]
            equal_finals.append(row.test_accuracy)

            transmissions = drops = 0
            for line in Path(rounds_log).read_text().splitlines():
                rec = json.loads(line)
                transmissions += len(rec["active"])
                drops += len(rec["active"]) - len(rec["delivered"])

            cfg_e = make_config("fedqvr_e", seed, args, WirelessConfig(
                enabled=True, tau=args.tau, alpha=args.alpha))
            row_e = harness.run_experiment(cfg_e)[-1]
            alloc_finals.append(row_e.test_accuracy)
            print(f"seed {seed}: equal-split acc {row.test_accuracy:.4f} "
                  f"(drop rate {drops / transmissions:.2f}), "
                  f"allocated acc {row_e.test_accuracy:.4f}")

    print(f"\nmedian final accuracy: equal-split "
          f"{np.median(equal_finals):.4f}, allocated "
          f"{np.median(alloc_finals):.4f}")


if __name__ == "__main__":
    main()
