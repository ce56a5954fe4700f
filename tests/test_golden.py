"""Golden metrics CSVs and round traces for every algorithm.

The fixture holds, for each config in ``grid()``, the metrics CSV text and
the SHA-256 of the round trace (JSON lines); each rerun must reproduce both
byte for byte. It was first recorded before the round engine was unified,
with the three per-algorithm round functions, and the unified engine
reproduced it. It was re-recorded once when the stream keys took their
five-word layout, which moves every stream, with every stream's seed words
from numpy's own SeedSequence one key at a time
(``oracles.numpy_stream_seeds``), not from ``fed.stream_seeds``. The delay budgets are tight
enough that every algorithm loses some uploads, and the fedqvr MLP runs with
the wireless layer lose all but two of their 150, so the empty-cohort path
is covered.

Record (only at a known-good commit; never to make this test pass):
    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from fedsim import fed, harness, learner
from oracles import numpy_stream_seeds

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "round_golden.json"

TAU = {"fedavg": 4e-5, "scaffold": 8e-5, "fedqvr": 4e-6, "fedqvr_e": 4e-6}
VARIANTS = {"plain": (False, False), "wireless": (True, False),
            "hlu": (False, True), "wireless_hlu": (True, True)}


def grid() -> dict[str, dict]:
    """Config dicts by name, from the shipped synthetic config at seed 0."""
    base = json.loads((ROOT / "configs" / "synthetic_fedqvr.json").read_text())
    base.update(rounds=30, seed=0, eval_every=5)
    cases = {}
    for model, extra in (("logistic", {"model_kind": learner.LOGISTIC}),
                         ("mlp", {"model_kind": learner.MLP, "hidden_dim": 8})):
        for algorithm in ("fedavg", "scaffold", "fedqvr", "fedqvr_e"):
            for variant, (radio, hlu) in VARIANTS.items():
                if algorithm == "fedqvr_e" and not radio:
                    continue
                cfg = {**base, **extra, "algorithm": algorithm}
                if algorithm == "scaffold":
                    cfg["eta_g"] = 0.9
                if radio:
                    cfg["wireless_cfg"] = {"enabled": True, "tau": TAU[algorithm]}
                if hlu:
                    cfg.update(hlu=True, hlu_range=[1, 6])
                cases[f"{algorithm}-{model}-{variant}"] = cfg
    return cases


def run_case(config: dict, work: Path) -> tuple[str, str]:
    """(metrics CSV text, SHA-256 of the round trace) of one run."""
    cfg = harness.ExperimentConfig.from_json(json.dumps(config))
    cfg.out = str(work / "metrics.csv")
    cfg.trace_rounds_out = str(work / "rounds.jsonl")
    harness.run_experiment(cfg)
    trace = Path(cfg.trace_rounds_out).read_bytes()
    return Path(cfg.out).read_text(), hashlib.sha256(trace).hexdigest()


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_fixture_covers_the_grid():
    assert sorted(GOLDEN) == sorted(grid())
    assert all(GOLDEN[name]["config"] == cfg for name, cfg in grid().items())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_matches_golden(name, tmp_path):
    csv, trace_sha = run_case(GOLDEN[name]["config"], tmp_path)
    assert csv == GOLDEN[name]["csv"]
    assert trace_sha == GOLDEN[name]["trace_sha256"]


if __name__ == "__main__":
    import tempfile

    out = {}
    fed.stream_seeds = numpy_stream_seeds
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in grid().items():
            csv, trace_sha = run_case(config, Path(tmp))
            out[name] = {"config": config, "csv": csv, "trace_sha256": trace_sha}
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {FIXTURE}")
