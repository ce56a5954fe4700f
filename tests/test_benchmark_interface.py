"""What the benchmark in ``perfbench/`` needs from the package.

``perfbench/run.py`` reads each workload with ``harness.parse_config`` and
times ``harness.run_experiment``. ``perfbench/tracing.py`` wraps the module
attributes its ``TARGETS`` names and skips an attribute that is missing, so
a deleted or renamed target would read as 0 calls instead of failing. These
tests load the tracer by path, as the benchmark does, and check each name,
and that its observers can read what each algorithm's round returns.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from fedsim import harness

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Targets the benchmark still names that the package removed on purpose. Their
# per-layer metrics read 0 until the benchmark drops them:
# - fedqvr folds each upload into the server state as it is made, so there is
#   no separate aggregation call;
# - the round engine is the only local update, so the single-client
#   ``local_update`` and ``stochastic_grad`` live in ``tests/oracles.py``.
REMOVED = {("fed", "server_aggregate"), ("fed", "local_update"),
           ("learner", "stochastic_grad")}


@pytest.mark.parametrize("module_name,attr",
                         [(module_name, attr) for module_name, attr, _, _ in load_tracing().TARGETS
                          if (module_name, attr) not in REMOVED])
def test_every_tracer_target_resolves(module_name, attr):
    module = importlib.import_module(f"fedsim.{module_name}")
    assert callable(getattr(module, attr, None)), f"fedsim.{module_name}.{attr} is gone"


def test_removed_targets_are_gone():
    for module_name, attr in REMOVED:
        assert not hasattr(importlib.import_module(f"fedsim.{module_name}"), attr)


def test_runner_entry_points_exist():
    assert callable(harness.parse_config)
    assert callable(harness.run_experiment)


@pytest.mark.parametrize("algorithm", sorted(harness.ALGORITHMS))
def test_tracer_observes_every_algorithm(algorithm):
    """A 2-round run under the tracer: one ``fed.round`` span per round, and
    the round and allocation observers counted what they read (the round
    observer reads ``RoundReport.active_ids`` and ``delivered_ids``)."""
    tracing = load_tracing()
    shipped = "wireless_fedqvr_e" if algorithm == "fedqvr_e" else "synthetic_fedqvr"
    raw = json.loads((CONFIGS / f"{shipped}.json").read_text())
    raw.update(algorithm=algorithm, rounds=2)
    cfg = harness.ExperimentConfig.from_json(json.dumps(raw))
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.begin_run()
        harness.run_experiment(cfg)
    assert sum(span.name == "fed.round" for span in tracer.spans) == cfg.rounds
    assert tracer.counters["fed.computed"] > 0
    assert tracer.counters["fed.delivered"] > 0
    assert (tracer.counters["alloc.offered"] > 0) == (algorithm == "fedqvr_e")
