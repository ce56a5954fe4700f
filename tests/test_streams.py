"""Random streams: the key layout, the vectorized key hash against numpy, and
a seed that takes two 32-bit words, pinned end to end.

Every key is five 32-bit words [seed_lo, seed_hi, label, round, client].
``fed.stream_seeds`` must give, for every key, the generator that
``np.random.default_rng(list(key))`` gives; the Hypothesis test checks the
state and the next draws. Every key of a small run is enumerated and no two
are equal, nor are any two of their seed words.

``tests/test_golden.py`` pins every algorithm at seed 0, a one-word seed.
The fixture here pins the shipped wireless fedqvr_e config at seed
2**40 + 1: its metrics CSV and the SHA-256 of its round trace and its
channel trace. It was recorded when the keys took their five-word layout,
with every stream's seed words from numpy's own SeedSequence one key at a
time (``oracles.numpy_stream_seeds``), not from ``fed.stream_seeds``.

Record (only at a known-good commit; never to make this test pass):
    PYTHONPATH=src python3 tests/test_streams.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedsim import fed, harness
from oracles import numpy_stream_seeds

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "two_word_seed_golden.json"


def two_word_seed_config() -> dict:
    config = json.loads((ROOT / "configs" / "wireless_fedqvr_e.json").read_text())
    config.update(rounds=30, seed=2**40 + 1)
    return config


def run_traced(config: dict, work: Path) -> dict:
    """Metrics CSV text and the SHA-256 of the round and channel traces."""
    cfg = harness.ExperimentConfig.from_json(json.dumps(config))
    cfg.out = str(work / "metrics.csv")
    cfg.trace_rounds_out = str(work / "rounds.jsonl")
    cfg.wireless_cfg.trace_out = str(work / "channel.jsonl")
    harness.run_experiment(cfg)

    def sha(path: str) -> str:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    return {"csv": Path(cfg.out).read_text(),
            "round_trace_sha256": sha(cfg.trace_rounds_out),
            "channel_trace_sha256": sha(cfg.wireless_cfg.trace_out)}


# the ends of a 32-bit word, and anywhere in it
EDGES = [0, 2**32 - 1]
WORD = st.sampled_from(EDGES) | st.integers(0, 2**32 - 1)


def assert_same_stream(ours: np.random.Generator, numpy_own: np.random.Generator) -> None:
    assert ours.bit_generator.state == numpy_own.bit_generator.state
    assert ours.integers(0, 2**63) == numpy_own.integers(0, 2**63)
    assert ours.random() == numpy_own.random()


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(st.lists(WORD, min_size=fed.KEY_WORDS, max_size=fed.KEY_WORDS),
                     min_size=1, max_size=5))
@example(keys=[[e] * fed.KEY_WORDS for e in EDGES])
@example(keys=[[EDGES[i == j] for j in range(fed.KEY_WORDS)] for i in range(fed.KEY_WORDS)])
@example(keys=[[EDGES[i != j] for j in range(fed.KEY_WORDS)] for i in range(fed.KEY_WORDS)])
@example(keys=[[1, 256, fed.CHANNEL, 3, 7], [0, 0, fed.CHANNEL, 2**32 - 1, 0]])
def test_stream_seeds_give_default_rng_streams(keys):
    """Every row of one batch of five-word keys gives the stream that numpy
    builds from that key alone."""
    for key, ours in zip(keys, fed.generators(np.array(keys, dtype=np.uint32))):
        assert_same_stream(ours, np.random.default_rng(key))


def test_stream_keys_lay_out_seed_label_round_client():
    keys = fed.stream_keys(2**40 + 1, fed.CHANNEL, np.array([0, 0, 5]), np.array([3, 9, 1]))
    assert keys.dtype == np.uint32
    assert keys.tolist() == [[1, 256, fed.CHANNEL, 0, 3], [1, 256, fed.CHANNEL, 0, 9],
                             [1, 256, fed.CHANNEL, 5, 1]]
    assert fed.stream_keys(7, fed.PARTITION).tolist() == [[7, 0, fed.PARTITION, 0, 0]]
    assert fed.stream_keys(2**64 - 1, [fed.DATA, fed.INIT], 2**32 - 1).tolist() == [
        [2**32 - 1, 2**32 - 1, fed.DATA, 2**32 - 1, 0],
        [2**32 - 1, 2**32 - 1, fed.INIT, 2**32 - 1, 0]]


@pytest.mark.parametrize("seed,label,rounds,clients", [
    (-1, fed.SAMPLING, 0, 0), (2**64, fed.SAMPLING, 0, 0),
    (0, 0, 0, 0), (0, 2**32, 0, 0), (0, [fed.DATA, 0], 0, 0),
    (0, fed.CLIENT, -1, 0), (0, fed.CLIENT, 2**32, 0), (0, fed.CLIENT, 0, [3, 2**32]),
    (0, fed.CLIENT, np.array([0, 2**32], dtype=np.uint64), 0),
])
def test_stream_keys_refuse_an_entry_outside_its_word(seed, label, rounds, clients):
    """A label is never 0, and no entry is wrapped into a 32-bit word."""
    with pytest.raises(ValueError):
        fed.stream_keys(seed, label, rounds, clients)


@pytest.mark.parametrize("shape", [(2, 4), (2, 6), (5,)])
def test_stream_seeds_refuse_keys_that_are_not_five_words(shape):
    with pytest.raises(ValueError):
        fed.stream_seeds(np.zeros(shape, dtype=np.uint32))


LABELS = {name: getattr(fed, name) for name in (
    "DATA", "PARTITION", "PLACEMENT", "INIT", "SAMPLING", "HLU", "CHANNEL", "CLIENT")}


def test_every_key_of_a_run_is_distinct(monkeypatch):
    """Every key a small fedqvr_e run with HLU and the wireless layer builds,
    and every key any label, round and client could take at its size, is
    distinct, and so are their seed words: no two streams coincide."""
    made = []
    stream_keys = fed.stream_keys
    monkeypatch.setattr(fed, "stream_keys", lambda *a: made.append(stream_keys(*a)) or made[-1])
    config = dict(two_word_seed_config(), rounds=4, hlu=True, hlu_range=[1, 3])
    cfg = harness.ExperimentConfig.from_json(json.dumps(config))
    harness.run_experiment(cfg)
    run = np.concatenate(made)
    n, m = cfg.num_clients, cfg.sample_size
    # one-off streams, sampling and HLU per round, channel and client per sampled client
    assert len(run) == 4 + 2 * cfg.rounds + 2 * cfg.rounds * m
    assert sorted(set(run[:, 2].tolist())) == sorted(LABELS.values())
    grid = np.concatenate([stream_keys(cfg.seed, label, *np.divmod(np.arange(cfg.rounds * n), n))
                           for label in LABELS.values()])
    assert {tuple(k) for k in run.tolist()} <= {tuple(k) for k in grid.tolist()}
    for keys in (run, grid):
        assert len(np.unique(keys, axis=0)) == len(keys)
        assert len(np.unique(fed.stream_seeds(keys), axis=0)) == len(keys)


@pytest.mark.parametrize("seed", [0, 2**40 + 1])
def test_every_algorithm_sees_the_same_channels(tmp_path, seed):
    """No stream key holds the algorithm, so one seed gives every algorithm
    the same cohorts (sampling key) and the same fading (channel key):
    fedqvr_e and its baselines are compared on identical channels."""
    traces = set()
    for algorithm in harness.ALGORITHMS:
        run_traced(dict(two_word_seed_config(), algorithm=algorithm, seed=seed), tmp_path)
        traces.add((tmp_path / "channel.jsonl").read_bytes())
    assert len(traces) == 1
    config = two_word_seed_config()
    assert len(traces.pop().splitlines()) == config["rounds"] * config["sample_size"]


def test_seed_words_serve_only_what_pcg64_asks_for():
    seed_words = fed.generator(fed.stream_seeds(fed.stream_keys(1, 2))[0]).bit_generator.seed_seq
    with pytest.raises(ValueError):
        seed_words.generate_state(8, np.uint32)


def assert_matches_fixture(work: Path) -> None:
    golden = json.loads(FIXTURE.read_text())
    assert golden["config"] == two_word_seed_config()
    assert run_traced(golden["config"], work) == {
        k: golden[k] for k in ("csv", "round_trace_sha256", "channel_trace_sha256")}


def test_two_word_seed_matches_golden(tmp_path):
    assert_matches_fixture(tmp_path)


@pytest.mark.parametrize("keys_per_block", [1, 40])
def test_block_size_does_not_move_any_stream(tmp_path, monkeypatch, keys_per_block):
    """One round per block, and blocks of three rounds (40 keys at 12 keys
    per round), reproduce the fixture recorded with numpy's SeedSequence one
    key at a time."""
    monkeypatch.setattr(harness, "_KEYS_PER_BLOCK", keys_per_block)
    assert_matches_fixture(tmp_path)


if __name__ == "__main__":
    import tempfile

    config = two_word_seed_config()
    fed.stream_seeds = numpy_stream_seeds
    with tempfile.TemporaryDirectory() as tmp:
        out = {"config": config, **run_traced(config, Path(tmp))}
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
