import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import learner
from fedsim.learner import LOGISTIC, MLP, ModelSpec
from oracles import stochastic_grad


LOG_SPEC = ModelSpec(kind=LOGISTIC, input_dim=6, num_classes=4)
MLP_SPEC = ModelSpec(kind=MLP, input_dim=6, num_classes=4, hidden_dim=5)


def make_data(n=30, d=6, c=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.integers(0, c, size=n)


class TestModelSpec:
    def test_dims(self):
        assert LOG_SPEC.dim == 4 * 6 + 4
        assert MLP_SPEC.dim == 5 * 6 + 5 + 4 * 5 + 4

    def test_widths_map_kind_to_layers(self):
        assert LOG_SPEC.widths == (6, 4)
        assert MLP_SPEC.widths == (6, 5, 4)
        # the harness passes its hidden_dim for every kind; logistic ignores it
        assert ModelSpec(kind=LOGISTIC, input_dim=6, num_classes=4, hidden_dim=16).widths == (6, 4)

    def test_layer_groups_tile_dim(self):
        for spec in (LOG_SPEC, MLP_SPEC):
            groups = spec.layer_groups()
            assert groups[0][0] == 0
            assert groups[-1][1] == spec.dim
            for (_, a), (b, _) in zip(groups, groups[1:]):
                assert a == b
        assert len(LOG_SPEC.layer_groups()) == 2
        assert len(MLP_SPEC.layer_groups()) == 4

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="linear", input_dim=3, num_classes=2)
        with pytest.raises(ValueError):
            ModelSpec(kind=MLP, input_dim=3, num_classes=2, hidden_dim=0)
        with pytest.raises(ValueError):
            ModelSpec(kind=LOGISTIC, input_dim=0, num_classes=2)

    def test_unpack_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            LOG_SPEC.unpack(np.zeros(LOG_SPEC.dim + 1))


class TestInitParams:
    def test_deterministic_in_seed(self):
        a = learner.init_params(MLP_SPEC, np.random.default_rng(7))
        b = learner.init_params(MLP_SPEC, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, learner.init_params(MLP_SPEC, np.random.default_rng(8)))

    def test_biases_start_at_zero(self):
        theta = learner.init_params(MLP_SPEC, np.random.default_rng(0))
        W1, b1, W2, b2 = MLP_SPEC.unpack(theta)
        assert np.all(b1 == 0) and np.all(b2 == 0)
        assert np.any(W1 != 0) and np.any(W2 != 0)

    def test_weight_scale_tracks_fan_in(self):
        wide = ModelSpec(kind=LOGISTIC, input_dim=10_000, num_classes=3)
        theta = learner.init_params(wide, np.random.default_rng(0))
        W, _ = wide.unpack(theta)
        assert abs(W.std() - 1 / np.sqrt(10_000)) < 0.01 / np.sqrt(10_000) * 5


class TestLossAndGrad:
    def test_zero_params_give_log_num_classes(self):
        X, y = make_data()
        for spec in (LOG_SPEC, MLP_SPEC):
            assert learner.loss(spec, np.zeros(spec.dim), X, y) == pytest.approx(
                np.log(spec.num_classes))

    def test_loss_is_mean_over_samples(self):
        X, y = make_data()
        theta = learner.init_params(LOG_SPEC, np.random.default_rng(1))
        per_sample = [learner.loss(LOG_SPEC, theta, X[i:i + 1], y[i:i + 1])
                      for i in range(X.shape[0])]
        assert learner.loss(LOG_SPEC, theta, X, y) == pytest.approx(
            np.mean(per_sample), abs=1e-12)

    @pytest.mark.parametrize("spec", [LOG_SPEC, MLP_SPEC], ids=["logistic", "mlp"])
    def test_grad_matches_finite_differences(self, spec):
        X, y = make_data(seed=2)
        rng = np.random.default_rng(3)
        theta = learner.init_params(spec, np.random.default_rng(3)) + 0.1 * rng.normal(size=spec.dim)
        g = learner.grad(spec, theta, X, y)
        eps = 1e-6
        for j in rng.choice(spec.dim, size=15, replace=False):
            e = np.zeros(spec.dim)
            e[j] = eps
            fd = (learner.loss(spec, theta + e, X, y)
                  - learner.loss(spec, theta - e, X, y)) / (2 * eps)
            assert abs(g[j] - fd) < 1e-6

    def test_gradient_descent_reduces_loss(self):
        X, y = make_data(seed=4)
        theta = learner.init_params(MLP_SPEC, np.random.default_rng(4))
        before = learner.loss(MLP_SPEC, theta, X, y)
        for _ in range(50):
            theta -= 0.5 * learner.grad(MLP_SPEC, theta, X, y)
        assert learner.loss(MLP_SPEC, theta, X, y) < before

    def test_grad_at_minimum_is_small_for_separable_logistic(self):
        # perfectly balanced one-hot-ish task: the zero vector is a stationary
        # point when every class is equally represented at the same features
        X = np.eye(4)
        y = np.arange(4)
        g = learner.grad(ModelSpec(kind=LOGISTIC, input_dim=4, num_classes=4),
                         np.zeros(4 * 4 + 4), X, y)
        # bias gradient must vanish by symmetry
        assert np.allclose(g[16:], 0.0, atol=1e-12)

    @pytest.mark.parametrize("spec", [LOG_SPEC, MLP_SPEC], ids=["logistic", "mlp"])
    def test_stacked_grad_rows_equal_single_grads_bitwise(self, spec):
        rng = np.random.default_rng(10)
        for m, n in [(1, 7), (4, 1), (5, 12)]:
            thetas = 0.3 * rng.normal(size=(m, spec.dim))
            X = rng.normal(size=(m, n, spec.input_dim))
            y = rng.integers(0, spec.num_classes, size=(m, n))
            G = learner.grad(spec, thetas, X, y)
            assert G.shape == (m, spec.dim)
            for j in range(m):
                np.testing.assert_array_equal(G[j], learner.grad(spec, thetas[j], X[j], y[j]))

    def test_predict_is_the_most_likely_class(self):
        X, y = make_data(seed=11)
        theta = learner.init_params(MLP_SPEC, np.random.default_rng(11))
        pred = learner.predict(MLP_SPEC, theta, X)
        assert pred.shape == y.shape
        assert 0 <= pred.min() and pred.max() < MLP_SPEC.num_classes
        # the predicted class has the lowest loss of all classes on its row
        for i in range(5):
            losses = [learner.loss(MLP_SPEC, theta, X[i:i + 1], np.array([c]))
                      for c in range(MLP_SPEC.num_classes)]
            assert pred[i] == int(np.argmin(losses))

    def test_empty_slice_rejected(self):
        X, y = make_data()
        with pytest.raises(ValueError):
            learner.loss(LOG_SPEC, np.zeros(LOG_SPEC.dim), X[:0], y[:0])
        with pytest.raises(ValueError):
            learner.grad(LOG_SPEC, np.zeros(LOG_SPEC.dim), X[:0], y[:0])


class TestBlockedEvaluation:
    """``loss`` and ``predict`` hold at most ``BLOCK_ROWS`` rows at a time."""

    @pytest.mark.parametrize("n", [1, 511, 1024, 1025, 2048, 2049, 10_000])
    def test_row_blocks_cover_the_rows_in_equal_blocks(self, n):
        blocks = learner._row_blocks(n)
        assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
        sizes = [rows.stop - rows.start for rows in blocks]
        assert max(sizes) <= learner.BLOCK_ROWS and max(sizes) - min(sizes) <= 1
        assert len(blocks) == -(-n // learner.BLOCK_ROWS)

    @pytest.mark.parametrize("n", [1025, 3000])
    @pytest.mark.parametrize("spec", [ModelSpec(MLP, 50, 10, 64), ModelSpec(LOGISTIC, 30, 10)],
                             ids=["mlp", "logistic"])
    def test_blocks_give_the_single_stack_bit_for_bit(self, spec, n):
        """The reference is the whole set as one stack. Each block's logits
        are the stack's rows; a block of 1,024 rows and one of a single row
        would not be, as the one-row product runs through another BLAS
        kernel."""
        rng = np.random.default_rng(21)
        theta = learner.init_params(spec, rng)
        X = rng.normal(size=(n, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=n)
        blocks = spec.unpack(theta)
        logits, _ = learner._forward(blocks, X)
        for rows in learner._row_blocks(n):
            np.testing.assert_array_equal(learner._forward(blocks, X[rows])[0], logits[rows])
        pred = logits.argmax(axis=1)
        logp = learner._log_softmax(logits)
        assert learner.loss(spec, theta, X, y) == float(-logp[np.arange(y.size), y].mean())
        np.testing.assert_array_equal(learner.predict(spec, theta, X), pred)

    def test_evaluation_memory_is_bounded_by_the_block(self):
        """20,000 rows through a 64-wide hidden layer: one stack would hold a
        10 MB hidden layer; a block holds 0.5 MB."""
        spec = ModelSpec(MLP, 20, 10, 64)
        rng = np.random.default_rng(22)
        theta = learner.init_params(spec, rng)
        X = rng.normal(size=(20_000, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=20_000)
        tracemalloc.start()
        try:
            learner.loss(spec, theta, X, y)
            learner.predict(spec, theta, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestStochasticGrad:
    """The single-client minibatch gradient of ``oracles``, which the round
    engine's stacked gradients equal bit for bit (``test_fed.py``)."""

    def test_full_batch_without_sampling_noise_matches_exact(self):
        # batch of size 1 drawn from a single-sample dataset is deterministic
        X, y = make_data(n=1)
        theta = learner.init_params(LOG_SPEC, np.random.default_rng(5))
        sg = stochastic_grad(LOG_SPEC, theta, X, y, 4, np.random.default_rng(0))
        np.testing.assert_allclose(sg, learner.grad(LOG_SPEC, theta, X, y),
                                   atol=1e-14)

    def test_unbiased_over_many_draws(self):
        X, y = make_data(n=20, seed=6)
        theta = learner.init_params(LOG_SPEC, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        mean = np.mean([stochastic_grad(LOG_SPEC, theta, X, y, 5, rng)
                        for _ in range(4000)], axis=0)
        np.testing.assert_allclose(mean, learner.grad(LOG_SPEC, theta, X, y),
                                   atol=0.02)

    def test_deterministic_given_rng_state(self):
        X, y = make_data(seed=8)
        theta = learner.init_params(LOG_SPEC, np.random.default_rng(8))
        a = stochastic_grad(LOG_SPEC, theta, X, y, 10, np.random.default_rng(123))
        b = stochastic_grad(LOG_SPEC, theta, X, y, 10, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_batch(self):
        X, y = make_data()
        with pytest.raises(ValueError):
            stochastic_grad(LOG_SPEC, np.zeros(LOG_SPEC.dim), X, y, 0, np.random.default_rng(0))


@settings(max_examples=25, deadline=None)
@given(shift=st.floats(-50, 50))
def test_loss_invariant_to_logit_shift(shift):
    # adding a constant to every class bias leaves softmax unchanged
    X, y = make_data(seed=9)
    theta = learner.init_params(LOG_SPEC, np.random.default_rng(9))
    shifted = theta.copy()
    shifted[4 * 6:] += shift
    base = learner.loss(LOG_SPEC, theta, X, y)
    assert learner.loss(LOG_SPEC, shifted, X, y) == pytest.approx(base, abs=1e-9)
