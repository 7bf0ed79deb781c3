"""Entropy schedule exactness and propensity-network behavior."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcnpd.data import ObservationalDataset, Standardization
from dcnpd.nn import DenseLayer, MLPParams, build_mlp
from dcnpd.propensity import (
    DEFAULT_ARCH,
    DropoutSchedule,
    PropensityModel,
    binary_entropy,
    dropout_probability,
    keep_probability,
    predict_propensity,
    stable_sigmoid,
    train_propensity,
)

# direct evaluation of -0.25*log2(0.25) - 0.75*log2(0.75)
H_QUARTER = 0.8112781244591328
DROPOUT_QUARTER = 0.0943609377704336  # 1 - 1/2 - H_QUARTER/2


def separable_toy(n, seed, margin=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    X[:, 0] += np.sign(X[:, 0]) * margin
    W = (X[:, 0] > 0).astype(int)
    return ObservationalDataset(X, W, np.zeros(n))


def constant_net(logit_bias):
    return MLPParams([DenseLayer(np.zeros((2, 1)), np.array([logit_bias]), "identity")])


def identity_scaling(d):
    return Standardization(np.zeros(d), np.ones(d))


class TestEntropy:
    def test_half_is_exactly_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_exactly_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter_frozen_value(self):
        np.testing.assert_allclose(binary_entropy(0.25), H_QUARTER, rtol=1e-15)

    def test_vectorized(self):
        out = binary_entropy(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])

    def test_domain_checked(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                binary_entropy(bad)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_concavity(self, a, b):
        mid = binary_entropy((a + b) / 2.0)
        assert mid >= (binary_entropy(a) + binary_entropy(b)) / 2.0 - 1e-12


class TestDropoutSchedule:
    def test_balanced_score_disables_dropout(self):
        assert abs(dropout_probability(0.5, DropoutSchedule(1.0))) <= 1e-12

    def test_extreme_scores_hit_half(self):
        sched = DropoutSchedule(1.0)
        assert abs(dropout_probability(0.0, sched) - 0.5) <= 1e-12
        assert abs(dropout_probability(1.0, sched) - 0.5) <= 1e-12

    def test_quarter_frozen_value(self):
        np.testing.assert_allclose(
            dropout_probability(0.25, DropoutSchedule(1.0)), DROPOUT_QUARTER, rtol=1e-14
        )

    def test_keep_is_direct_formula(self):
        sched = DropoutSchedule(0.7)
        p = np.linspace(0.01, 0.99, 23)
        np.testing.assert_array_equal(
            keep_probability(p, sched), 0.7 / 2.0 + binary_entropy(p) / 2.0
        )

    def test_gamma_domain(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError):
                DropoutSchedule(bad)
        with pytest.raises(TypeError):  # gamma's one default is TrainConfig.gamma
            DropoutSchedule()

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_range(self, p, gamma):
        sched = DropoutSchedule(gamma)
        dp = dropout_probability(p, sched)
        assert abs(dp - dropout_probability(1.0 - p, sched)) <= 1e-12
        lo, hi = 0.5 - gamma / 2.0, 1.0 - gamma / 2.0
        assert lo - 1e-12 <= dp <= hi + 1e-12
        assert dp <= dropout_probability(0.0, sched) + 1e-12
        assert dp >= dropout_probability(0.5, sched) - 1e-12


class TestPredict:
    def test_zero_net_scores_half(self):
        model = PropensityModel(constant_net(0.0), identity_scaling(2))
        assert predict_propensity(model, np.array([[3.0, -4.0]])).tolist() == [0.5]

    def test_clamped_at_extremes(self):
        high = PropensityModel(constant_net(1e4), identity_scaling(2))
        low = PropensityModel(constant_net(-1e4), identity_scaling(2))
        x = np.zeros((1, 2))
        assert predict_propensity(high, x).tolist() == [1.0 - 1e-12]
        assert predict_propensity(low, x).tolist() == [1e-12]

    def test_batch_and_single_agree(self):
        model = PropensityModel(constant_net(0.3), identity_scaling(2))
        X = np.random.default_rng(0).normal(size=(4, 2))
        batch = predict_propensity(model, X)
        singles = [predict_propensity(model, X[i : i + 1])[0] for i in range(len(X))]
        np.testing.assert_array_equal(batch, singles)

    def test_deterministic(self):
        ds = separable_toy(80, seed=1)
        model = train_propensity(ds, epochs=50, rng=np.random.default_rng(2))
        X = np.array([[0.7, -0.1], [-1.2, 0.4]])
        np.testing.assert_array_equal(predict_propensity(model, X), predict_propensity(model, X))

    @pytest.mark.parametrize(
        "x, message",
        [(np.zeros((1, 3)), "feature width"), (np.zeros(2), "2-D"), (np.zeros((2, 3, 2)), "2-D")],
        ids=["width", "one-vector", "stack"],
    )
    def test_dimension_mismatch(self, x, message):
        model = PropensityModel(constant_net(0.0), identity_scaling(2))
        with pytest.raises(ValueError, match=message):
            predict_propensity(model, x)

    def test_identity_output_required(self):
        net = MLPParams([DenseLayer(np.zeros((2, 1)), np.zeros(1), "relu")])
        with pytest.raises(ValueError, match="identity"):
            PropensityModel(net, identity_scaling(2))

    def test_stable_sigmoid_extremes(self):
        z = np.array([-1000.0, 0.0, 1000.0])
        out = stable_sigmoid(z)
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-300)
        assert np.all(np.isfinite(out))


class TestTraining:
    def test_separable_toy_accuracy(self):
        train = separable_toy(200, seed=3, margin=0.1)
        test = separable_toy(200, seed=4, margin=0.1)
        model = train_propensity(train, epochs=1500, rng=np.random.default_rng(5))
        scores = predict_propensity(model, test.X)
        accuracy = np.mean((scores > 0.5) == (test.W == 1))
        assert accuracy > 0.95

    def test_deep_in_class_point_confident(self):
        train = separable_toy(200, seed=3, margin=0.1)
        model = train_propensity(train, epochs=1500, rng=np.random.default_rng(5))
        assert predict_propensity(model, np.array([[3.0, 0.0]]))[0] > 0.9

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        ds = ObservationalDataset(X, np.ones(20, dtype=int), np.zeros(20))
        with pytest.raises(ValueError):
            train_propensity(ds, epochs=5, rng=np.random.default_rng(0))

    def test_null_model_calibrates_to_base_rate(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(500, 3))
        W = rng.integers(0, 2, 500)  # labels independent of X
        ds = ObservationalDataset(X, W, np.zeros(500))
        model = train_propensity(ds, epochs=400, rng=np.random.default_rng(7))
        assert abs(predict_propensity(model, X).mean() - W.mean()) < 0.1

    def test_loss_does_not_increase_over_training(self):
        ds = separable_toy(150, seed=8)

        def bce(model):
            p = predict_propensity(model, ds.X)
            w = ds.W.astype(float)
            return -np.mean(w * np.log(p) + (1 - w) * np.log(1 - p))

        early = train_propensity(ds, epochs=1, rng=np.random.default_rng(9))
        late = train_propensity(ds, epochs=400, rng=np.random.default_rng(9))
        assert bce(late) <= bce(early)

    def test_every_layer_of_the_returned_net_is_trained(self):
        init = build_mlp((2, *DEFAULT_ARCH, 1), np.random.default_rng(16))
        ds = separable_toy(50, seed=15)
        model = train_propensity(ds, epochs=3, rng=np.random.default_rng(16))
        assert model.net.layers[-1].activation == "identity"
        for trained, start in zip(model.net.layers, init.layers, strict=True):
            assert not np.array_equal(trained.W, start.W)
            assert not np.array_equal(trained.b, start.b)

    def test_divergence_raises_naming_the_epoch(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="epoch 2"):
                train_propensity(
                    separable_toy(40, seed=13),
                    arch=(4,),
                    epochs=5,
                    rng=np.random.default_rng(14),
                    learning_rate=1e200,
                )

    def test_epochs_validated(self):
        for epochs in (0, 2.5, True):
            with pytest.raises(ValueError, match="epochs"):
                train_propensity(
                    separable_toy(20, seed=0), epochs=epochs, rng=np.random.default_rng(0)
                )


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        ds = separable_toy(100, seed=10)
        model = train_propensity(ds, epochs=80, rng=np.random.default_rng(11))
        payload = model.to_dict()
        # a plain scorer: the dcn-pd model, not this one, holds gamma
        assert [f.name for f in fields(PropensityModel)] == ["net", "standardization"]
        assert set(payload) == {"net", "standardization"}
        clone = PropensityModel.from_dict(payload)
        X = np.random.default_rng(12).normal(size=(9, 2))
        np.testing.assert_array_equal(
            predict_propensity(clone, X), predict_propensity(model, X)
        )
