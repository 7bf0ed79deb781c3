"""Baseline estimators against hand oracles and construction properties."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from dcnpd import baselines
from dcnpd.baselines import KnnConfig, knn_ite, train_direct_nn
from dcnpd.data import ROW_BLOCK, ObservationalDataset, SyntheticConfig
from dcnpd.experiment import MODELS, ExperimentConfig, _DirectNet
from dcnpd.nn import DenseLayer, MLPParams, mask_widths, mlp_forward
from dcnpd.training import TrainConfig


def brute_force_knn(train, x, k):
    """Independent oracle: explicit python loops, sorted on (distance, index)."""
    by_group = {0: [], 1: []}
    for i in range(train.n):
        dist = float(np.sqrt(np.sum((train.X[i] - x) ** 2)))
        by_group[int(train.W[i])].append((dist, i))
    means = {}
    for w, entries in by_group.items():
        entries.sort()  # ties fall back to the lower row index
        chosen = entries[:k]
        means[w] = sum(train.Y[i] for _, i in chosen) / k
    return means[1] - means[0]


def random_dataset(rng, n, d):
    X = rng.normal(size=(n, d))
    # force both groups to have at least 6 members
    W = np.zeros(n, dtype=int)
    W[rng.permutation(n)[: n // 2]] = 1
    if W.sum() < 6:
        W[:6] = 1
    if (1 - W).sum() < 6:
        W[-6:] = 0
    Y = rng.normal(size=n)
    return ObservationalDataset(X, W, Y)


class TestKnn:
    def test_forced_single_matches(self):
        ds = ObservationalDataset(
            np.array([[0.0], [1.0]]), np.array([1, 0]), np.array([5.0, 2.0])
        )
        assert knn_ite(ds, np.array([0.5]), KnnConfig(k=1)) == 3.0

    def test_duplicate_points_give_exact_difference(self):
        X = np.array([[1.0, 1.0]] * 4)
        ds = ObservationalDataset(
            X, np.array([1, 1, 0, 0]), np.array([4.0, 4.0, 1.0, 1.0])
        )
        assert knn_ite(ds, np.array([1.0, 1.0]), KnnConfig(k=2)) == 3.0

    def test_tie_broken_by_lower_row_index(self):
        # two treated rows equidistant from the query; row 0 must win
        X = np.array([[1.0], [-1.0], [0.5]])
        ds = ObservationalDataset(X, np.array([1, 1, 0]), np.array([10.0, -10.0, 0.0]))
        assert knn_ite(ds, np.array([0.0]), KnnConfig(k=1)) == 10.0

    def test_group_smaller_than_k_rejected(self):
        ds = ObservationalDataset(
            np.ones((3, 1)), np.array([1, 0, 0]), np.zeros(3)
        )
        with pytest.raises(ValueError):
            knn_ite(ds, np.ones(1), KnnConfig(k=2))

    def test_k_validated(self):
        with pytest.raises(ValueError):
            KnnConfig(k=0)

    def test_shape_validated(self):
        ds = ObservationalDataset(np.ones((4, 2)), np.array([1, 1, 0, 0]), np.zeros(4))
        with pytest.raises(ValueError):
            knn_ite(ds, np.ones(3), KnnConfig(k=1))

    @given(st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, int(rng.integers(14, 60)), int(rng.integers(1, 4)))
        x = rng.normal(size=ds.d)
        assert knn_ite(ds, x, KnnConfig(k=k)) == brute_force_knn(ds, x, k)

    @given(data=st.data(), k=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_ties_match_brute_force_oracle(self, data, k):
        # a small integer grid puts many rows at the k-th distance of each arm
        n = data.draw(st.integers(2 * k, 40))
        d = data.draw(st.integers(1, 3))
        grid = st.integers(-2, 2).map(float)
        X = data.draw(npst.arrays(np.float64, (n, d), elements=grid))
        W = data.draw(npst.arrays(np.int64, n, elements=st.integers(0, 1)))
        W[:k], W[-k:] = 1, 0
        Y = data.draw(npst.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
        x = data.draw(npst.arrays(np.float64, d, elements=grid))
        ds = ObservationalDataset(X, W, Y)
        assert knn_ite(ds, x, KnnConfig(k=k)) == brute_force_knn(ds, x, k)

    def test_column_major_features_match_brute_force_oracle(self):
        # two treated rows hold the same 25 values in another order: equal distances
        # in exact arithmetic, whose rounded order depends on the order of summation
        rng = np.random.default_rng(13)  # a draw whose two orders disagree
        v = rng.normal(size=25)
        X = np.vstack([v, v[rng.permutation(25)], np.full((2, 25), 5.0)])
        W, Y = np.array([1, 1, 0, 0]), np.array([1.0, 2.0, 0.0, 0.0])
        for layout in (np.ascontiguousarray, np.asfortranarray):
            ds = ObservationalDataset(layout(X), W, Y)
            assert knn_ite(ds, np.zeros(25), KnnConfig(k=1)) == brute_force_knn(ds, np.zeros(25), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        ds = ObservationalDataset(np.eye(4, 3), np.array([1, 1, 0, 0]), np.arange(4.0))
        with pytest.raises(ValueError, match="NaN or infinite"):
            knn_ite(ds, np.array([bad, 0.0, 0.0]), KnnConfig(k=1))

    def test_noiseless_linear_effect_recovered_locally(self):
        # mean absolute error stays inside the effect range of the data
        rng = np.random.default_rng(1)
        n = 50
        X = rng.normal(size=(n, 2))
        W = np.tile([0, 1], n // 2)
        mu0 = X @ np.array([0.3, 0.2])
        mu1 = mu0 + 2.0 + X[:, 0]
        Y = np.where(W == 1, mu1, mu0)
        ds = ObservationalDataset(X, W, Y, mu0, mu1)
        preds = np.array([knn_ite(ds, x, KnnConfig(k=3)) for x in X])
        mae = np.abs(preds - ds.true_ite).mean()
        assert mae < ds.true_ite.max() - ds.true_ite.min()


def one_block_distances(X, x):
    """The distances of a single C-order pass over all of X."""
    deltas = np.subtract(X, x, order="C")
    return np.sqrt(np.sum(np.multiply(deltas, deltas, out=deltas), axis=1))


class TestKnnRowBlocks:
    """`knn_ite` computes its distances ROW_BLOCK rows at a time."""

    def test_ties_across_block_boundaries_match_brute_force_oracle(self):
        rng = np.random.default_rng(20)
        n = 3 * ROW_BLOCK + 7
        # the bulk sits on a far grid; next to each block boundary, rows of both
        # arms sit at distance 1 from the origin, so every k-th distance is tied
        X = rng.integers(3, 6, size=(n, 2)).astype(np.float64)
        W = rng.integers(0, 2, size=n)
        near = np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [0.0, 1.0]])
        for boundary in (ROW_BLOCK, 2 * ROW_BLOCK, 3 * ROW_BLOCK):
            rows = np.arange(boundary - 2, boundary + 2)
            X[rows] = near
            W[rows] = [1, 0, 0, 1]
        Y = rng.normal(size=n)
        ds = ObservationalDataset(X, W, Y)
        for x in ([0.0, 0.0], [4.0, 4.0], [1.0, 0.0]):
            x = np.array(x)
            for k in range(1, 6):
                assert knn_ite(ds, x, KnnConfig(k=k)) == brute_force_knn(ds, x, k)

    @pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_distances_have_the_bits_of_one_block(self, n, layout):
        rng = np.random.default_rng(n)
        X = layout(rng.normal(size=(n, 25)) * rng.uniform(0.1, 10.0, size=25))
        x = rng.normal(size=25)
        got = baselines._distances(X, x)
        assert got.tobytes() == one_block_distances(X, x).tobytes()
        for i in (0, ROW_BLOCK - 2, n - 1):
            assert got[i] == np.sqrt(np.sum((X[i] - x) ** 2))

    @pytest.mark.parametrize("cpus, starts", [
        (1, [0]),
        (2, [0, 2 * ROW_BLOCK]),
        (3, [0, 2 * ROW_BLOCK]),
        (8, [0, ROW_BLOCK, 2 * ROW_BLOCK, 3 * ROW_BLOCK]),
    ])
    def test_one_span_of_whole_blocks_per_usable_cpu(self, monkeypatch, cpus, starts):
        n = 3 * ROW_BLOCK + 7
        rng = np.random.default_rng(cpus)
        X = rng.normal(size=(n, 25))
        x = rng.normal(size=25)
        spans, span_distances = [], baselines._span_distances

        def recorded(X, x, distances, span):
            spans.append((span.start, span.stop))
            span_distances(X, x, distances, span)

        monkeypatch.setattr(baselines, "_span_distances", recorded)
        monkeypatch.setattr(baselines.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        got = baselines._distances(X, x)
        assert sorted(spans) == list(zip(starts, [*starts[1:], n]))
        assert got.tobytes() == one_block_distances(X, x).tobytes()

    def test_a_query_on_one_block_starts_no_thread(self):
        # in a fresh interpreter, so no earlier query has started the span threads
        script = """
import sys, threading
sys.path.insert(0, sys.argv[1])
import numpy as np
from dcnpd.baselines import KnnConfig, knn_ite
from dcnpd.data import ROW_BLOCK, ObservationalDataset
counts = [threading.active_count()]
for n in (ROW_BLOCK, ROW_BLOCK + 1):
    rng = np.random.default_rng(n)
    ds = ObservationalDataset(rng.normal(size=(n, 3)), np.arange(n) % 2, rng.normal(size=n))
    knn_ite(ds, np.zeros(3), KnnConfig(k=3))
    counts.append(threading.active_count())
print(counts)
"""
        src = str(Path(baselines.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script, src],
            capture_output=True, text=True, check=False, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        before, one_block, two_blocks = json.loads(result.stdout)
        assert one_block == before
        # the two-block query, the script's check that it can see a span thread start
        assert two_blocks == before + min(2, len(os.sched_getaffinity(0))) - 1

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_features_and_query_are_not_written(self, layout):
        rng = np.random.default_rng(4)
        n = ROW_BLOCK + 3
        X = layout(rng.normal(size=(n, 3)))
        x = rng.normal(size=3)
        X.setflags(write=False)
        x.setflags(write=False)
        before = X.tobytes(), x.tobytes()
        ds = ObservationalDataset(X, np.arange(n) % 2, rng.normal(size=n))
        assert ds.X is X
        knn_ite(ds, x, KnnConfig(k=3))
        assert (X.tobytes(), x.tobytes()) == before


def direct_model(*args, **kwargs) -> _DirectNet:
    """`train_direct_nn`'s net in the `nn4` model that reads effects off it."""
    return _DirectNet(train_direct_nn(*args, **kwargs))


class TestDirectModel:
    def test_zero_net_predicts_zero_effect(self):
        net = MLPParams([DenseLayer(np.zeros((3, 1)), np.zeros(1), "identity")])
        model = _DirectNet(net)
        X = np.random.default_rng(0).normal(size=(6, 2))
        np.testing.assert_array_equal(model.predict_ite(X, None), np.zeros(6))

    def test_antisymmetry_of_effect_readout(self):
        model = direct_model(
            _linear_toy(80, seed=2),
            arch=(8,),
            config=TrainConfig(epochs=3, batch_size=16),
            rng=np.random.default_rng(3),
        )
        X = np.random.default_rng(4).normal(size=(5, 3))
        y1, y0 = (
            mlp_forward(model.net, np.column_stack([X, np.full(5, w)]))[0][:, 0]
            for w in (1.0, 0.0)
        )
        np.testing.assert_array_equal(y1 - y0, -(y0 - y1))
        assert model.predict_ite(X, None).tobytes() == (y1 - y0).tobytes()

    def test_feature_width_checked(self):
        net = MLPParams([DenseLayer(np.zeros((3, 1)), np.zeros(1), "identity")])
        with pytest.raises(ValueError, match="width"):
            _DirectNet(net).predict_ite(np.zeros((1, 3)), None)
        with pytest.raises(ValueError, match="single output"):
            _DirectNet(MLPParams([DenseLayer(np.zeros((3, 2)), np.zeros(2), "identity")]))

    def test_default_architecture_is_four_layers(self):
        ds = _linear_toy(40, seed=5)
        config = ExperimentConfig(
            seed=0, synthetic=SyntheticConfig(), train=TrainConfig(epochs=1, batch_size=16)
        )
        net = MODELS["nn4"].fit(ds, config, None, np.random.default_rng(6)).net
        assert len(net.layers) == 4
        assert mask_widths([net]) == [[200, 200, 200]]
        assert net.input_dim == ds.d + 1

    def test_dict_round_trip(self):
        model = direct_model(
            _linear_toy(30, seed=7),
            arch=(8,),
            config=TrainConfig(epochs=2, batch_size=8),
            rng=np.random.default_rng(8),
        )
        clone = _DirectNet.from_dict(model.to_dict())
        X = np.random.default_rng(9).normal(size=(4, 3))
        np.testing.assert_array_equal(clone.predict_ite(X, None), model.predict_ite(X, None))


def _linear_toy(n, seed, effect=1.5, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    W = rng.integers(0, 2, n)
    Y = X @ np.array([0.5, -0.3, 0.2]) + effect * W + noise * rng.normal(size=n)
    mu0 = X @ np.array([0.5, -0.3, 0.2])
    return ObservationalDataset(X, W, Y if noise else np.where(W == 1, mu0 + effect, mu0), mu0, mu0 + effect)


class TestDirectTraining:
    def test_treatment_irrelevant_outcome_gives_small_effects(self):
        rng = np.random.default_rng(10)
        n = 500
        X = rng.normal(size=(n, 4))
        W = rng.integers(0, 2, n)
        Y = X @ np.array([0.6, -0.4, 0.2, 0.1])  # ignores w entirely
        ds = ObservationalDataset(X, W, Y)
        model = direct_model(
            ds,
            arch=(32, 32),
            config=TrainConfig(epochs=200, batch_size=32),
            rng=np.random.default_rng(11),
        )
        assert np.abs(model.predict_ite(X, None)).mean() < 0.2

    def test_mse_improves_from_single_epoch_to_many(self):
        ds = _linear_toy(300, seed=12)
        early = direct_model(
            ds, arch=(32,), config=TrainConfig(epochs=1), rng=np.random.default_rng(13)
        )
        late = direct_model(
            ds, arch=(32,), config=TrainConfig(epochs=120), rng=np.random.default_rng(13)
        )

        def mse(model):
            return float(np.mean((model.predict_ite(ds.X, None) - ds.true_ite) ** 2))

        assert mse(late) < mse(early)

    def test_determinism(self):
        ds = _linear_toy(60, seed=14)
        cfg = TrainConfig(epochs=3, batch_size=16)
        a = direct_model(ds, (8,), cfg, rng=np.random.default_rng(15))
        b = direct_model(ds, (8,), cfg, rng=np.random.default_rng(15))
        X = ds.X[:5]
        np.testing.assert_array_equal(a.predict_ite(X, None), b.predict_ite(X, None))

    def test_divergence_raises_naming_the_epoch(self):
        ds = _linear_toy(40, seed=17)
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="epoch 1"):
                train_direct_nn(ds, (8, 8), cfg, rng=np.random.default_rng(18))

    def test_dropout_domain(self):
        ds = _linear_toy(30, seed=16)
        with pytest.raises(ValueError):
            train_direct_nn(
                ds, (8,), TrainConfig(epochs=1), rng=np.random.default_rng(0), dropout_prob=1.0
            )
